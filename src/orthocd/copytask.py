"""Copying-memory task.

A sequence of K letters from an alphabet of size N must be reproduced
after a lag of L blank steps, on cue from a start marker:

    inputs : [a_1 .. a_K][blank x L][start][blank x (K-1)]
    targets: [blank x (L+K)][a_1 .. a_K]

Total length T = L + 2K.  Token classes: letters 0..N-1, blank = N,
start = N+1.  Inputs are one-hot over N+2 classes; outputs never need
the start marker, so the target/logit space has N+1 classes.

A predictor with no memory can at best emit blank everywhere and guess
letters uniformly at the K recall positions, giving expected
cross-entropy K*ln(N)/T when averaged over the full sequence; that
closed form is `baseline_loss`, the flat line training must beat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CopyTaskBatch",
    "CopyTaskConfig",
    "DESK",
    "PAPER",
    "accuracy",
    "baseline_loss",
    "generate_batch",
    "one_hot",
]


@dataclass(frozen=True)
class CopyTaskConfig:
    alphabet: int = 9   # N
    copy_len: int = 10  # K
    lag: int = 1000     # L
    batch: int = 128    # B

    def __post_init__(self) -> None:
        # one-letter alphabets carry no information to recall
        if self.alphabet < 2 or self.copy_len < 1 or self.lag < 0 or self.batch < 1:
            raise ValueError(f"invalid task config {self}")

    @property
    def seq_len(self) -> int:
        return self.lag + 2 * self.copy_len

    @property
    def n_input_classes(self) -> int:
        return self.alphabet + 2

    @property
    def n_output_classes(self) -> int:
        return self.alphabet + 1

    @property
    def blank(self) -> int:
        return self.alphabet

    @property
    def start(self) -> int:
        return self.alphabet + 1


PAPER = CopyTaskConfig(alphabet=9, copy_len=10, lag=1000, batch=128)
DESK = CopyTaskConfig(alphabet=9, copy_len=5, lag=100, batch=32)


@dataclass
class CopyTaskBatch:
    inputs: np.ndarray   # (B, T) int class indices over N+2 classes
    targets: np.ndarray  # (B, T) int class indices over N+1 classes
    mask: np.ndarray     # (B, T) bool, steps that count toward the loss


def generate_batch(
    cfg: CopyTaskConfig,
    rng: np.random.Generator,
    mask_mode: str = "full",
) -> CopyTaskBatch:
    """Draw letters i.i.d. uniform from `rng` and lay out the sequences.

    mask_mode "full" scores every step (the default; baseline_loss is
    stated in this convention), "recall" scores only the final K steps.
    """
    if mask_mode not in ("full", "recall"):
        raise ValueError(f"unknown mask_mode {mask_mode!r}")
    n, k, lag, bsz = cfg.alphabet, cfg.copy_len, cfg.lag, cfg.batch
    t_total = cfg.seq_len
    letters = rng.integers(0, n, size=(bsz, k))

    inputs = np.full((bsz, t_total), cfg.blank, dtype=np.int64)
    inputs[:, :k] = letters
    inputs[:, k + lag] = cfg.start

    targets = np.full((bsz, t_total), cfg.blank, dtype=np.int64)
    targets[:, lag + k:] = letters

    if mask_mode == "full":
        mask = np.ones((bsz, t_total), dtype=bool)
    else:
        mask = np.zeros((bsz, t_total), dtype=bool)
        mask[:, lag + k:] = True
    return CopyTaskBatch(inputs=inputs, targets=targets, mask=mask)


def one_hot(indices: np.ndarray, n_classes: int) -> np.ndarray:
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() >= n_classes):
        raise ValueError(f"index out of range [0, {n_classes})")
    out = np.zeros(indices.shape + (n_classes,))
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def baseline_loss(cfg: CopyTaskConfig) -> float:
    """Memoryless optimum under the full-sequence mean: K*ln(N)/(L+2K)."""
    return cfg.copy_len * np.log(cfg.alphabet) / cfg.seq_len


def accuracy(logits: np.ndarray, batch: CopyTaskBatch, cfg: CopyTaskConfig) -> float:
    """Fraction of the final K positions whose argmax matches the
    target; `logits` is batch-first (B, T, n_output_classes)."""
    logits = np.asarray(logits)
    if logits.ndim != 3:
        raise ValueError(f"logits must be (B, T, n_classes), got shape {logits.shape}")
    k = cfg.copy_len
    pred = logits[:, -k:, :].argmax(axis=-1)
    return float((pred == batch.targets[:, -k:]).mean())

