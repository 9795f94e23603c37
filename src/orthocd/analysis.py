"""Diagnostics: gradient-sparsity profiles, the weighted-average
convergence metric, and wall-clock benchmarks for the update kernels.

Mass fractions in sparsity profiles use squared magnitudes, so "x% of
the coordinates carry 95% of the norm" refers to the Euclidean norm of
the Riemannian gradient (the coordinate vector is its orthonormal
expansion).  Linear-mass variants are computed alongside and written to
CSV for comparison.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from . import copytask, manifold, optim, rnn

__all__ = [
    "SparsityProfile",
    "bench_update",
    "convergence_metric",
    "decade_edges",
    "histogram",
    "kahan_cumsum",
    "loglog_slope",
    "sparsity_profile",
]


# ---------------------------------------------------------------------------
# sparsity
# ---------------------------------------------------------------------------

@dataclass
class SparsityProfile:
    """Shares of the coordinates carrying 95%/99% of the squared (and
    linear) mass, and the norm."""

    frac95: float
    frac99: float
    frac95_abs: float              # linear-mass variants, reported in CSV
    frac99_abs: float
    norm: float


def _frac_needed(cum: np.ndarray, p: float) -> float:
    # smallest n with cum[n-1] >= p, as a fraction of the length;
    # the tiny slack absorbs cumsum roundoff at exact-ratio plateaus
    n = int(np.searchsorted(cum, p - 1e-12, side="left")) + 1
    return n / cum.size


def sparsity_profile(partials: np.ndarray) -> SparsityProfile:
    """Profile of coordinate magnitudes; all-zero input yields frac = 0."""
    v = np.asarray(partials, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("empty partials vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite partials")
    mags = np.sort(np.abs(v))[::-1]
    sq = mags * mags
    total = sq.sum()
    if total == 0.0:
        return SparsityProfile(0.0, 0.0, 0.0, 0.0, 0.0)
    cum = np.cumsum(sq) / total
    cum_abs = np.cumsum(mags) / mags.sum()
    return SparsityProfile(
        frac95=_frac_needed(cum, 0.95),
        frac99=_frac_needed(cum, 0.99),
        frac95_abs=_frac_needed(cum_abs, 0.95),
        frac99_abs=_frac_needed(cum_abs, 0.99),
        norm=float(math.sqrt(total)),
    )


def decade_edges(values: np.ndarray) -> np.ndarray:
    """Log-spaced decade bin edges covering the nonzero magnitudes."""
    mags = np.abs(np.asarray(values, dtype=np.float64))
    nz = mags[mags > 0]
    if nz.size == 0:
        return 10.0 ** np.arange(-16.0, 1.0)
    lo = max(math.floor(math.log10(nz.min())), -323)  # 10.0**-324 is 0.0: underflow
    hi = math.ceil(math.log10(nz.max()))
    if hi == lo:
        hi += 1
    return 10.0 ** np.arange(lo, hi + 1)


@dataclass
class Histogram:
    bin_lo: np.ndarray  # row 0 is the underflow bin [0, edges[0])
    bin_hi: np.ndarray  # last row is the overflow bin [edges[-1], inf)
    counts: np.ndarray


def histogram(partials: np.ndarray, log_bins: np.ndarray) -> Histogram:
    """Counts of |v_i| per bin; zeros (and anything below the first
    edge) land in an underflow bin, values at or above the last edge in
    an overflow bin, so the counts always sum to D."""
    v = np.abs(np.asarray(partials, dtype=np.float64).ravel())
    edges = np.asarray(log_bins, dtype=np.float64).ravel()
    if edges.size < 2:
        raise ValueError("need at least two bin edges")
    if np.any(edges <= 0):
        raise ValueError("bin edges must be positive")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be strictly increasing")
    pos = np.searchsorted(edges, v, side="right")
    counts = np.bincount(pos, minlength=edges.size + 1)
    lo = np.concatenate([[0.0], edges])
    hi = np.concatenate([edges, [np.inf]])
    return Histogram(bin_lo=lo, bin_hi=hi, counts=counts)


# ---------------------------------------------------------------------------
# convergence metric
# ---------------------------------------------------------------------------

def kahan_cumsum(x: np.ndarray) -> np.ndarray:
    """Compensated (Kahan) running sum; keeps the metric stable over
    10^6-term stepsize sums.  The loop runs on Python floats, the same
    IEEE double arithmetic as numpy's float64 scalars at a fraction of
    their per-operation cost."""
    out = []
    s = 0.0
    comp = 0.0
    for v in np.asarray(x, dtype=np.float64).ravel().tolist():
        y = v - comp
        t = s + y
        comp = (t - s) - y
        s = t
        out.append(s)
    return np.array(out, dtype=np.float64)


def convergence_metric(alphas: np.ndarray, grad_norm_sq: np.ndarray) -> np.ndarray:
    """Running weighted average M_K = sum_{k<=K} a^k g^k / sum_{k<=K} a^k."""
    alphas = np.asarray(alphas, dtype=np.float64).ravel()
    gsq = np.asarray(grad_norm_sq, dtype=np.float64).ravel()
    if alphas.size == 0 or alphas.size != gsq.size:
        raise ValueError("alphas and grad_norm_sq must be equal-length, nonempty")
    num = kahan_cumsum(alphas * gsq)
    den = kahan_cumsum(alphas)
    return num / den


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

BENCH_MIN_D = 4
BENCH_WARMUP = 5
BENCH_REPS = 30


# the training optimizers plus one bench-only baseline: a Euclidean
# step whose W leaves O(d), so it is never trained and has no W geometry
BENCH_OPTIMIZERS = ("sgd", *optim.OPTIMIZERS)


def bench_update(optimizer: str, d: int, phase: str = "update",
                 batch: int = 32) -> float:
    """Median seconds of BENCH_REPS timed steps after BENCH_WARMUP.

    The step is `optim.step`, as in `train`, or `optim.sgd_step` for
    `sgd`.  phase="update" times the step alone on a bundle of random G
    and X blocks, made once outside the timed region.
    phase="backward_update" times BPTT on a desk-scale copy-task batch
    plus the step on the bundle `train` makes from it: S = antisym(A),
    or G = W A for `sgd`.  One `rnn.Workspace` and one W serve every
    call, as in `train`; no thread limit is added beyond the package's.
    """
    if optimizer not in BENCH_OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    if d < BENCH_MIN_D:
        raise ValueError(f"bench needs d >= {BENCH_MIN_D}")
    if phase not in ("update", "backward_update"):
        raise ValueError(f"unknown phase {phase!r}")
    rng = np.random.default_rng(0)
    task = dataclasses.replace(copytask.DESK, batch=batch)
    params = rnn.init_params(d, task.n_input_classes, task.n_output_classes, 0)
    kind = optim.OPTIMIZERS.get(optimizer)
    state = optim.OptimizerState.for_rnn(
        params, optim.StepSchedule("fixed", 2e-4),
        rule=None if kind is None else optim.SelectionRule(kind), seed=0)
    step = optim.sgd_step if optimizer == "sgd" else optim.step

    if phase == "update":
        grads = optim.GradPack(
            w=rng.standard_normal((d, d)),
            x={name: rng.standard_normal(arr.shape) * 0.01
               for name, arr in state.x.items()})
        def once() -> None:
            step(state, grads)
    else:
        data = copytask.generate_batch(task, rng)
        x1h = copytask.one_hot(data.inputs, task.n_input_classes)
        work = rnn.Workspace()
        def once() -> None:
            _, grads = rnn.backward(params, x1h, data.targets, data.mask, work)
            if optimizer == "sgd":
                pack = optim.GradPack(w=state.w @ grads.a, x=grads.x_blocks())
            else:
                pack = optim.GradPack(skew=manifold.antisym(grads.a),
                                      x=grads.x_blocks())
            step(state, pack)

    for _ in range(BENCH_WARMUP):
        once()
    times = []
    for _ in range(BENCH_REPS):
        t0 = time.perf_counter()
        once()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def loglog_slope(dims, times) -> float:
    """Least-squares slope of log(time) against log(d)."""
    x = np.log(np.asarray(dims, dtype=np.float64))
    y = np.log(np.asarray(times, dtype=np.float64))
    return float(np.polyfit(x, y, 1)[0])
