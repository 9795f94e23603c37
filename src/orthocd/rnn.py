"""Minimal recurrent network with an orthogonal recurrence.

    h(t) = phi(W_in x(t) + W h(t-1)),    y(t) = W_out h(t) + b_out,

with phi the modReLU activation (Arjovsky, Shah & Bengio, ICML 2016).
`backward` accumulates exact BPTT gradients for every parameter block.
For W it returns A = W^T G, G the raw Euclidean gradient: every step on
O(d) reads S = A - A^T (see `manifold`), and the reverse loop yields A
for the cost of the dW product it replaces, so no caller pays a d^3
product W^T G.

The public API is batch-first: inputs (B, T, d_in), targets and masks
(B, T), ForwardTrace fields (B, T, .).  A 2D input (T, d_in) is
treated as a batch of one.  Inside, one recurrence (`_recur`) runs
time-major on contiguous (T, B, d) arrays, so every per-step slice is
contiguous; the trace fields are transposed views of them.  `forward`
stores hidden states, preactivations and logits.  `logits` runs the
same evaluation, bitwise, but stores no preactivations: it holds the
(T, B, d) hidden states only until the logits are formed.  `backward`
stores only the hidden states, and its memory peak is about two
(T, B, d) float64 arrays.  All math is in float64 and every function
here is deterministic, so a fixed seed reproduces runs bitwise.

modReLU step.  `_recur` writes sign(pre) into a (B, d) scratch buffer
and multiplies it by the magnitude into `pre`, because on numpy 2.4.6
an in-place np.sign over float64 is 6-8x slower than one into a
separate array (per call on fresh random data, 2 vCPUs: 170 -> 21 us
at (B, d) = (128, 190), 14 -> 2.3 us at (32, 64)).  np.copysign
would need no buffer, but where a preactivation is exactly 0 and
b_mod > 0 it gives +-b instead of modReLU's 0.

Thread policy.  As everywhere in the package (see `orthocd.blas`), an
OpenBLAS copy is held at one thread for the length of a small call, then
given back its count.  Here `forward`, `logits` and `backward` hold
numpy's copy when the A product, T*B*d*d multiply-adds, is below
BPTT_THREADED_MIN_WORK.  Below that size the products are short and a
second thread gains little (backward on 2 vCPUs, idle host, one thread
-> two: d=64, T=110, B=32 14.6 -> 13.6 ms; d=96 20.9 -> 19.4 ms).  But
a threaded product waits for its second thread whenever the other vCPU
is busy: with one busy process beside it, a training iteration at that
d=64 size took 33 ms with two threads and 16 ms with one, so run times
scattered with the host's load.  From that size up the threads pay
(d=128: 31.1 -> 26.5 ms; d=1024, T=20, B=8: 65.2 -> 44.6 ms) and the
count is left as it is.
"""

from __future__ import annotations

import contextlib
import struct
from dataclasses import dataclass

import numpy as np

from . import blas, manifold

__all__ = [
    "ForwardTrace",
    "Grads",
    "RnnParams",
    "backward",
    "cayley_block_init",
    "forward",
    "init_params",
    "load_checkpoint",
    "logits",
    "loss",
    "modrelu",
    "save_checkpoint",
]

_CKPT_MAGIC = b"ORNNCKP\x00"
_CKPT_VERSION = 1
BPTT_THREADED_MIN_WORK = 2**25  # T*B*d*d; thread policy: see the module docstring


@dataclass
class RnnParams:
    """Parameter blocks; W is the orthogonal recurrence (d x d)."""

    w_in: np.ndarray   # d x d_in
    w: np.ndarray      # d x d, orthogonal
    w_out: np.ndarray  # d_out x d
    b_out: np.ndarray  # d_out
    b_mod: np.ndarray  # d, modReLU bias

    @property
    def d(self) -> int:
        return self.w.shape[0]

    @property
    def d_in(self) -> int:
        return self.w_in.shape[1]

    @property
    def d_out(self) -> int:
        return self.w_out.shape[0]

    def x_blocks(self) -> dict[str, np.ndarray]:
        """The unconstrained (non-orthogonal) blocks, by name."""
        return {"w_in": self.w_in, "w_out": self.w_out,
                "b_out": self.b_out, "b_mod": self.b_mod}

    def copy(self) -> "RnnParams":
        return RnnParams(self.w_in.copy(), self.w.copy(), self.w_out.copy(),
                         self.b_out.copy(), self.b_mod.copy())

    def check(self) -> None:
        """Trust-boundary check, run on checkpoint save and load: shapes
        agree, every entry is finite and ||W^T W - I||_F <= ORTHOGONALITY_TOL
        (written `not <=` so that a NaN defect fails)."""
        d, d_in, d_out = self.d, self.d_in, self.d_out
        if self.w_in.shape != (d, d_in) or self.w.shape != (d, d):
            raise ValueError("inconsistent parameter shapes")
        if self.w_out.shape != (d_out, d) or self.b_out.shape != (d_out,):
            raise ValueError("inconsistent parameter shapes")
        if self.b_mod.shape != (d,):
            raise ValueError("inconsistent parameter shapes")
        for name, arr in (("w", self.w), *self.x_blocks().items()):
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite entries in {name}")
        defect = manifold.orthogonality_defect(self.w)
        # |log|det W|| <= sqrt(d) defect / (2(1 - defect)): |det W| = 1 to 1e-6 for d < 4e4
        if not defect <= manifold.ORTHOGONALITY_TOL:
            raise ValueError(f"W is not orthogonal: ||W^T W - I||_F = "
                             f"{defect:.3e} > {manifold.ORTHOGONALITY_TOL:.0e}")


@dataclass
class ForwardTrace:
    hidden: np.ndarray  # (B, T, d)
    preact: np.ndarray  # (B, T, d)
    logits: np.ndarray  # (B, T, d_out)


@dataclass
class Grads:
    """Euclidean gradients of the unconstrained blocks, same shapes as
    RnnParams, and A = W^T G for the orthogonal one.

    S = manifold.antisym(a) = W^T G - G^T W is what a step on W reads:
    the Riemannian gradient, the coordinate partials and its norm all
    follow from it (see `manifold`).  The Euclidean gradient itself,
    where a caller needs it, is G = W a.
    """

    w_in: np.ndarray
    a: np.ndarray      # W^T dL/dW, d x d
    w_out: np.ndarray
    b_out: np.ndarray
    b_mod: np.ndarray

    def x_blocks(self) -> dict[str, np.ndarray]:
        return {"w_in": self.w_in, "w_out": self.w_out,
                "b_out": self.b_out, "b_mod": self.b_mod}


def modrelu(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sign(x) * max(|x| + b, 0), with 0 at x = 0 (sign(0) = 0)."""
    return np.sign(x) * np.maximum(np.abs(x) + b, 0.0)


def _as_batched(inputs: np.ndarray) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim == 2:
        inputs = inputs[None]
    if inputs.ndim != 3:
        raise ValueError(f"inputs must be (B, T, d_in) or (T, d_in), got {inputs.shape}")
    return inputs


def _thread_policy(params: RnnParams, bsz: int, steps: int):
    """numpy's OpenBLAS at one thread for a small BPTT (see the module
    docstring); a no-op context otherwise."""
    if steps * bsz * params.d ** 2 >= BPTT_THREADED_MIN_WORK:
        return contextlib.nullcontext()
    return blas.held_threads("numpy", 1)


def _recur(
    params: RnnParams,
    inputs: np.ndarray,
    h0: np.ndarray | None,
    activation: str,
    preact: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence, time-major.

    Takes batch-first inputs (B, T, d_in) and returns (x, hidden): the
    inputs as a contiguous (T, B, d_in) copy and the hidden states as a
    contiguous (T, B, d) array.  W_in x(t) for all steps is one GEMM
    written straight into `hidden`; each step then adds W h(t-1) and
    applies the activation in place.  A (T, B, d) `preact` array, when
    given, receives the preactivations.
    """
    bsz, steps, d_in = inputs.shape
    if d_in != params.d_in:
        raise ValueError(f"input feature dim {d_in} != params d_in {params.d_in}")
    if activation not in ("modrelu", "identity"):
        raise ValueError(f"unknown activation {activation!r}")
    d = params.d
    h = None if h0 is None else np.broadcast_to(
        np.asarray(h0, dtype=np.float64), (bsz, d))

    x = np.ascontiguousarray(inputs.transpose(1, 0, 2))
    hidden = np.empty((steps, bsz, d))
    np.matmul(x.reshape(-1, d_in), params.w_in.T, out=hidden.reshape(-1, d))
    w_t = params.w.T
    mag = np.empty((bsz, d))
    sgn = np.empty((bsz, d))  # np.sign in place is slow: module docstring
    for t in range(steps):
        pre = hidden[t]
        if h is not None:
            pre += h @ w_t
        if preact is not None:
            preact[t] = pre
        if activation == "modrelu":  # modrelu(pre, b_mod), into pre
            np.abs(pre, out=mag)
            mag += params.b_mod
            np.maximum(mag, 0.0, out=mag)
            np.sign(pre, out=sgn)
            np.multiply(sgn, mag, out=pre)
        h = pre
    return x, hidden


def _evaluate(
    params: RnnParams,
    inputs: np.ndarray,
    h0: np.ndarray | None,
    activation: str,
    keep_preact: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """(hidden, preact or None, logits), time-major: the one evaluation
    behind `forward` and `logits`."""
    inputs = _as_batched(inputs)
    bsz, steps, _ = inputs.shape
    preact = np.empty((steps, bsz, params.d)) if keep_preact else None
    with _thread_policy(params, bsz, steps):
        _, hidden = _recur(params, inputs, h0, activation, preact)
        out = hidden @ params.w_out.T + params.b_out
    return hidden, preact, out


def forward(
    params: RnnParams,
    inputs: np.ndarray,
    h0: np.ndarray | None = None,
    activation: str = "modrelu",
) -> ForwardTrace:
    """Run the recurrence over a batch of sequences.

    `activation` is "modrelu" or "identity"; the identity hook exists so
    tests can isolate the linear dynamics (orthogonal W preserves the
    hidden-state norm exactly in that mode).  The trace fields are
    (B, T, .) views of time-major arrays.
    """
    hidden, preact, out = _evaluate(params, inputs, h0, activation, keep_preact=True)
    return ForwardTrace(hidden=hidden.transpose(1, 0, 2),
                        preact=preact.transpose(1, 0, 2),
                        logits=out.transpose(1, 0, 2))


def logits(
    params: RnnParams,
    inputs: np.ndarray,
    h0: np.ndarray | None = None,
    activation: str = "modrelu",
) -> np.ndarray:
    """The (B, T, d_out) logits of `forward`, bitwise, without storing
    the preactivations (a (B, T, d_out) view of a time-major array)."""
    return _evaluate(params, inputs, h0, activation, keep_preact=False)[2].transpose(1, 0, 2)


def _check_targets(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(f"targets shape {targets.shape} != {logits.shape[:-1]}")
    n_classes = logits.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ValueError(f"target class out of range [0, {n_classes})")
    return targets


def _resolve_mask(mask: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    if mask is None:
        return np.ones(shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == len(shape) - 1:
        mask = mask[None]
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape} != {shape}")
    return mask


def loss(
    logits: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray | None = None,
) -> float:
    """Softmax cross-entropy, averaged over the masked (batch, step)
    positions.  Log-sum-exp uses max-subtraction.  An all-false mask
    gives a constant loss, defined as 0."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 2:
        logits = logits[None]
    targets = np.asarray(targets)
    if targets.ndim == 1:
        targets = targets[None]
    targets = _check_targets(logits, targets)
    mask = _resolve_mask(mask, logits.shape[:-1])
    count = int(mask.sum())
    if count == 0:
        return 0.0
    m = logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(logits - m).sum(axis=-1)) + m[..., 0]
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    ce = lse - picked
    return float(ce[mask].sum() / count)


def _loss_and_dlogits(
    logits: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Loss plus its gradient (softmax - onehot) * mask / count."""
    count = int(mask.sum())
    if count == 0:
        return 0.0, np.zeros_like(logits)
    m = logits.max(axis=-1, keepdims=True)
    ez = np.exp(logits - m)
    sez = ez.sum(axis=-1, keepdims=True)
    softmax = ez / sez
    lse = np.log(sez[..., 0]) + m[..., 0]
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    value = float(((lse - picked)[mask]).sum() / count)
    dlogits = softmax
    np.put_along_axis(
        dlogits, targets[..., None],
        np.take_along_axis(dlogits, targets[..., None], axis=-1) - 1.0, axis=-1)
    dlogits *= mask[..., None] / count
    return value, dlogits


def backward(
    params: RnnParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray | None = None,
    h0: np.ndarray | None = None,
    activation: str = "modrelu",
) -> tuple[float, Grads]:
    """Forward pass plus exact reverse-mode accumulation through time.

    Returns (loss, Grads).  The modReLU subgradient is 0 both at the
    kink |x| + b = 0 and at x = 0.

    Only the hidden states are kept from the forward pass: modReLU's
    output h is nonzero exactly where its subgradient is 1, and there
    sign(h) = sign(pre).  The reverse loop does the elementwise work
    step by step and forms carry(t) = dL/dpre(t) W, the term it passes
    to step t-1.  It writes carry(t) over dL/dh_out(t) in one (T, B, d)
    buffer, so A = W^T dW = sum_t carry(t)^T h(t-1) is one GEMM of the
    shape of the dW product, and dW_in = W (C^T X) since
    dL/dpre(t) = carry(t) W^T.
    """
    inputs = _as_batched(inputs)
    bsz, steps, _ = inputs.shape
    targets = np.asarray(targets)
    if targets.ndim == 1:
        targets = targets[None]
    with _thread_policy(params, bsz, steps):
        return _backward(params, inputs, targets, mask, h0, activation)


def _backward(params, inputs, targets, mask, h0, activation) -> tuple[float, Grads]:
    bsz, steps, _ = inputs.shape
    x, hidden = _recur(params, inputs, h0, activation)
    logits = hidden @ params.w_out.T + params.b_out
    # the loss over (B, T) views, so its summation order is batch-first
    logits_bt = logits.transpose(1, 0, 2)
    targets = _check_targets(logits_bt, targets)
    mask = _resolve_mask(mask, logits_bt.shape[:-1])
    value, dlogits = _loss_and_dlogits(logits_bt, targets, mask)
    del logits, logits_bt
    dlogits = np.ascontiguousarray(dlogits.transpose(1, 0, 2))

    d, d_out = params.d, params.d_out
    rows = steps * bsz
    flat_dlogits = dlogits.reshape(rows, d_out)
    flat_hidden = hidden.reshape(rows, d)
    carry = np.empty((steps, bsz, d))  # dL/dh_out(t), then dL/dpre(t) W
    np.matmul(flat_dlogits, params.w_out, out=carry.reshape(rows, d))
    g_w_out = flat_dlogits.T @ flat_hidden
    g_b_out = flat_dlogits.sum(axis=0)
    del dlogits, flat_dlogits
    b_mod = np.zeros((bsz, d))
    sgn = np.empty((bsz, d))
    dh = np.empty((bsz, d))
    for t in range(steps - 1, -1, -1):
        if t < steps - 1:
            np.add(carry[t], carry[t + 1], out=dh)
        else:
            dh[...] = carry[t]
        if activation == "modrelu":
            np.sign(hidden[t], out=sgn)
            dh *= sgn                 # dL/dpre * sign(pre) where active
            b_mod += dh
            dh *= sgn                 # dL/dpre: sign^2 is the active mask
        np.matmul(dh, params.w, out=carry[t])

    flat_carry = carry.reshape(rows, d)
    # A = W^T dW = sum_t carry(t)^T h(t-1), with h(-1) = h0 (zero by default)
    a = flat_carry[bsz:].T @ flat_hidden[:rows - bsz]
    if h0 is not None and steps:
        a += carry[0].T @ np.broadcast_to(np.asarray(h0, dtype=np.float64), (bsz, d))
    grads = Grads(
        w_in=params.w @ (flat_carry.T @ x.reshape(rows, params.d_in)),
        a=a,
        w_out=g_w_out,
        b_out=g_b_out,
        b_mod=b_mod.sum(axis=0),
    )
    return value, grads


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def cayley_block_init(
    d: int,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    angles: np.ndarray | None = None,
) -> np.ndarray:
    """Orthogonal W0 = (I + A)^-1 (I - A), A block-diagonal with 2x2
    skew blocks [[0, s], [-s, 0]], s ~ Uniform[-pi, pi] per block.

    `angles` overrides the sampling (length d/2), for tests.  The
    transform of a block is [[1-s^2, -2s], [2s, 1-s^2]] / (1+s^2), so
    W0 is written in closed form with O(d) arithmetic, not a d x d
    solve; the tests compare it with the linear-solve transform.
    """
    if d % 2 != 0:
        raise ValueError(f"cayley_block_init needs even d, got {d}")
    if angles is None:
        if rng is None:
            rng = np.random.default_rng(seed)
        angles = rng.uniform(-np.pi, np.pi, size=d // 2)
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (d // 2,):
        raise ValueError(f"need {d // 2} block angles, got shape {angles.shape}")
    den = 1.0 + angles * angles
    cos = (1.0 - angles * angles) / den
    sin = 2.0 * angles / den
    w = np.zeros((d, d))
    top = np.arange(0, d, 2)
    w[top, top] = w[top + 1, top + 1] = cos
    w[top, top + 1] = -sin
    w[top + 1, top] = sin
    return w


def init_params(d: int, d_in: int, d_out: int, seed: int = 0) -> RnnParams:
    """Deterministic initialization for a given seed.

    Draw order (part of the determinism contract): Cayley block angles,
    W_in, W_out, b_mod.  W_in and W_out use He scaling
    N(0, sqrt(2/fan_in)); b_mod ~ Uniform[-0.01, 0.01]; b_out = 0.
    """
    rng = np.random.default_rng(seed)
    w = cayley_block_init(d, rng=rng)
    w_in = rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d, d_in))
    w_out = rng.normal(0.0, np.sqrt(2.0 / d), size=(d_out, d))
    b_mod = rng.uniform(-0.01, 0.01, size=d)
    b_out = np.zeros(d_out)
    return RnnParams(w_in=w_in, w=w, w_out=w_out, b_out=b_out, b_mod=b_mod)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: RnnParams, seed: int = 0) -> None:
    """Flat binary container; layout documented in the README.

    8-byte magic, 1 version byte, little-endian u32 d, d_in, d_out,
    u64 seed, then float64 row-major blocks in the order
    w_in, w, w_out, b_out, b_mod.
    """
    params.check()
    header = _CKPT_MAGIC + struct.pack(
        "<BIIIQ", _CKPT_VERSION, params.d, params.d_in, params.d_out, seed)
    with open(path, "wb") as fh:
        fh.write(header)
        for block in (params.w_in, params.w, params.w_out,
                      params.b_out, params.b_mod):
            fh.write(np.ascontiguousarray(block, dtype=np.float64).tobytes())


def load_checkpoint(path) -> tuple[RnnParams, int]:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _CKPT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        header = fh.read(21)
        if len(header) != 21:
            raise ValueError("truncated checkpoint header")
        version, d, d_in, d_out, seed = struct.unpack("<BIIIQ", header)
        if version != _CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        def block(*shape: int) -> np.ndarray:
            n = int(np.prod(shape))
            buf = fh.read(8 * n)
            if len(buf) != 8 * n:
                raise ValueError("truncated checkpoint")
            return np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        params = RnnParams(
            w_in=block(d, d_in), w=block(d, d), w_out=block(d_out, d),
            b_out=block(d_out), b_mod=block(d))
    params.check()
    return params, seed
