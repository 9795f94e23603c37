"""Minimal recurrent network with an orthogonal recurrence.

    h(t) = phi(W_in x(t) + W h(t-1)),    h(-1) = 0,    y(t) = W_out h(t) + b_out,

with phi the modReLU activation (Arjovsky, Shah & Bengio, ICML 2016):
the one model the package trains.  `backward` accumulates exact BPTT
gradients for every parameter block.  For W it returns A = W^T G, G the
raw Euclidean gradient: every step on O(d) reads S = A - A^T (see
`manifold`), and the reverse loop yields A for the cost of the dW
product it replaces, so no caller pays a d^3 product W^T G.

The public API is batch-first and takes no other form: inputs
(B, T, d_in), logits (B, T, d_out), targets and masks (B, T),
ForwardTrace fields (B, T, .); a 2D input raises ValueError.  Inside,
one recurrence (`_recur`) runs time-major on contiguous (T, B, .)
arrays, so every per-step slice is contiguous; the trace fields are
transposed views of them.  It streams over chunks of CHUNK_ROWS
(step, batch) rows: each chunk's input projection, modReLU steps and
logits run while its states are still in cache.  The step and logits
products are per step and the projection is row by row the same GEMM,
so the outputs do not depend on the chunks (a chunk of one row, B = 1,
is the exception: numpy runs it as a matrix-vector product, which
rounds differently).

Memory.  `forward` stores hidden states and logits.  `logits` runs
the same evaluation, bitwise, but holds one chunk of hidden states:
beside its (T, B, d_out) result it keeps no (T, B, .) array.
`backward` stores the hidden states and logits of the forward pass
and a fixed chunk of CHUNK_ROWS rows for its reverse sweep, so its
memory peak is about one (T, B, d) float64 array plus that chunk, two
such arrays when T*B fits in one chunk.  Those two come from a
`Workspace`, which the caller owns: `train` makes one per run, every
iteration's `backward` reuses it, and it is dropped when the loop
ends, before the eval pass, so the peak does not grow.  `forward` and
`logits` always make a throwaway workspace, and so does `backward`
when it is handed none (the one-off probes of `sparsity`).  Fresh
arrays cost page faults: at the desk preset each is 1.8 MB, which
glibc serves with a new mmap and unmaps on free, so the kernel mapped
their pages in again on every iteration, 38,043 minor faults per
40-iteration `train` command against 1,139 with the workspace (warm
process, `ru_minflt`).  mallopt or GLIBC_TUNABLES could keep the pages
mapped too, but they act on the whole process and on glibc alone.

`loss` and `backward` share one softmax cross-entropy.  All math is in
float64 and every function here is deterministic, so a fixed seed
reproduces runs bitwise at fixed BLAS thread counts: a product large
enough to keep its threads may round differently at another count.

modReLU step.  `_recur` writes sign(pre) into a (B, d) scratch buffer
and multiplies it by the magnitude into `pre`, because on numpy 2.4.6
an in-place np.sign over float64 is 6-8x slower than one into a
separate array (per call on fresh random data, 2 vCPUs: 170 -> 21 us
at (B, d) = (128, 190), 14 -> 2.3 us at (32, 64)).  np.copysign
would need no buffer, but where a preactivation is exactly 0 and
b_mod > 0 it gives +-b instead of modReLU's 0.

Thread policy.  As everywhere in the package (see `orthocd.blas`),
numpy's OpenBLAS copy is held at one thread for the length of a small
call, then given back its count.  Here `forward`, `logits` and
`backward` hold it when the A product, T*B*d*d multiply-adds, is below
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
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import blas, manifold

__all__ = [
    "ForwardTrace",
    "Grads",
    "RnnParams",
    "Workspace",
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
CHUNK_ROWS = 4096  # (step, batch) rows per chunk of the recurrence and of BPTT's sweep


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

    def check(self) -> None:
        """Trust-boundary check, run on checkpoint save and load: d >= 2
        (d = 1 has no coordinate), shapes agree, every entry is finite and
        ||W^T W - I||_F <= ORTHOGONALITY_TOL (`not <=`: a NaN defect fails)."""
        d, d_in, d_out = self.d, self.d_in, self.d_out
        if d < 2:
            raise ValueError(f"d must be >= 2, got {d}")
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
    logits: np.ndarray  # (B, T, d_out)


@dataclass
class Grads:
    """Euclidean gradients of the unconstrained blocks, same shapes as
    RnnParams, and A = W^T G for the orthogonal one, where G sums
    dL/dpre(t)^T h(t-1) over the steps with h(-1) = 0.

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


class Workspace:
    """Named float64 buffers that `backward` reuses across calls, the
    hidden states (`hidden`) and the sweep's chunk (`chunk`), each
    reallocated only when the shape asked for changes and written
    before it is read.  Its maker owns it: see the module docstring."""

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The buffer `name`, uninitialised, of the given shape."""
        buf = self.buffers.get(name)
        if buf is None or buf.shape != shape:
            self.buffers.pop(name, None)  # freed before its successor is made
            buf = self.buffers[name] = np.empty(shape)
        return buf


def modrelu(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sign(x) * max(|x| + b, 0), with 0 at x = 0 (sign(0) = 0)."""
    return np.sign(x) * np.maximum(np.abs(x) + b, 0.0)


def _as_batched(arr: np.ndarray, name: str, last: str) -> np.ndarray:
    """`arr` as float64; it must be batch-first (B, T, `last`)."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must be (B, T, {last}), got shape {arr.shape}")
    return arr


def _thread_policy(params: RnnParams, bsz: int, steps: int):
    """numpy's OpenBLAS at one thread for a small BPTT (see the module
    docstring); a no-op context otherwise."""
    if steps * bsz * params.d ** 2 >= BPTT_THREADED_MIN_WORK:
        return contextlib.nullcontext()
    return blas.held_threads()


def _span(steps: int, bsz: int) -> int:
    """Steps per chunk of CHUNK_ROWS (step, batch) rows: at least 1, at
    most T."""
    return max(1, min(steps, CHUNK_ROWS // max(bsz, 1)))


def _recur(
    params: RnnParams,
    inputs: np.ndarray,
    keep_hidden: bool,
    work: Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """The recurrence, time-major, from h(-1) = 0, and its logits.

    Takes batch-first inputs (B, T, d_in) and returns (hidden, logits),
    contiguous (T, B, d) and (T, B, d_out) arrays.  It runs over chunks
    of `_span(T, B)` steps, first to last.  Per chunk: one GEMM writes
    W_in x(t) from a time-major copy of the chunk's inputs; each step
    adds W h(t-1), formed into a (B, d) scratch at the end of the step
    before, and applies modReLU in place; a (span, B, d) @ (d, d_out)
    matmul, one product per step, writes the chunk's logits while its
    states are in cache.  b_out is added once.  Without `keep_hidden`,
    one (span, B, d) buffer serves every chunk and is what `hidden`
    returns; the scratch carries h into the next chunk.  `hidden` is
    `work`'s buffer of that name; the logits are always fresh.
    """
    bsz, steps, d_in = inputs.shape
    if d_in != params.d_in:
        raise ValueError(f"input feature dim {d_in} != params d_in {params.d_in}")
    d = params.d
    span = _span(steps, bsz)
    hidden = work.take("hidden", (steps if keep_hidden else span, bsz, d))
    out = np.empty((steps, bsz, params.d_out))
    w_t, w_in_t, w_out_t = params.w.T, params.w_in.T, params.w_out.T
    b_mod = np.empty((bsz, d))  # adding a (B, d) array is ~2x faster than a (d,) one
    b_mod[...] = params.b_mod
    prod = np.empty((bsz, d))  # W h(t-1)
    mag = np.empty((bsz, d))
    sgn = np.empty((bsz, d))  # np.sign in place is slow: module docstring
    for t0 in range(0, steps, span):
        t1 = min(steps, t0 + span)
        chunk = hidden[t0:t1] if keep_hidden else hidden[:t1 - t0]
        x = np.ascontiguousarray(inputs[:, t0:t1].transpose(1, 0, 2))
        np.matmul(x.reshape(-1, d_in), w_in_t, out=chunk.reshape(-1, d))
        for t, pre in enumerate(chunk, t0):
            if t:
                pre += prod
            np.abs(pre, out=mag)  # modrelu(pre, b_mod), into pre
            mag += b_mod
            np.maximum(mag, 0.0, out=mag)
            np.sign(pre, out=sgn)
            np.multiply(sgn, mag, out=pre)
            if t + 1 < steps:
                np.matmul(pre, w_t, out=prod)
        np.matmul(chunk, w_out_t, out=out[t0:t1])
    out += params.b_out
    return hidden, out


def _evaluate(
    params: RnnParams,
    inputs: np.ndarray,
    keep_hidden: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """(hidden, logits), time-major: the one evaluation behind `forward`
    and `logits`.  Without `keep_hidden` no (T, B, d) array is kept, and
    `hidden` is the last chunk's buffer."""
    inputs = _as_batched(inputs, "inputs", "d_in")
    bsz, steps, _ = inputs.shape
    with _thread_policy(params, bsz, steps):
        return _recur(params, inputs, keep_hidden, Workspace())


def forward(params: RnnParams, inputs: np.ndarray) -> ForwardTrace:
    """Run the recurrence from h(-1) = 0 over a batch of sequences
    (B, T, d_in).  The trace fields are (B, T, .) views of time-major
    arrays."""
    hidden, out = _evaluate(params, inputs, keep_hidden=True)
    return ForwardTrace(hidden=hidden.transpose(1, 0, 2),
                        logits=out.transpose(1, 0, 2))


def logits(params: RnnParams, inputs: np.ndarray) -> np.ndarray:
    """The (B, T, d_out) logits of `forward`, bitwise, holding one chunk
    of hidden states at a time (a (B, T, d_out) view of a time-major
    array)."""
    return _evaluate(params, inputs, keep_hidden=False)[1].transpose(1, 0, 2)


def _check_targets(
    targets: np.ndarray,
    shape: tuple[int, ...],
    n_classes: int,
) -> np.ndarray:
    targets = np.asarray(targets)
    if targets.shape != shape:
        raise ValueError(f"targets shape {targets.shape} != {shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ValueError(f"target class out of range [0, {n_classes})")
    return targets


def _resolve_mask(mask: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    if mask is None:
        return np.ones(shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape} != {shape}")
    return mask


def _xent(
    logits: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray,
    count: int,
) -> tuple[float, np.ndarray, np.ndarray]:
    """The one softmax cross-entropy: (value, ez, sez), value the mean
    of lse - picked over the `count` > 0 masked positions, ez =
    exp(logits - max) and sez its sum over the classes (keepdims).
    Log-sum-exp uses max-subtraction; exp runs in place on logits - m."""
    m = logits.max(axis=-1, keepdims=True)
    ez = logits - m
    np.exp(ez, out=ez)
    sez = ez.sum(axis=-1, keepdims=True)
    lse = np.log(sez[..., 0]) + m[..., 0]
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return float((lse - picked)[mask].sum() / count), ez, sez


def loss(
    logits: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray | None = None,
) -> float:
    """Softmax cross-entropy of (B, T, d_out) logits, averaged over the
    masked (batch, step) positions.  An all-false mask gives a constant
    loss, defined as 0."""
    logits = _as_batched(logits, "logits", "d_out")
    targets = _check_targets(targets, logits.shape[:-1], logits.shape[-1])
    mask = _resolve_mask(mask, logits.shape[:-1])
    count = int(mask.sum())
    return _xent(logits, targets, mask, count)[0] if count else 0.0


def _loss_and_dlogits(
    logits: np.ndarray,
    targets: np.ndarray,
    mask: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Loss plus its gradient (softmax - onehot) * mask / count."""
    count = int(mask.sum())
    if count == 0:
        return 0.0, np.zeros_like(logits)
    value, dlogits, sez = _xent(logits, targets, mask, count)
    dlogits /= sez  # softmax
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
    work: Workspace | None = None,
) -> tuple[float, Grads]:
    """Forward pass from h(-1) = 0 plus exact reverse-mode accumulation
    through time, over batch-first inputs (B, T, d_in) with (B, T)
    targets and mask.

    Returns (loss, Grads).  The modReLU subgradient is 0 both at the
    kink |x| + b = 0 and at x = 0.

    Only the hidden states are kept from the forward pass: modReLU's
    output h is nonzero exactly where its subgradient is 1, and there
    sign(h) = sign(pre).  The reverse loop does the elementwise work
    step by step and forms carry(t) = dL/dpre(t) W, the term it passes
    to step t-1.  It runs over chunks of span = CHUNK_ROWS // B steps
    (at least 1, at most T), the last steps first, in one (span, B, d)
    buffer.  Per chunk, one GEMM writes dL/dh_out(t) into the buffer
    (the sweep's only such site; at t = 0 it reads dlogits last and frees
    it), each step adds carry(t+1), zero past T, in one np.add and writes
    carry(t) over its row, and the chunk's shares of A = W^T dW =
    sum_t carry(t)^T h(t-1) and of dW_in = W (C^T X) (since dL/dpre(t) =
    carry(t) W^T) are formed from it.  The carry of a chunk's first step
    passes to the next chunk in one (B, d) copy.
    The first chunk's shares are A and dW_in and later ones are added
    to them, so a T*B that fits in one chunk runs the same GEMMs, and
    allocates the same arrays, as an unchunked sweep.

    The hidden states and the chunk buffer come from `work`, a
    `Workspace` the caller keeps across calls; None makes a throwaway
    one, so the call allocates both afresh.  Every returned array is
    fresh either way: none shares memory with the workspace.
    """
    inputs = _as_batched(inputs, "inputs", "d_in")
    bsz, steps, _ = inputs.shape
    with _thread_policy(params, bsz, steps):
        return _backward(params, inputs, targets, mask,
                         Workspace() if work is None else work)


def _backward(params, inputs, targets, mask, work) -> tuple[float, Grads]:
    bsz, steps, _ = inputs.shape
    targets = _check_targets(targets, (bsz, steps), params.d_out)
    mask = _resolve_mask(mask, (bsz, steps))
    hidden, logits = _recur(params, inputs, True, work)
    # the loss over (B, T) views, so its summation order is batch-first
    value, dlogits = _loss_and_dlogits(logits.transpose(1, 0, 2), targets, mask)
    del logits
    dlogits = dlogits.transpose(1, 0, 2)  # time-major, as the logits

    d, d_in, d_out = params.d, params.d_in, params.d_out
    rows = steps * bsz
    flat_dlogits = dlogits.reshape(rows, d_out)
    g_w_out = flat_dlogits.T @ hidden.reshape(rows, d)
    g_b_out = flat_dlogits.sum(axis=0)
    span = _span(steps, bsz)
    buf = work.take("chunk", (span, bsz, d))  # dL/dh_out(t), then carry(t) = dL/dpre(t) W
    b_mod = np.zeros((bsz, d))
    sgn = np.empty((bsz, d))
    dh = np.zeros((bsz, d))  # carry(T) = 0, then the carry into each chunk
    g_w_in = a = None  # the first chunk's products, then sums
    for t1 in range(steps, 0, -span):  # chunks [t0, t1), the last first
        t0 = max(0, t1 - span)
        chunk = buf[:t1 - t0]
        np.matmul(flat_dlogits[t0 * bsz:t1 * bsz], params.w_out,
                  out=chunk.reshape(-1, d))
        if t0 == 0:  # dlogits is read for the last time
            del dlogits, flat_dlogits
        for t in range(t1 - 1, t0 - 1, -1):
            i = t - t0  # dh = dL/dh_out(t) + carry(t+1)
            np.add(chunk[i], chunk[i + 1] if i + 1 < len(chunk) else dh, out=dh)
            np.sign(hidden[t], out=sgn)
            dh *= sgn             # dL/dpre * sign(pre) where active
            b_mod += dh
            dh *= sgn             # dL/dpre: sign^2 is the active mask
            np.matmul(dh, params.w, out=chunk[i])
        dh[...] = chunk[0]
        # dW_in = W (C^T X); A = W^T dW = sum_t carry(t)^T h(t-1), and
        # h(-1) = 0 drops t = 0
        s = 1 if t0 == 0 else 0
        x = np.ascontiguousarray(inputs[:, t0:t1].transpose(1, 0, 2))
        part_w_in = params.w @ (chunk.reshape(-1, d).T @ x.reshape(-1, d_in))
        part_a = chunk[s:].reshape(-1, d).T @ hidden[t0 + s - 1:t1 - 1].reshape(-1, d)
        if a is None:
            g_w_in, a = part_w_in, part_a
        else:
            g_w_in += part_w_in
            a += part_a
    if a is None:  # no steps
        g_w_in, a = np.zeros((d, d_in)), np.zeros((d, d))
    grads = Grads(
        w_in=g_w_in,
        a=a,
        w_out=g_w_out,
        b_out=g_b_out,
        b_mod=b_mod.sum(axis=0),
    )
    return value, grads


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def cayley_block_init(d: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal W0 = (I + A)^-1 (I - A), A block-diagonal with 2x2
    skew blocks [[0, s], [-s, 0]], s ~ Uniform[-pi, pi] per block, the
    d/2 angles drawn from `rng` in one call.

    The transform of a block is [[1-s^2, -2s], [2s, 1-s^2]] / (1+s^2),
    so W0 is written in closed form with O(d) arithmetic, not a d x d
    solve; the tests compare it with the linear-solve transform.
    """
    if d % 2 != 0:
        raise ValueError(f"cayley_block_init needs even d, got {d}")
    angles = rng.uniform(-np.pi, np.pi, size=d // 2)
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
    w = cayley_block_init(d, rng)
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
    """Read a `save_checkpoint` file.  Its length must be the one the
    header's (d, d_in, d_out) lay out, counted in Python ints, so a
    truncated file, trailing bytes or a header claiming huge blocks
    raise ValueError before any block is read."""
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
        shapes = ((d, d_in), (d, d), (d_out, d), (d_out,), (d,))  # RnnParams' order
        want = 29 + 8 * sum(math.prod(shape) for shape in shapes)
        size = os.fstat(fh.fileno()).st_size
        if size != want:
            kind = "truncated checkpoint" if size < want else "trailing bytes in checkpoint"
            raise ValueError(f"{kind}: {size} bytes, its header lays out {want}")
        params = RnnParams(*(
            np.frombuffer(fh.read(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
            for shape in shapes))
    params.check()
    return params, seed
