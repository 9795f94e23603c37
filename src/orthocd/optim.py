"""Stochastic Riemannian optimizers on O(d).

Both algorithms share the update for the unconstrained blocks,
X <- X - alpha * g_X.  They differ on the orthogonal block:

  srgd_step: full tangent step, W <- Exp_W(-alpha * P(g_W)), one matrix
      exponential per iteration (O(d^3));
  srcd_step: one (or a block of) Riemannian partial derivative(s)
      theta_i = <P(g_W), eta_i>, applied as Givens column rotations,
      W <- givens_update(W, i, -alpha * theta_i) (O(d) per coordinate).

Coordinate choice is uniform i.i.d., Gauss-Southwell (largest
|partial|), or block Gauss-Southwell over column-disjoint pairs.  Every
coordinate step moves W by Givens rotations alone, never through a
matrix exponential.  A plain Euclidean `sgd_step` (no orthogonality
enforcement) is included as the unconstrained baseline.

Every step on O(d) reads S = W^T G - G^T W: srgd uses S/2, the uniform
step reads theta = S[j,l]/sqrt(2) alone, O(1), and the greedy rules
read |S|/sqrt(2) in row tiles, never as a whole second d x d array,
one pass and then per pick only the rows the pick stales, with
theta = S[j,l]/sqrt(2) at each (Gauss-Southwell is block
Gauss-Southwell with one pick; see _greedy_pairs).  A GradPack carries
G or S, never both.  The train loop hands S: BPTT returns
A = W^T G (`rnn.Grads`), and S = manifold.antisym(A) costs O(d^2),
formed over A, so no d^3 product is paid outside BPTT.  Handed G, a
step forms S = manifold.skew_grad(W, G) (2d^3), except the uniform
step, which reads two columns of W and G, O(d).

OPTIMIZERS is the one table of the training optimizers: each name maps
to its SelectionRule kind, None for srgd.  `step` takes a state to
srgd_step or srcd_step by its rule, reading both names at call time.
`sgd` is not in the table: its W leaves O(d), so it never trains;
`analysis.bench_update` times it as a baseline, and it needs G.

SyntheticProblem is the convergence harness's quadratic.  Its
`evaluate` forms the residuals once and returns the loss, the exact
squared gradient norm and the gradient the step is handed, so the
harness pays one objective evaluation per iteration; `loss`,
`grad_norm_sq` and `grads` give the same values one at a time.  The
oracle noise is drawn for a block of iterations at once (`noise`,
one `normal` call per NOISE_BLOCK_BYTES), from the same stream and in
the same order as one `grads(rng=...)` call per iteration draws it,
and `evaluate` adds one iteration's pair.

States mutate their parameter arrays in place and are single-owner;
a step returns the alpha it took.  Making a GradPack raises
NumericError on non-finite gradients (G, S and every X block), and
the steps scan nothing more: the uniform step stays O(d).  A step
refuses a bundle that does not fit its state (ValueError), and a
finite bundle can still make a non-finite S or angle (G near the
largest double, or alpha * S overflowing), so each step forms its W
move first and checks the S and angles it formed; a refused step
moves neither X nor W, nor counts.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import blas, manifold

_SQRT2 = math.sqrt(2.0)
# bytes of |S|/sqrt(2) that the greedy selector holds at once: S's rows
# are read in tiles of this size (see _greedy_pairs)
SELECT_TILE_BYTES = 1 << 19
# bytes of synthetic-oracle noise drawn in one `normal` call: whole
# iterations' rows, at least one (see SyntheticProblem.noise)
NOISE_BLOCK_BYTES = 1 << 17

__all__ = [
    "GradPack",
    "NumericError",
    "OPTIMIZERS",
    "OptimizerState",
    "SelectionRule",
    "StepSchedule",
    "SyntheticProblem",
    "schedule_step",
    "sgd_step",
    "srcd_step",
    "srgd_step",
    "step",
]


class NumericError(RuntimeError):
    """Raised when a step encounters non-finite values."""


@dataclass(frozen=True)
class StepSchedule:
    """Stepsize sequence: fixed alpha0, or polynomial decay
    alpha0 / (1 + k/k0)^p.

    With robbins_monro=True the schedule must be polynomial with
    p in (0.5, 1], which makes sum(alpha) diverge while sum(alpha^2)
    converges (any offset k0 > 0 preserves both).
    """

    kind: str = "fixed"
    alpha0: float = 2e-4
    power: float = 1.0
    offset: float = 1.0  # k0
    robbins_monro: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "polynomial"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (self.alpha0 > 0 and math.isfinite(self.alpha0)):
            raise ValueError(f"alpha0 must be positive, got {self.alpha0}")
        if not (self.offset > 0 and math.isfinite(self.offset)):
            raise ValueError(f"offset k0 must be positive and finite, got {self.offset}")
        if not math.isfinite(self.power):
            raise ValueError(f"power must be finite, got {self.power}")
        if self.kind == "polynomial" and self.power <= 0:
            raise ValueError(f"power must be positive, got {self.power}")
        if self.robbins_monro:
            if self.kind != "polynomial":
                raise ValueError("robbins_monro requires a polynomial schedule")
            if not (0.5 < self.power <= 1.0):
                raise ValueError(
                    f"robbins_monro requires power in (0.5, 1], got {self.power}")


def schedule_step(schedule: StepSchedule, k: int) -> float:
    if k < 0:
        raise ValueError("iteration index must be >= 0")
    if schedule.kind == "fixed":
        return schedule.alpha0
    return schedule.alpha0 / (1.0 + k / schedule.offset) ** schedule.power


@dataclass(frozen=True)
class SelectionRule:
    kind: str = "uniform"
    block_fraction: float = 0.005  # block_gs only

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "gauss_southwell", "block_gs"):
            raise ValueError(f"unknown selection rule {self.kind!r}")
        if not (0.0 < self.block_fraction <= 1.0):
            raise ValueError(f"block_fraction must be in (0, 1], got {self.block_fraction}")

    def block_size(self, n_coords: int) -> int:
        return max(1, round(self.block_fraction * n_coords))


@dataclass(frozen=True)
class GradPack:
    """Gradient bundle for the generic steps: the orthogonal block's
    gradient as G or S, exactly one of them, plus named unconstrained
    blocks.  `skew` is S = W^T G - G^T W at the W the step will update;
    handed G (`w`) instead, a step forms what it needs of S.  `sgd_step`
    needs `w`.

    Making a bundle checks it once, one sum of squares per block; where
    a sum is not finite the exact entrywise test decides, so NaN or
    +-inf raises NumericError and huge finite entries pass.  An S
    bundle keeps `norm_sq` = ||S||_F^2/4 + the X sums, the squared
    Riemannian gradient norm (None for G: it needs W).  ||S||_F^2 is
    summed with numpy's BLAS held at one thread, since OpenBLAS splits
    a long dot product across its threads (above 10 000 entries) and
    the split sum rounds otherwise; `train` records norm_sq, so its
    bits do not depend on the thread count.  A G bundle's sum is only
    a finiteness check and runs unheld.  It is frozen;
    the steps scan nothing.  An S of another dtype is kept as its
    float64 copy, the one dtype the steps read S in.
    """

    w: np.ndarray | None = None
    x: dict[str, np.ndarray] = field(default_factory=dict)
    skew: np.ndarray | None = None
    norm_sq: float | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        w, skew = self.w, self.skew
        if (w is None) == (skew is None):
            raise ValueError("a GradPack carries G or S, exactly one of them")
        if skew is not None:  # the same array when it is float64 already
            skew = np.asarray(skew, dtype=np.float64)
            object.__setattr__(self, "skew", skew)
        if skew is None:  # only a finiteness check
            w_sq = _checked(np.vdot(w, w), w, "w")
        else:  # norm_sq: one thread, so its bits do not depend on the count
            with blas.held_threads():
                w_sq = _checked(np.vdot(skew, skew), skew, "skew")
        # (g * g).sum() is np.sum(g * g), one add.reduce, without np.sum's dispatch
        x_sq = sum([_checked((g * g).sum(), g, name) for name, g in self.x.items()])
        if skew is not None:  # ||grad_W||^2 = ||S||_F^2 / 4
            object.__setattr__(self, "norm_sq", w_sq / 4.0 + x_sq)


def _checked(sq, g: np.ndarray, name: str) -> float:
    # a sum of squares is finite only if every entry is; an inf sum may
    # be an overflow of huge finite entries, so the entrywise test decides
    if not math.isfinite(sq) and not np.isfinite(g).all():
        raise NumericError(f"non-finite entries in the {name!r} gradient")
    return float(sq)


@dataclass
class OptimizerState:
    """Single-owner optimizer state.

    `w` and the arrays in `x` are mutated in place, so a state built
    with for_rnn() updates the RnnParams it was built from.  `rng`
    drives uniform coordinate selection only.  No step reorthogonalizes:
    Givens and expm products leave O(d) only by rounding, and a
    checkpoint save checks W's defect.
    """

    w: np.ndarray
    x: dict[str, np.ndarray]
    schedule: StepSchedule
    rule: SelectionRule | None = None
    k: int = 0
    rng: np.random.Generator | None = None
    # only because perfbench/worker.py passes reorth_every=None; goes
    # with that line in the next benchmark change (ROADMAP item 1)
    reorth_every: None = None
    last_coords: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.reorth_every is not None:
            raise ValueError("reorth_every is retired: no step reorthogonalizes")

    @classmethod
    def for_rnn(cls, params, schedule: StepSchedule,
                rule: SelectionRule | None = None,
                seed: int | None = None) -> "OptimizerState":
        return cls(w=params.w, x=params.x_blocks(), schedule=schedule,
                   rule=rule, rng=np.random.default_rng(seed))


def _check_fit(state: OptimizerState, grads: GradPack) -> None:
    """ValueError unless the W gradient has W's shape and the X blocks
    are the state's, by name and by shape."""
    g = grads.w if grads.skew is None else grads.skew
    blocks = grads.x
    if g.shape != state.w.shape or blocks.keys() != state.x.keys():
        raise ValueError("the gradient bundle's shapes or X names do not fit the state")
    for name, arr in state.x.items():  # a loop: half the cost of any() here
        if blocks[name].shape != arr.shape:
            raise ValueError(f"X gradient {name!r} of shape {blocks[name].shape} "
                             f"for a block of shape {arr.shape}")


def _skew(w: np.ndarray, grads: GradPack) -> np.ndarray:
    """S = W^T G - G^T W: the bundle's, or formed here."""
    return manifold.skew_grad(w, grads.w) if grads.skew is None else grads.skew


def _greedy_pairs(skew: np.ndarray, n: int) -> list[tuple[int, int]]:
    """The 0-based column pairs of min(n, d // 2) greedy coordinates
    sharing no column: each is argmax_i |skew_partials(S)_i| over the
    coordinates that no earlier pick touches, ties to the smallest i.

    Each pick is the first row-major maximum of |S|/sqrt(2) with the
    rows and columns of the earlier picks masked to -1: |S|/sqrt(2)
    holds the partials' magnitudes bitwise (dividing first keeps ties
    that the division's rounding makes), and with the masks the matrix
    stays symmetric, so that maximum lies in the upper triangle, in
    coordinate order.  A finite S's diagonal is 0, so it wins only a
    tie at 0, where every unmasked entry is zero too: then the pick is
    the first unmasked off-diagonal entry of that row, and an all-zero
    S gives coordinate 1 first.  argmax takes the first NaN, on the
    diagonal too, and the step refuses its angle.

    |S|/sqrt(2) is held SELECT_TILE_BYTES at a time, never whole
    (unless that is all of it): up to d = 256, one tile is the masked
    matrix, one argmax of it per pick; wider, S is read in row tiles
    for each row's maximum and its column, and after each pick only
    the unmasked rows whose maximum sat in a column just masked are
    read again, since masking lowers entries and so moves no other
    row's first maximum.
    """
    d = skew.shape[0]
    n = min(n, d // 2)
    rows = SELECT_TILE_BYTES // (8 * d)
    if rows >= d:
        return _masked_picks(_magnitudes(skew, np.empty((d, d))), n)
    return _row_max_picks(skew, n, rows)


def _magnitudes(s_rows: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """|S|/sqrt(2) of some rows of S, in the leading rows of buf."""
    mags = np.abs(s_rows, out=buf[:len(s_rows)])
    mags /= _SQRT2
    return mags


def _masked_picks(mags: np.ndarray, n: int) -> list[tuple[int, int]]:
    """n picks from the whole |S|/sqrt(2), masked in place."""
    d = mags.shape[0]
    pairs: list[tuple[int, int]] = []
    for _ in range(n):
        if pairs:
            r, c = pairs[-1]
            mags[r] = mags[c] = mags[:, r] = mags[:, c] = -1.0
        r, c = divmod(int(mags.argmax()), d)
        if r == c and mags[r, c] == 0.0:
            mags.reshape(-1)[:: d + 1] = -1.0
            r, c = divmod(int(mags.argmax()), d)
        pairs.append((r, c))
    return pairs


def _row_max_picks(skew: np.ndarray, n: int, rows: int) -> list[tuple[int, int]]:
    """n picks from each row's maximum of |S|/sqrt(2) (`top`) and its
    first column (`col`), S read `rows` rows at a time; a masked row's
    `col` is -1, so no masked column matches it."""
    d = skew.shape[0]
    buf = np.empty((rows, d))
    top, col = np.empty(d), np.empty(d, dtype=np.intp)
    for r0 in range(0, d, rows):
        mags = _magnitudes(skew[r0:r0 + rows], buf)
        at = col[r0:r0 + len(mags)] = mags.argmax(axis=1)
        top[r0:r0 + len(mags)] = mags[np.arange(len(mags)), at]
    masked = np.zeros(d, dtype=bool)
    pairs: list[tuple[int, int]] = []
    for _ in range(n):
        if pairs:
            r, c = pairs[-1]
            masked[r] = masked[c] = True
            top[r] = top[c] = -1.0
            col[r] = col[c] = -1
            stale = np.flatnonzero((col == r) | (col == c))
            for k in range(0, stale.size, rows):
                sub = stale[k:k + rows]
                # mode="clip" writes straight into out; "raise" buffers it
                mags = _magnitudes(
                    np.take(skew, sub, axis=0, out=buf[:len(sub)], mode="clip"), buf)
                mags[:, masked] = -1.0
                at = col[sub] = mags.argmax(axis=1)
                top[sub] = mags[np.arange(len(sub)), at]
        r = int(top.argmax())
        c = int(col[r])
        if r == c and top[r] == 0.0:
            # r is the first unmasked row and column, and every unmasked
            # entry is zero: the next unmasked column
            c = int(np.flatnonzero(~masked)[1])
        pairs.append((r, c))
    return pairs


def _update_x(state: OptimizerState, grads, alpha: float) -> None:
    # identical unconstrained update in every optimizer, shared on purpose
    blocks = grads.x
    for name, arr in state.x.items():
        arr -= alpha * blocks[name]


def sgd_step(state: OptimizerState, grads: GradPack) -> float:
    """Euclidean SGD on all blocks; W leaves the manifold (baseline).
    Needs the Euclidean gradient G in `grads.w`.  Returns alpha."""
    if grads.w is None:
        raise ValueError("sgd_step needs the Euclidean W gradient")
    _check_fit(state, grads)
    alpha = schedule_step(state.schedule, state.k)
    _update_x(state, grads, alpha)
    state.w -= alpha * grads.w
    state.k += 1
    return alpha


def srgd_step(state: OptimizerState, grads: GradPack) -> float:
    """Full Riemannian step: W <- Exp_W(-alpha * P(g_W)); returns alpha.

    Exp_W(W S) = W expm(S) for skew S, so the update multiplies W by
    expm(-alpha * skew(W^T g_W)) directly.  That argument is exactly
    skew, so `matrix_expm` takes it to its Taylor core as given.
    """
    _check_fit(state, grads)
    alpha = schedule_step(state.schedule, state.k)
    w = state.w
    rot = manifold.matrix_expm(_skew(w, grads) * (-alpha / 2.0))
    # NaN if S or alpha * S overflows, or if it needs more squarings
    # than keep W on O(d) (||alpha S / 2||_1 past about 1e6); one sum of
    # squares sees it
    if not math.isfinite(np.vdot(rot, rot)):
        raise NumericError("the step's expm(-alpha * S / 2) is not finite")
    _update_x(state, grads, alpha)
    w[...] = w @ rot
    state.k += 1
    return alpha


def srcd_step(state: OptimizerState, grads: GradPack) -> float:
    """Coordinate step per the state's rule, returning alpha: check the
    bundle fits, pick, check every angle, update X, rotate W's pairs.

    The uniform rule draws one coordinate i.i.d. from {1, ..., D} and
    reads its partial alone, S[j,l]/sqrt(2) from an S bundle and two
    columns of W and G from a G bundle: its whole W path is O(d).
    Gauss-Southwell takes one greedy pick from S, block Gauss-Southwell
    rule.block_size(D).
    """
    if state.rule is None:
        raise ValueError("srcd_step needs a SelectionRule on the state")
    _check_fit(state, grads)
    alpha = schedule_step(state.schedule, state.k)
    w = state.w
    d = w.shape[0]
    n_coords = manifold.num_coords(d)
    if n_coords < 1:
        raise ValueError(f"a coordinate step needs d >= 2, got d = {d}")
    rule = state.rule
    if rule.kind == "uniform":
        if state.rng is None:
            raise ValueError("uniform selection needs an rng on the state")
        i = int(state.rng.integers(1, n_coords + 1))
        if grads.skew is None:
            theta = manifold.partial_derivative(w, grads.w, i)
        else:
            j, l = manifold.coord_pair(i, d)
            theta = float(grads.skew[j - 1, l - 1]) / _SQRT2
        coords, angles = (i,), [-alpha * theta]
    else:  # the picks share no column, so their rotations commute
        skew = _skew(w, grads)
        n = 1 if rule.kind == "gauss_southwell" else rule.block_size(n_coords)
        pairs = _greedy_pairs(skew, n)
        angles = [-alpha * (skew[r, c] / _SQRT2) for r, c in pairs]
        # mapped once the angles pass: a NaN pick may sit on the diagonal
        coords = (manifold.coord_index(r + 1, c + 1, d) for r, c in pairs)
    if not all(map(math.isfinite, angles)):
        raise NumericError("the step forms a non-finite angle")
    coords = tuple(coords)
    _update_x(state, grads, alpha)
    for i, angle in zip(coords, angles):
        manifold.givens_update(w, i, angle, out=w)
    state.last_coords = coords
    state.k += 1
    return alpha


OPTIMIZERS: dict[str, str | None] = {
    "srgd": None,
    "srcd-u": "uniform",
    "srcd-gs": "gauss_southwell",
    "srcd-block-gs": "block_gs",
}


def step(state: OptimizerState, grads: GradPack) -> float:
    """srgd_step without a SelectionRule, else srcd_step; returns alpha."""
    if state.rule is None:
        return srgd_step(state, grads)
    return srcd_step(state, grads)


# ---------------------------------------------------------------------------
# synthetic problem for the convergence harness
# ---------------------------------------------------------------------------

@dataclass
class SyntheticProblem:
    """f(X, W) = 0.5*||W A - B||_F^2 + 0.5*||X - C||_F^2 with B = Q A
    for an orthogonal Q, so the W part has a known minimizer and the
    whole objective is quadratic: L-smooth with
    L = max(sigma_max(A)^2, 1).

    The stochastic gradient oracle returns the exact Euclidean gradient
    plus i.i.d. N(0, noise_std^2) entries.  After tangent projection
    the W noise keeps mean zero and per-coordinate variance noise_std^2,
    so the standard stochastic-approximation assumptions hold by
    construction (unbiased, bounded second moment).

    The convergence harness calls `evaluate` once per iteration, which
    forms W A - B, X - C and G = (W A - B) A^T a single time, and takes
    each iteration's noise from `noise`, which draws it in blocks of
    iterations; `grads(rng=...)` draws one iteration's noise per call
    and is the reference the block draws are tested against.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    q: np.ndarray
    noise_std: float = 0.0

    @classmethod
    def make(cls, d: int, x_shape: tuple[int, int] = (4, 4),
             noise_std: float = 0.0, seed: int = 0) -> "SyntheticProblem":
        rng = np.random.default_rng(seed)
        # well-conditioned A with sigma_max = 1, so L = 1
        u = manifold.random_orthogonal(d, rng)
        v = manifold.random_orthogonal(d, rng)
        svals = np.linspace(0.5, 1.0, d)
        a = u @ np.diag(svals) @ v.T
        q = manifold.random_orthogonal(d, rng)
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        c = rng.standard_normal(x_shape)
        return cls(a=a, b=q @ a, c=c, q=q, noise_std=noise_std)

    @property
    def d(self) -> int:
        return self.a.shape[0]

    def init(self, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(self.c.shape)
        w0 = manifold.random_orthogonal(self.d, rng)
        if np.linalg.det(w0) < 0:
            w0[:, 0] = -w0[:, 0]
        return x0, w0

    def loss(self, x: np.ndarray, w: np.ndarray) -> float:
        return 0.5 * float(np.linalg.norm(w @ self.a - self.b) ** 2
                           + np.linalg.norm(x - self.c) ** 2)

    def grads(self, x: np.ndarray, w: np.ndarray,
              rng: np.random.Generator | None = None) -> GradPack:
        """Euclidean gradients; pass an rng to add the noise."""
        g_w = (w @ self.a - self.b) @ self.a.T
        g_x = x - self.c
        if rng is not None and self.noise_std > 0.0:
            g_w = g_w + rng.normal(0.0, self.noise_std, size=g_w.shape)
            g_x = g_x + rng.normal(0.0, self.noise_std, size=g_x.shape)
        return GradPack(w=g_w, x={"x": g_x})

    def grad_norm_sq(self, x: np.ndarray, w: np.ndarray) -> float:
        """Exact squared Riemannian gradient norm ||g_X||^2 + ||g_W||^2,
        the quantity whose weighted average the convergence guarantee
        bounds (W part via Parseval over the coordinate partials)."""
        g_w = (w @ self.a - self.b) @ self.a.T
        v = manifold.all_partials(w, g_w)
        return float(np.linalg.norm(x - self.c) ** 2 + v @ v)

    def noise(self, n: int, rng: np.random.Generator | None
              ) -> Iterator[tuple[np.ndarray, np.ndarray] | None]:
        """The oracle noise of n iterations for `evaluate`, one
        (e_W, e_X) pair per iteration, or None each when `grads` would
        add none (no rng, or noise_std not > 0), with no draw.

        Row k of a draw is iteration k's W block, then its X block: the
        numbers n calls of `grads(rng=rng)` draw, in the same order,
        and the rng ends where those calls leave it.  One
        `rng.normal(0, noise_std, (m, d^2 + X.size))` call draws m rows,
        NOISE_BLOCK_BYTES of them but at least one (60 at d=16 with a
        4 x 4 X, one from d=128 up), and no draw runs past iteration n.
        Each pair is a view of its row of the draw.
        """
        if rng is None or not self.noise_std > 0.0:
            yield from itertools.repeat(None, n)
            return
        d2, width = self.a.size, self.a.size + self.c.size
        rows = max(1, NOISE_BLOCK_BYTES // (8 * width))
        for k0 in range(0, n, rows):
            block = rng.normal(0.0, self.noise_std, (min(rows, n - k0), width))
            yield from zip(block[:, :d2].reshape(-1, *self.a.shape),
                           block[:, d2:].reshape(-1, *self.c.shape))

    def evaluate(self, x: np.ndarray, w: np.ndarray,
                 noise: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[float, float, GradPack]:
        """(loss, grad_norm_sq, grads) at (x, w), bitwise those methods'
        values, from one W A - B, X - C and G; `noise` is one pair from
        `noise`, (e_W, e_X), added to G and g_X, so grads is then
        bitwise `grads(rng=...)` at the same draws.

        W A - B is formed in place, and each squared norm is
        np.sqrt(f.dot(f)) ** 2 on the flattened array, the arithmetic
        of np.linalg.norm(f) ** 2 without its call."""
        r_w = w @ self.a
        r_w -= self.b
        g_w = r_w @ self.a.T
        g_x = x - self.c
        f = g_x.ravel("K")
        x_sq = np.sqrt(f.dot(f)) ** 2
        v = manifold.all_partials(w, g_w)
        f = r_w.ravel("K")
        loss = 0.5 * float(np.sqrt(f.dot(f)) ** 2 + x_sq)
        gnormsq = float(x_sq + v @ v)
        if noise is not None:
            e_w, e_x = noise
            g_w += e_w
            g_x += e_x
        return loss, gnormsq, GradPack(w=g_w, x={"x": g_x})

    def state(self, schedule: StepSchedule,
              rule: SelectionRule | None = None,
              seed: int = 0) -> OptimizerState:
        x0, w0 = self.init(seed)
        return OptimizerState(w=w0, x={"x": x0}, schedule=schedule, rule=rule,
                              rng=np.random.default_rng(seed + 1))
