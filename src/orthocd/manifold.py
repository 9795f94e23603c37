"""Geometry of the orthogonal group O(d) under the Frobenius metric.

A point is a d x d matrix W with W^T W = I.  The tangent space at W is
{W @ Omega : Omega skew-symmetric}, a linear space of dimension
D = d(d-1)/2.  An orthonormal basis of the skew-symmetric matrices is

    H[j,l] = (e_j e_l^T - e_l e_j^T) / sqrt(2),   1 <= j < l <= d,

and eta_i = W @ H[j,l] is the corresponding orthonormal tangent basis at
W.  Basis elements are enumerated row-major over pairs (j, l):

    i = sum_{k=1}^{j-1} (d - k) + (l - j),   i in {1, ..., D}.

Coordinate indices i and column indices (j, l) are 1-based throughout the
public API; columns of numpy arrays are addressed 0-based internally.

Moving along a single basis direction has a closed form: the geodesic
Exp_W(theta * eta_i) right-multiplies W by a planar rotation of the
column pair (j, l).  Because H carries the 1/sqrt(2) normalization, a
coordinate step of size theta rotates the plane by theta / sqrt(2).
`givens_update` implements that rotation touching only the two affected
columns (about 6d flops), and is exactly `exp_map` restricted to one
coordinate; the equivalence is part of the test suite.

All computations are in float64.  Functions are pure unless an explicit
`out=` argument requests in-place mutation; they keep no counters.

Geometry functions take and return plain float64 arrays.  Invariants
are checked at the trust boundary, W^T W = I when a checkpoint is saved
or loaded (`rnn.RnnParams.check`), and by the tests.  The checks left
here guard one call's own input: `matrix_expm` rejects a non-skew
matrix by one rule, SKEW_TOL, and through it `exp_map` a non-tangent
xi.

Thread policy.  Every product of this module runs on numpy's one
OpenBLAS pool; `matrix_expm` is numpy products too (scaling and squaring
with a Taylor polynomial, no linear solve), so the package loads no
second BLAS, whose idle workers would spin and take CPUs from numpy's.
numpy's pool is held at one thread by `rnn` for the length of a small
BPTT, and by `optim.GradPack` for its sum of S's squares, and given
back its count on return (`orthocd.blas.held_threads`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "all_partials",
    "antisym",
    "coord_index",
    "coord_pair",
    "exp_map",
    "givens_update",
    "matrix_expm",
    "num_coords",
    "orthogonality_defect",
    "partial_derivative",
    "random_orthogonal",
    "skew_grad",
    "skew_partials",
]

_SQRT2 = math.sqrt(2.0)

ORTHOGONALITY_TOL = 1e-8
SKEW_TOL = 1e-10  # the one skew check, matrix_expm's (exp_map's through it)
SKEW_BLOCKED_MIN_D = 512  # tiled from this width: see _with_transpose, antisym
_TILE = 128  # the tiles' side


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def orthogonality_defect(w: np.ndarray) -> float:
    """Frobenius norm of W^T W - I, with I subtracted in place on the
    diagonal of W^T W (no d x d identity); x - 0.0 is x, so the result
    is bitwise that of W^T W - np.eye(d)."""
    w = _check_square(w)
    gram = w.T @ w
    gram.flat[::w.shape[0] + 1] -= 1.0
    return float(np.linalg.norm(gram))


def _check_square(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {w.shape}")
    return w


# ---------------------------------------------------------------------------
# coordinate indexing
# ---------------------------------------------------------------------------

def num_coords(d: int) -> int:
    """Dimension D = d(d-1)/2 of the tangent space."""
    if d < 1:
        raise ValueError("d must be positive")
    return d * (d - 1) // 2


def coord_index(j: int, l: int, d: int) -> int:
    """Map a column pair 1 <= j < l <= d to its coordinate i in {1..D}."""
    if not (1 <= j < l <= d):
        raise ValueError(f"need 1 <= j < l <= d, got (j, l, d) = ({j}, {l}, {d})")
    return (j - 1) * d - j * (j - 1) // 2 + (l - j)


def coord_pair(i: int, d: int) -> tuple[int, int]:
    """Inverse of coord_index: coordinate i in {1..D} to its pair (j, l)."""
    D = num_coords(d)
    if not (1 <= i <= D):
        raise ValueError(f"coordinate {i} out of range 1..{D} for d={d}")
    # counted from the last coordinate, k = D - i lies in the r-th row
    # from the bottom, r(r+1)/2 <= k < (r+1)(r+2)/2, solved exactly by isqrt
    k = D - i
    r = (math.isqrt(8 * k + 1) - 1) // 2
    return d - 1 - r, d - (k - r * (r + 1) // 2)


# ---------------------------------------------------------------------------
# partial derivatives
# ---------------------------------------------------------------------------

def partial_derivative(w: np.ndarray, g: np.ndarray, i: int) -> float:
    """Riemannian partial derivative along eta_i from the Euclidean
    gradient G, in O(d):

        v_i = ((W^T G)[j,l] - (W^T G)[l,j]) / sqrt(2)
            = (W[:,j].G[:,l] - W[:,l].G[:,j]) / sqrt(2)

    Only columns j and l of W and G are read.
    """
    d = w.shape[0]
    j, l = coord_pair(i, d)
    j0, l0 = j - 1, l - 1
    v = (w[:, j0] @ g[:, l0] - w[:, l0] @ g[:, j0]) / _SQRT2
    return float(v)


@functools.cache
def _triu_flat(d: int) -> np.ndarray:
    """Flat row-major offsets j0 * d + l0 of the strict upper triangle
    of a d x d array, in row-major order: coordinate i sits at offset
    flat[i-1].  Every caller shares the cached array, so it is
    read-only."""
    rows, cols = np.triu_indices(d, k=1)
    flat = rows * d + cols
    flat.flags.writeable = False
    return flat


def _with_transpose(op: np.ufunc, a: np.ndarray) -> np.ndarray:
    """op(a, a.T) for an elementwise ufunc, bitwise, in O(d^2).  From
    SKEW_BLOCKED_MIN_D up it is formed in square tiles: a strided
    transpose of the whole matrix misses cache on every read (a - a.T
    at d=1024 on 2 vCPUs: 18 -> 9 ms); below that width the one-shot
    form is faster."""
    d = a.shape[0]
    if d < SKEW_BLOCKED_MIN_D:
        return op(a, a.T)
    out = np.empty_like(a)
    for r in range(0, d, _TILE):
        for c in range(0, d, _TILE):
            op(a[r:r + _TILE, c:c + _TILE], a[c:c + _TILE, r:r + _TILE].T,
               out=out[r:r + _TILE, c:c + _TILE])
    return out


def antisym(a: np.ndarray) -> np.ndarray:
    """S = a - a.T written over a and returned, bitwise, in O(d^2): S
    from A = W^T G, when a caller (BPTT, see `rnn.Grads`) has A
    without forming the product.  a must be the caller's own; it is S
    afterwards, so the caller holds one d x d array, not two.

    From SKEW_BLOCKED_MIN_D up it walks the tile pairs (r, c), r <= c,
    through one tile buffer: S[r,c] = A[r,c] - A[c,r]^T into the
    buffer, A[c,r] -= A[r,c]^T in place (numpy copies the one tile
    A[r,c]^T, as the two share a base), the buffer back into [r,c]; at
    d=1024 on 2 vCPUs that took 3.2 ms against 8.9 ms for the one-shot
    form below.  Below that width a contiguous copy of a.T is
    subtracted, since there the walk's per-tile work costs more than
    its cache reuse saves: 0.6 against 6.3 us at d=16, 3.6 against
    9.5 us at d=64, 364 against 544 us at d=511 (the greedy step
    handed G, `skew_grad`, reads it at d=16 and 64 in tens of us).
    Each entry is the one subtraction of a - a.T, so the bits, signed
    zeros and NaN included, are the same.
    """
    d = a.shape[0]
    if d < SKEW_BLOCKED_MIN_D:
        return np.subtract(a, a.T.copy(), out=a)
    buf = np.empty((_TILE, _TILE))
    for r in range(0, d, _TILE):
        for c in range(r, d, _TILE):
            upper = a[r:r + _TILE, c:c + _TILE]
            lower = a[c:c + _TILE, r:r + _TILE]
            tile = np.subtract(upper, lower.T, out=buf[:len(upper), :len(lower)])
            if c != r:
                lower -= upper.T
            upper[...] = tile
    return a


def skew_grad(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """S = A - A^T with A = W^T G, one d^3 product.

    S carries everything a step on W reads from the Euclidean gradient
    G: the Riemannian gradient is W S/2, partial i = (j, l) is
    S[j,l]/sqrt(2), and the squared Riemannian gradient norm is
    ||S||_F^2/4.  S is exactly antisymmetric, S^T == -S bitwise.
    Given A itself, antisym(A) is the same S without the product.
    S is formed over the product the call owns, so it holds one d x d
    array.
    """
    w = _check_square(w)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != w.shape:
        raise ValueError(f"shape mismatch: W is {w.shape}, G is {g.shape}")
    return antisym(w.T @ g)


def skew_partials(s: np.ndarray) -> np.ndarray:
    """All D partials from S = skew_grad(W, G), coordinate i at
    position i-1: the row-major upper triangle of S/sqrt(2), which
    matches the coord_index enumeration.  The triangle is gathered by
    one cached flat index, `s.ravel().take(flat)`: the entries a
    (rows, cols) pair picks, in 40% of its time at d=16 on 2 vCPUs
    (0.9-1.0 against 2.5-2.7 us)."""
    return s.ravel().take(_triu_flat(s.shape[0])) / _SQRT2


def all_partials(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """All D Riemannian partial derivatives as a vector, coordinate i at
    position i-1: skew_partials(skew_grad(W, G)), about 2d^3 + d^2.
    """
    return skew_partials(skew_grad(w, g))


# ---------------------------------------------------------------------------
# exponential map and Givens shortcut
# ---------------------------------------------------------------------------

# Taylor degrees m for scaling and squaring, as (m, theta_m, p): theta_m
# is the largest double eta with eta^(m+1)/(m+1)! / (1 - eta/(m+2)) <=
# 2^-53, a bound on the series' tail past degree m at ||S||_1 <= eta, and
# N, ..., N^p are the powers of N = S S^T that degree m forms
_TAYLOR = (
    (3, 0.00022719587095773583, 1),
    (5, 0.006562297263423305, 2),
    (7, 0.0381185112040249, 3),
    (9, 0.11483164143919657, 4),
    (13, 0.4374476207831936, 3),
    (17, 0.9783369874771111, 4),
)
# S^2k = (-1)^k N^k for skew S, so exp(S) = sum_k EVEN[k] N^k
# + S sum_k ODD[k] N^k with EVEN[k] = (-1)^k/(2k)!, ODD[k] = (-1)^k/(2k+1)!,
# truncated at degree m by k <= m // 2 (8 at the top degree 17)
_EVEN = tuple((-1) ** k / math.factorial(2 * k) for k in range(9))
_ODD = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(9))
# each squaring doubles the orthogonality defect left before it: j of
# them leave about 2^j sqrt(d) 2^-55 (measured, d = 6 to 1024), so 20 keep
# it under ORTHOGONALITY_TOL to d ~ 10^5; ||S||_1 <= 10 needs at most 4
_MAX_SQUARINGS = 20


def _poly(c: tuple, powers: list[np.ndarray]) -> np.ndarray:
    """sum_k c[k] N^k from powers = [N, ..., N^p] by Paterson-Stockmeyer:
    Horner in N^p over blocks of p coefficients, the top block running
    up to N^p itself, so a degree of at most 2p takes one product."""
    p = len(powers)
    acc = None
    for j in range((len(c) - 2) // p * p, -1, -p):
        if acc is None:
            acc = c[j + 1] * powers[0]
            terms = zip(c[j + 2:], powers[1:])
        else:
            acc = powers[-1] @ acc
            terms = zip(c[j + 1:j + p], powers)
        for coeff, power in terms:
            acc += coeff * power
        acc.reshape(-1)[:: acc.shape[0] + 1] += c[j]
    return acc


def _expm_skew(s: np.ndarray) -> np.ndarray:
    """expm(S) for an exactly skew S by its Taylor polynomial of degree
    m: the smallest m in _TAYLOR whose theta_m bounds ||S||_1, else
    degree 17 on S / 2^j with j the fewest halvings to theta_17, squared
    j times.  No linear solve: every step is a numpy product, so all of
    it runs on numpy's BLAS.

    The even part is a polynomial in the Gram product N = S S^T, and
    N^2k = N^k (N^k)^T, so each even power is a SYRK and each odd one a
    GEMM; with both parts evaluated, S times the odd part is the last
    product (m = 3: N and that product; m = 7: N, N^2, N^3 and it).
    A non-finite S, or one that needs more than _MAX_SQUARINGS
    squarings (||S||_1 > theta_17 2^20, about 1e6), gives NaN
    throughout."""
    norm = float(np.abs(s).sum(axis=0).max(initial=0.0))
    squarings = 0
    for m, theta, p in _TAYLOR:
        if norm <= theta:
            break
    else:
        if not norm <= theta * 2.0 ** _MAX_SQUARINGS:  # NaN fails it too
            return np.full_like(s, np.nan)
        squarings = math.ceil(math.log2(norm / theta))
        s = s * 2.0 ** -squarings
    powers = [s @ s.T]
    for k in range(2, p + 1):  # N^k = N^(k//2) (N^(k - k//2))^T
        powers.append(powers[k // 2 - 1] @ powers[k - k // 2 - 1].T)
    r = _poly(_EVEN[:m // 2 + 1], powers)
    r += s @ _poly(_ODD[:m // 2 + 1], powers)
    for _ in range(squarings):
        r = r @ r
    return r


def matrix_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a skew-symmetric matrix.

    Rejects inputs whose symmetric part exceeds SKEW_TOL in Frobenius
    norm.  A non-zero defect within it is repaired to the exactly skew
    (A - A^T)/2; an exactly skew A goes on as given.  The Taylor core
    (`_expm_skew`) then scales and squares with a polynomial of degree
    at most 17, matrix products only; the test suite validates it
    against an independent truncated-Taylor oracle that neither scales
    nor squares.
    """
    a = _check_square(a)
    defect = float(np.linalg.norm(_with_transpose(np.add, a)))
    if defect > SKEW_TOL:
        raise ValueError(f"input not skew-symmetric: ||A + A^T||_F = {defect:.3e}")
    if defect:
        a = _with_transpose(np.subtract, a)
        a /= 2.0
    return _expm_skew(a)


def exp_map(w: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Geodesic step Exp_W(xi) = W @ expm(W^T xi); `matrix_expm`
    refuses an xi that is not tangent at W."""
    w = _check_square(w)
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape != w.shape:
        raise ValueError(f"shape mismatch: W is {w.shape}, xi is {xi.shape}")
    return w @ matrix_expm(w.T @ xi)


def givens_update(
    w: np.ndarray,
    i: int,
    theta: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Coordinate geodesic step: exactly exp_map(W, theta * eta_i), as a
    planar rotation of columns j and l by angle theta / sqrt(2).

    Cost is about 6d flops and only the two columns are read or
    written.  With `out=None` the remaining columns are copied into a
    fresh array; pass `out=w` to update W in place (the optimizer hot
    path, keeping the O(d) per-step cost real).
    """
    w = np.asarray(w, dtype=np.float64)
    d = w.shape[0]
    j, l = coord_pair(i, d)
    j0, l0 = j - 1, l - 1
    ang = theta / _SQRT2
    c = math.cos(ang)
    s = math.sin(ang)
    wj = w[:, j0].copy()
    wl = w[:, l0].copy()
    if out is None:
        out = w.copy()
    elif out is not w:
        out[...] = w
    # right-multiplication by the rotation with entries
    # [jj, jl; lj, ll] = [cos, sin; -sin, cos]
    out[:, j0] = c * wj - s * wl
    out[:, l0] = s * wj + c * wl
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random orthogonal matrix: Q of a standard normal
    A = QR with the signs of diag(R) fixed to +1 (a zero counts as +1),
    which makes the factor unique."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
