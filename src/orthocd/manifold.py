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
`out=` argument requests in-place mutation; they keep no counters (the
analytic flop count of each optimizer's W update is in
`optim.OPTIMIZERS`).

Geometry functions take and return plain float64 arrays.  Invariants
are checked at the trust boundary, W^T W = I when a checkpoint is saved
or loaded (`rnn.RnnParams.check`), and by the tests.  The checks left
here guard one call's own input: `exp_map` rejects a non-tangent xi,
`matrix_expm` a non-skew matrix and `reorthogonalize` a gross defect.

Thread policy.  Every product of this module runs on numpy's one
OpenBLAS pool; `matrix_expm` is numpy code too (scaling and squaring
with a Pade approximant, Higham 2005), so the package loads no second
BLAS.  Two copies in one process fight: the idle workers of one pool
spin after a call and take CPUs from the other's next call (perfbench's
dense step at d=1024 on 2 vCPUs: median 391 ms with expm in scipy's
copy, 225 ms all in numpy's).  numpy's pool is held at one thread by `rnn`
for the length of a small BPTT, and given back its count on return
(`orthocd.blas.held_threads`).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "all_partials",
    "antisym",
    "basis_tangent",
    "coord_index",
    "coord_pair",
    "exp_map",
    "givens_update",
    "matrix_expm",
    "num_coords",
    "orthogonality_defect",
    "partial_derivative",
    "random_orthogonal",
    "reorthogonalize",
    "skew_grad",
    "skew_partials",
    "tangent_project",
]

_SQRT2 = math.sqrt(2.0)

ORTHOGONALITY_TOL = 1e-8
SKEW_BLOCKED_MIN_D = 512  # tiled a - a.T from this width: see antisym


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def orthogonality_defect(w: np.ndarray) -> float:
    """Frobenius norm of W^T W - I."""
    w = np.asarray(w, dtype=np.float64)
    d = w.shape[0]
    return float(np.linalg.norm(w.T @ w - np.eye(d)))


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
    # 0-based row a solves a*d - a(a+1)/2 <= i-1 < (a+1)*d - (a+1)(a+2)/2;
    # the quadratic is solved exactly with integer isqrt, then clamped
    i0 = i - 1
    a = (2 * d - 1 - math.isqrt((2 * d - 1) ** 2 - 8 * i0)) // 2
    while a * d - a * (a + 1) // 2 > i0:
        a -= 1
    while (a + 1) * d - (a + 1) * (a + 2) // 2 <= i0:
        a += 1
    b = i0 - (a * d - a * (a + 1) // 2) + a + 1
    return a + 1, b + 1


def basis_tangent(w: np.ndarray, i: int) -> np.ndarray:
    """Dense tangent basis element eta_i = W @ H[j,l] at W.

    Only columns j and l of the result are nonzero:
    eta[:, l] = W[:, j]/sqrt(2) and eta[:, j] = -W[:, l]/sqrt(2).
    Intended for tests; O(d^2) allocation.
    """
    w = _check_square(w)
    d = w.shape[0]
    j, l = coord_pair(i, d)
    eta = np.zeros_like(w)
    eta[:, l - 1] = w[:, j - 1] / _SQRT2
    eta[:, j - 1] = -w[:, l - 1] / _SQRT2
    return eta


# ---------------------------------------------------------------------------
# projection and partial derivatives
# ---------------------------------------------------------------------------

def tangent_project(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Orthogonal projection of an ambient matrix M onto the tangent
    space at W:  P(M) = W (W^T M - M^T W) / 2."""
    w = _check_square(w)
    m = np.asarray(m, dtype=np.float64)
    if m.shape != w.shape:
        raise ValueError(f"shape mismatch: W is {w.shape}, M is {m.shape}")
    a = w.T @ m
    return w @ ((a - a.T) / 2.0)


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
def _triu_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (rows, cols) of the strict upper triangle in row-major
    order: coordinate i is the pair (rows[i-1] + 1, cols[i-1] + 1).
    Every caller shares the cached arrays, so they are read-only."""
    rows, cols = np.triu_indices(d, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


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
    tile = 128
    for r in range(0, d, tile):
        for c in range(0, d, tile):
            op(a[r:r + tile, c:c + tile], a[c:c + tile, r:r + tile].T,
               out=out[r:r + tile, c:c + tile])
    return out


def antisym(a: np.ndarray) -> np.ndarray:
    """a - a.T, bitwise, in O(d^2): S from A = W^T G, when a caller
    (BPTT, see `rnn.Grads`) has A without forming the product.  Tiled
    from SKEW_BLOCKED_MIN_D up (`_with_transpose`)."""
    return _with_transpose(np.subtract, a)


def skew_grad(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """S = A - A^T with A = W^T G, one d^3 product.

    S carries everything a step on W reads from the Euclidean gradient
    G: the Riemannian gradient is W S/2, partial i = (j, l) is
    S[j,l]/sqrt(2), and the squared Riemannian gradient norm is
    ||S||_F^2/4.  S is exactly antisymmetric, S^T == -S bitwise.
    Given A itself, antisym(A) is the same S without the product.
    """
    w = _check_square(w)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != w.shape:
        raise ValueError(f"shape mismatch: W is {w.shape}, G is {g.shape}")
    return antisym(w.T @ g)


def skew_partials(s: np.ndarray) -> np.ndarray:
    """All D partials from S = skew_grad(W, G), coordinate i at
    position i-1: the row-major upper triangle of S/sqrt(2), which
    matches the coord_index enumeration."""
    rows, cols = _triu_indices(s.shape[0])
    return s[rows, cols] / _SQRT2


def all_partials(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """All D Riemannian partial derivatives as a vector, coordinate i at
    position i-1: skew_partials(skew_grad(W, G)), about 2d^3 + d^2.
    """
    return skew_partials(skew_grad(w, g))


# ---------------------------------------------------------------------------
# exponential map and Givens shortcut
# ---------------------------------------------------------------------------

# Pade approximants r_m = q_m(A)^-1 p_m(A) of degree m for scaling and
# squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005), as
# (m, theta_m, (b_0, ..., b_m)): theta_m bounds the ||A||_1 at which r_m
# is exp to double precision, b_k are p_m's coefficients, q_m(A) = p_m(-A)
_PADE_TABLE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0,
                               25200.0, 1512.0, 56.0, 1.0)),
    (9, 2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0,
                              302702400.0, 30270240.0, 2162160.0, 110880.0,
                              3960.0, 90.0, 1.0)),
    (13, 5.371920351148152e0, (64764752532480000.0, 32382376266240000.0,
                               7771770303897600.0, 1187353796428800.0,
                               129060195264000.0, 10559470521600.0,
                               670442572800.0, 33522128640.0, 1323241920.0,
                               40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
)


def _signed(coeffs: tuple) -> tuple:
    """(c_0, c_1, ...) -> (c_0, -c_1, c_2, ...)."""
    return tuple(-c if k % 2 else c for k, c in enumerate(coeffs))


# (m, theta_m, even, odd): with N = S S^T = -S^2 for skew S, S^2k is
# (-1)^k N^k, so p_m(S) = sum_k even[k] N^k + S sum_k odd[k] N^k with
# even[k] = (-1)^k b_2k and odd[k] = (-1)^k b_2k+1
_PADE = tuple((m, theta, _signed(b[0::2]), _signed(b[1::2]))
              for m, theta, b in _PADE_TABLE)


def _comb(coeffs, powers: list[np.ndarray]) -> np.ndarray:
    """sum_k coeffs[k] powers[k] over the shorter of the two, fresh."""
    out = coeffs[0] * powers[0]
    for c, p in zip(coeffs[1:], powers[1:]):
        out += c * p
    return out


def _add_eye(x: np.ndarray, c: float) -> np.ndarray:
    """x + c I, in place on the diagonal."""
    x.reshape(-1)[:: x.shape[0] + 1] += c
    return x


def _expm_skew(s: np.ndarray) -> np.ndarray:
    """expm(S) for an exactly skew S: the smallest degree m in 3, 5, 7, 9
    whose theta_m bounds ||S||_1, else degree 13 on S / 2^j with j the
    fewest halvings to theta_13, squared j times.  Numpy products only,
    so all of it runs on numpy's BLAS.

    Skew S makes the even part V of p_m(S) symmetric and the odd part U
    skew, so q_m(S) = V - U = q and p_m(S) = q^T: the approximant is one
    solve(q, q^T).  N = S S^T and N^2 = N N^T are Gram products (SYRK).
    A non-finite S gives NaN throughout."""
    norm = float(np.abs(s).sum(axis=0).max(initial=0.0))
    for m, theta, even, odd in _PADE:
        if norm <= theta:
            break
    squarings = 0
    if m == 13:
        if not math.isfinite(norm):
            return np.full_like(s, np.nan)
        squarings = max(0, math.ceil(math.log2(norm / theta)))
        s = s * 2.0 ** -squarings
    n = s @ s.T
    powers = [n]
    if m > 3:
        powers.append(n @ n.T)
    if m > 5:
        powers.append(powers[1] @ n)
    if m == 9:
        powers.append(powers[1] @ powers[1].T)
    if m < 13:
        u, q = _comb(odd[1:], powers), _comb(even[1:], powers)
    else:  # N^3 (c_4 N + c_5 N^2 + c_6 N^3) + c_1 N + c_2 N^2 + c_3 N^3
        u = powers[2] @ _comb(odd[4:], powers) + _comb(odd[1:4], powers)
        q = powers[2] @ _comb(even[4:], powers) + _comb(even[1:4], powers)
    u = s @ _add_eye(u, odd[0])
    q = _add_eye(q, even[0])
    q -= u
    r = np.linalg.solve(q, q.T)
    for _ in range(squarings):
        r = r @ r
    return r


def _skew_part(a: np.ndarray) -> tuple[float, np.ndarray]:
    """||A + A^T||_F and (A - A^T)/2, the exactly skew part (A itself,
    bitwise, when A is skew), both through the tiled transpose."""
    defect = float(np.linalg.norm(_with_transpose(np.add, a)))
    s = _with_transpose(np.subtract, a)
    s /= 2.0
    return defect, s


def matrix_expm(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Matrix exponential of a skew-symmetric matrix.

    Rejects inputs whose symmetric part exceeds `tol` in Frobenius
    norm, then exponentiates the exactly skew (A - A^T)/2 by scaling
    and squaring with a Pade approximant (`_expm_skew`); the test suite
    validates it against an independent truncated-Taylor oracle.
    """
    defect, s = _skew_part(_check_square(a))
    if defect > tol:
        raise ValueError(f"input not skew-symmetric: ||A + A^T||_F = {defect:.3e}")
    return _expm_skew(s)


def exp_map(w: np.ndarray, xi: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Geodesic step Exp_W(xi) = W @ expm(W^T xi).

    Tangency of `xi` at W is validated: a defect above
    tol * max(1, ||xi||) raises.  That check is stricter than
    `matrix_expm`'s, so the exactly skew part of W^T xi goes to the Pade
    core directly.
    """
    w = _check_square(w)
    xi = np.asarray(xi, dtype=np.float64)
    if xi.shape != w.shape:
        raise ValueError(f"shape mismatch: W is {w.shape}, xi is {xi.shape}")
    defect, omega = _skew_part(w.T @ xi)
    scale = max(1.0, float(np.linalg.norm(xi)))
    if defect > tol * scale:
        raise ValueError(
            f"xi is not tangent at W: ||W^T xi + (W^T xi)^T||_F = {defect:.3e}"
        )
    return w @ _expm_skew(omega)


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
# repair and sampling
# ---------------------------------------------------------------------------

def _qr_sign_fixed(a: np.ndarray) -> np.ndarray:
    """Q of a = QR with the signs of diag(R) fixed to +1 (a zero counts
    as +1), which makes the factor unique."""
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def reorthogonalize(w: np.ndarray) -> np.ndarray:
    """Repair accumulated drift: QR with the sign of diag(R) fixed to +1
    (making the factor unique), then Newton-Schulz polish iterations
    until the defect reaches 1e-14 or the f64 floor for that dimension.

    Inputs with defect above 0.5 signal upstream corruption and raise.
    """
    w = _check_square(w)
    d = w.shape[0]
    defect = orthogonality_defect(w)
    if defect > 0.5:
        raise ValueError(
            f"gross non-orthogonality (defect {defect:.3e} > 0.5); refusing to repair"
        )
    q = _qr_sign_fixed(w)
    eye = np.eye(d)
    for _ in range(2):
        if orthogonality_defect(q) <= 1e-14:
            break
        q = q @ (1.5 * eye - 0.5 * (q.T @ q))
    return q


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random orthogonal matrix (QR with sign fix)."""
    return _qr_sign_fixed(rng.standard_normal((d, d)))
