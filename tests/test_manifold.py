import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from orthocd import blas
from orthocd import manifold as mf

from oracles import (
    basis_tangent,
    dense_projection,
    dense_rotation,
    pairwise_partials,
    taylor_expm,
)

SQRT2 = math.sqrt(2.0)


def random_w(d, seed=0):
    return mf.random_orthogonal(d, np.random.default_rng(seed))


def project(w, m):
    # the tangent projection P(M) = W skew(W^T M) = W S/2, S = skew_grad(W, M)
    return w @ mf.skew_grad(w, m) / 2


# ---------------------------------------------------------------------------
# coordinate indexing
# ---------------------------------------------------------------------------

def test_num_coords_values():
    # frozen: D = d(d-1)/2
    assert mf.num_coords(2) == 1
    assert mf.num_coords(3) == 3
    assert mf.num_coords(4) == 6
    assert mf.num_coords(10) == 45
    assert mf.num_coords(190) == 17955
    with pytest.raises(ValueError):
        mf.num_coords(0)


def test_coord_index_frozen_examples():
    # row-major pair order for d=4: (1,2),(1,3),(1,4),(2,3),(2,4),(3,4)
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for i, (j, l) in enumerate(pairs, start=1):
        assert mf.coord_index(j, l, 4) == i
        assert mf.coord_pair(i, 4) == (j, l)


@pytest.mark.parametrize("d", [2, 3, 4, 7, 10, 33, 190])
def test_coord_round_trip_exhaustive(d):
    n = mf.num_coords(d)
    seen = set()
    for i in range(1, n + 1):
        j, l = mf.coord_pair(i, d)
        assert 1 <= j < l <= d
        assert mf.coord_index(j, l, d) == i
        seen.add((j, l))
    assert len(seen) == n


@pytest.mark.parametrize("d", [2**16, 10**6])
def test_coord_pair_boundaries_at_large_d(d):
    # the first and last coordinate overall, and of rows near the top,
    # middle and bottom, each round-trips through coord_index
    n = mf.num_coords(d)
    assert mf.coord_pair(1, d) == (1, 2)
    assert mf.coord_pair(n, d) == (d - 1, d)
    for j in (1, 2, 3, d // 2, d - 3, d - 2, d - 1):
        first = mf.coord_index(j, j + 1, d)
        last = mf.coord_index(j, d, d)
        assert last - first == d - j - 1
        assert mf.coord_pair(first, d) == (j, j + 1)
        assert mf.coord_pair(last, d) == (j, d)
        if j > 1:
            assert mf.coord_pair(first - 1, d) == (j - 1, d)


def test_coord_order_matches_triu():
    d = 12
    rows, cols = np.triu_indices(d, k=1)
    for i, (j0, l0) in enumerate(zip(rows, cols), start=1):
        assert mf.coord_pair(i, d) == (j0 + 1, l0 + 1)


def test_coord_range_validation():
    with pytest.raises(ValueError):
        mf.coord_pair(0, 5)
    with pytest.raises(ValueError):
        mf.coord_pair(11, 5)  # D = 10 for d = 5
    with pytest.raises(ValueError):
        mf.coord_index(3, 3, 5)
    with pytest.raises(ValueError):
        mf.coord_index(4, 2, 5)


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_basis_orthonormal_exhaustive():
    d = 8
    w = random_w(d, seed=3)
    n = mf.num_coords(d)
    etas = [basis_tangent(w, i) for i in range(1, n + 1)]
    for a in range(n):
        for b in range(a, n):
            want = 1.0 if a == b else 0.0
            assert abs(np.vdot(etas[a], etas[b]) - want) <= 1e-12


# ---------------------------------------------------------------------------
# projection and partials
# ---------------------------------------------------------------------------

def test_projection_matches_dense_formula():
    rng = np.random.default_rng(7)
    for d in (3, 8, 21):
        w = mf.random_orthogonal(d, rng)
        m = rng.standard_normal((d, d))
        p = project(w, m)
        assert np.allclose(p, dense_projection(w, m), atol=1e-13)


def test_projection_idempotent_and_fixes_tangents():
    rng = np.random.default_rng(8)
    d = 14
    w = mf.random_orthogonal(d, rng)
    m = rng.standard_normal((d, d))
    p1 = project(w, m)
    p2 = project(w, p1)
    assert np.linalg.norm(p2 - p1) <= 1e-12 * max(1, np.linalg.norm(p1))
    eta = basis_tangent(w, 5)
    assert np.allclose(project(w, eta), eta, atol=1e-14)


def test_projection_self_adjoint():
    rng = np.random.default_rng(9)
    d = 11
    w = mf.random_orthogonal(d, rng)
    m = rng.standard_normal((d, d))
    n = rng.standard_normal((d, d))
    lhs = float(np.vdot(project(w, m), n))
    rhs = float(np.vdot(m, project(w, n)))
    assert abs(lhs - rhs) <= 1e-10


def test_partial_derivative_matches_dense_inner_product():
    rng = np.random.default_rng(10)
    d = 13
    w = mf.random_orthogonal(d, rng)
    g = rng.standard_normal((d, d))
    oracle = pairwise_partials(w, g)
    for i in (1, 7, 40, mf.num_coords(d)):
        assert mf.partial_derivative(w, g, i) == pytest.approx(oracle[i - 1], abs=1e-12)


def test_all_partials_matches_pairwise_oracle():
    rng = np.random.default_rng(11)
    for d in (3, 10, 30):
        w = mf.random_orthogonal(d, rng)
        g = rng.standard_normal((d, d))
        v = mf.all_partials(w, g)
        assert v.shape == (mf.num_coords(d),)
        assert np.allclose(v, pairwise_partials(w, g), atol=1e-12)


def test_parseval_norm_identity():
    rng = np.random.default_rng(12)
    d = 60
    w = mf.random_orthogonal(d, rng)
    g = rng.standard_normal((d, d))
    v = mf.all_partials(w, g)
    proj_norm = np.linalg.norm(project(w, g))
    assert abs(np.linalg.norm(v) - proj_norm) <= 1e-10 * proj_norm


def test_partials_of_tangent_recover_coefficients():
    # v built from known coefficients comes back exactly
    rng = np.random.default_rng(13)
    d = 7
    w = mf.random_orthogonal(d, rng)
    coeffs = rng.standard_normal(mf.num_coords(d))
    xi = sum(c * basis_tangent(w, i + 1) for i, c in enumerate(coeffs))
    assert np.allclose(mf.all_partials(w, xi), coeffs, atol=1e-13)


# ---------------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------------

def test_matrix_expm_matches_taylor_oracle():
    rng = np.random.default_rng(14)
    for d in (2, 6, 25, 40):
        a = rng.standard_normal((d, d))
        s = (a - a.T) / 2.0
        s *= 1.5 / max(1.0, np.linalg.norm(s))  # keep the series in range
        got = mf.matrix_expm(s)
        want = taylor_expm(s)
        assert np.linalg.norm(got - want) <= 1e-13 * max(1.0, np.linalg.norm(want))
        # result is orthogonal
        assert mf.orthogonality_defect(got) <= 1e-13


def test_matrix_expm_rejects_non_skew():
    with pytest.raises(ValueError):
        mf.matrix_expm(np.eye(3))


# theta_m of the Pade degrees m = 3, 5, 7, 9, 13 that matrix_expm once used
# (Higham 2005); their norms stay cases of the test below
_PADE_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
               2.097847961257068e0, 5.371920351148152e0)
# ||S||_1 just inside theta_m of every Taylor rung, then past the top rung
# with one squaring and with two; then 0.9 theta_m of each Pade degree and
# 1.1 and 2.5 theta_13 (13.4)
_TOP_THETA = mf._TAYLOR[-1][1]
_EXPM_NORMS = ([0.99 * theta for _, theta, _ in mf._TAYLOR]
               + [1.9 * _TOP_THETA, 3.9 * _TOP_THETA]
               + [0.9 * theta for theta in _PADE_THETA]
               + [1.1 * _PADE_THETA[-1], 2.5 * _PADE_THETA[-1]])


@pytest.mark.parametrize("d", [2, 25, 64, 190])
def test_matrix_expm_every_pade_branch_matches_taylor(d):
    # named for the Pade branches whose norms it keeps; it walks every
    # Taylor rung and the squarings past the top one
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    unit = (a - a.T) / 2.0
    unit /= np.abs(unit).sum(axis=0).max()
    for norm in _EXPM_NORMS:
        if d == 2 and norm > 10:
            continue  # the oracle's rounding grows with ||S||_2, here ||S||_1
        s = norm * unit
        got = mf.matrix_expm(s)
        want = taylor_expm(s, terms=60)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), norm
        assert mf.orthogonality_defect(got) <= 1e-13, norm


def test_taylor_thetas_are_the_largest_within_the_remainder_bound():
    # theta_m is the largest double eta with
    # eta^(m+1)/(m+1)! / (1 - eta/(m+2)) <= 2^-53, in exact arithmetic
    def tail(m, eta):
        eta = Fraction(eta)
        return eta ** (m + 1) / math.factorial(m + 1) / (1 - eta / (m + 2))

    degrees = [m for m, _, _ in mf._TAYLOR]
    assert degrees == sorted(degrees) and degrees[-1] >= 17
    for m, theta, _ in mf._TAYLOR:
        assert theta < m + 2
        assert tail(m, theta) <= Fraction(1, 2**53) < tail(m, math.nextafter(theta, math.inf))


@pytest.mark.parametrize("d", [0, 1, 2, 16, 190, 600])
def test_matrix_expm_of_zero_is_identity_exactly(d):
    assert np.array_equal(mf.matrix_expm(np.zeros((d, d))), np.eye(d))


@pytest.mark.parametrize("d", [5, 600])
def test_expm_checks_refuse_what_they_refused(d):
    # matrix_expm refuses a non-square or non-skew input, and exp_map a
    # non-square W, a misshapen xi or a non-tangent one, below and from
    # SKEW_BLOCKED_MIN_D (the tiled a + a.T).  exp_map once had its own
    # rule, defect > SKEW_TOL * max(1, ||xi||); every input it refused
    # is still refused, here defects twice that bound at ||xi|| = 0.5
    # and 100.  A non-finite input is not refused and comes back NaN
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    s = (a - a.T) / 2.0
    for bad in (np.zeros(d), np.zeros((d, d + 1)), np.zeros((2, d, d)),
                np.eye(d), s + 1e-9 * np.eye(d)):
        with pytest.raises(ValueError):
            mf.matrix_expm(bad)
    w = random_w(d, seed=1)
    unit = s / np.linalg.norm(s)
    bads = [w @ (s + 1e-9 * np.eye(d)), w @ a, w]
    for size in (0.5, 100.0):
        # W^T xi = size unit + delta I, whose defect is 2 delta sqrt(d)
        delta = 2.0 * mf.SKEW_TOL * max(1.0, size) / (2.0 * math.sqrt(d))
        bads.append(w @ (size * unit + delta * np.eye(d)))
    for bad in bads:
        wtx = w.T @ bad
        old_scale = max(1.0, float(np.linalg.norm(bad)))
        assert np.linalg.norm(wtx + wtx.T) > mf.SKEW_TOL * old_scale
        with pytest.raises(ValueError):
            mf.exp_map(w, bad)
    for xi in (np.zeros((d, d + 1)), np.zeros(d), np.zeros((2, d, d))):
        with pytest.raises(ValueError):
            mf.exp_map(w, xi)
    with pytest.raises(ValueError):
        mf.exp_map(w[:, :-1], np.zeros((d, d - 1)))
    poisoned = s.copy()
    poisoned[0, 1] = np.nan
    assert np.isnan(mf.matrix_expm(poisoned)).all()
    assert np.isnan(mf.exp_map(w, w @ poisoned)).all()
    # within tol the input is repaired to (a - a.T)/2 with the same bits
    # as the one-shot transpose, then exponentiated
    near = s + 1e-14 * rng.standard_normal((d, d))
    assert np.array_equal(mf._with_transpose(np.add, near), near + near.T)
    assert np.array_equal(mf.matrix_expm(near), mf._expm_skew((near - near.T) / 2.0))


@pytest.mark.parametrize("d", [5, 600])
def test_exp_map_refuses_a_defect_its_former_scaled_rule_passed(d):
    # ||xi|| > 1 with SKEW_TOL < defect <= SKEW_TOL * ||xi||: exp_map's
    # former rule let this through, matrix_expm's absolute one refuses it
    w = random_w(d, seed=2)
    a = np.random.default_rng(d).standard_normal((d, d))
    s = (a - a.T) / 2.0
    delta = 5.0 * mf.SKEW_TOL / (2.0 * math.sqrt(d))  # defect ~ 5 SKEW_TOL
    xi = w @ (100.0 * s / np.linalg.norm(s) + delta * np.eye(d))
    wtx = w.T @ xi
    defect = float(np.linalg.norm(wtx + wtx.T))
    assert mf.SKEW_TOL < defect <= mf.SKEW_TOL * float(np.linalg.norm(xi))
    with pytest.raises(ValueError):
        mf.exp_map(w, xi)


@pytest.mark.parametrize("d", [64, 600])
def test_matrix_expm_takes_an_exactly_skew_input_as_given(d, monkeypatch):
    # srgd's argument, antisym(A) * (-alpha / 2), is exactly skew with a
    # -0.0 diagonal: matrix_expm forms no (A - A^T)/2 for it, and returns
    # the bits of that repair (a +0.0 diagonal); a near-skew input is
    # repaired.  d = 600 is at or above SKEW_BLOCKED_MIN_D, the tiled path
    assert 600 >= mf.SKEW_BLOCKED_MIN_D
    a = np.random.default_rng(d).standard_normal((d, d))
    x = mf.antisym(a) * (-0.05 / 2.0)
    assert np.signbit(np.diag(x)).all()
    want = mf._expm_skew((x - x.T) / 2.0)
    ops = []
    real = mf._with_transpose
    monkeypatch.setattr(mf, "_with_transpose", lambda op, m: ops.append(op) or real(op, m))
    assert np.array_equal(mf.matrix_expm(x), want)
    assert ops == [np.add]
    near = x.copy()
    near[0, 1] += 1e-13
    mf.matrix_expm(near)
    assert ops == [np.add, np.add, np.subtract]


def test_no_module_imports_scipy(tmp_path):
    # every product runs on numpy's OpenBLAS pool: importing every
    # orthocd module and a tiny srgd run (the expm path) load no scipy
    from test_cli import TINY
    import orthocd
    code = (
        "import importlib, pkgutil, sys\n"
        "import orthocd\n"
        "for info in pkgutil.iter_modules(orthocd.__path__):\n"
        "    importlib.import_module('orthocd.' + info.name)\n"
        "from orthocd import cli\n"
        f"rc = cli.main({['train', *TINY, '--optimizer', 'srgd', '--out', str(tmp_path / 'run')]!r})\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "ORTHOCD_RUNS": str(tmp_path / "runs"),
           "PYTHONPATH": str(Path(orthocd.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split("\n")[-2] == "0 []"
    assert (tmp_path / "run" / "checkpoint.bin").exists()


def test_blas_held_threads_restores_the_count():
    before = blas.thread_counts()
    with blas.held_threads():
        if "numpy" in before:
            assert blas.thread_counts() == {**before, "numpy": 1}
    assert blas.thread_counts() == before
    with pytest.raises(RuntimeError), blas.held_threads():
        raise RuntimeError
    assert blas.thread_counts() == before


def test_exp_map_agrees_with_right_translated_expm():
    rng = np.random.default_rng(15)
    d = 10
    w = mf.random_orthogonal(d, rng)
    s = rng.standard_normal((d, d))
    s = (s - s.T) / 2.0
    xi = w @ s
    got = mf.exp_map(w, xi)
    want = w @ taylor_expm(s)
    assert np.allclose(got, want, atol=1e-13)
    assert mf.orthogonality_defect(got) <= 1e-13


def test_exp_map_zero_is_identity_and_validates_tangency():
    d = 6
    w = random_w(d, seed=16)
    assert np.allclose(mf.exp_map(w, np.zeros((d, d))), w, atol=1e-15)
    with pytest.raises(ValueError):
        mf.exp_map(w, w)  # w itself is not tangent at w
    eta = basis_tangent(w, 2)
    other = random_w(d, seed=17)
    with pytest.raises(ValueError):
        mf.exp_map(other, eta)  # a tangent based elsewhere


def test_givens_update_matches_dense_rotation_oracle():
    rng = np.random.default_rng(18)
    d = 9
    w = mf.random_orthogonal(d, rng)
    for _ in range(25):
        i = int(rng.integers(1, mf.num_coords(d) + 1))
        theta = float(rng.uniform(-np.pi, np.pi))
        j, l = mf.coord_pair(i, d)
        want = w @ dense_rotation(d, j, l, theta / SQRT2)
        got = mf.givens_update(w, i, theta)
        assert np.allclose(got, want, atol=1e-14)


def test_givens_update_is_exp_map_of_basis_direction():
    rng = np.random.default_rng(19)
    d = 12
    w = mf.random_orthogonal(d, rng)
    for i in (1, 17, mf.num_coords(d)):
        theta = float(rng.uniform(-2.0, 2.0))
        eta = basis_tangent(w, i)
        via_exp = mf.exp_map(w, theta * eta)
        assert np.allclose(mf.givens_update(w, i, theta), via_exp, atol=1e-13)


def test_givens_update_touches_only_two_columns():
    d = 15
    w = random_w(d, seed=20)
    before = w.copy()
    i = mf.coord_index(4, 11, d)
    out = mf.givens_update(w, i, 0.7)
    assert np.array_equal(w, before)  # out=None never mutates the input
    same = [c for c in range(d) if c not in (3, 10)]
    assert np.array_equal(out[:, same], before[:, same])
    assert not np.array_equal(out[:, [3, 10]], before[:, [3, 10]])


def test_givens_update_in_place_and_zero_theta():
    d = 8
    w = random_w(d, seed=21)
    ref = w.copy()
    out = mf.givens_update(w, 3, 0.0, out=w)
    assert out is w
    assert np.array_equal(w, ref)  # exact: cos(0) = 1, sin(0) = 0
    mf.givens_update(w, 3, 0.9, out=w)
    assert not np.array_equal(w, ref)
    assert mf.orthogonality_defect(w) <= 1e-14


def test_givens_long_product_stays_orthogonal():
    rng = np.random.default_rng(22)
    d = 24
    w = mf.random_orthogonal(d, rng)
    n = mf.num_coords(d)
    for _ in range(1000):
        mf.givens_update(w, int(rng.integers(1, n + 1)),
                         float(rng.uniform(-1.5, 1.5)), out=w)
    assert mf.orthogonality_defect(w) <= 1e-12


def test_orthogonality_defect_is_bitwise_the_eye_form():
    # the identity is subtracted in place on the diagonal; off it the
    # eye form subtracts 0.0, which changes no bit
    rng = np.random.default_rng(31)
    cases = [np.eye(1), np.zeros((3, 3)), -np.eye(4), np.arange(9.0).reshape(3, 3),
             np.arange(16).reshape(4, 4), np.asfortranarray(random_w(12, seed=32)),
             np.full((5, 5), np.nan), np.where(np.eye(6) > 0, -0.0, 0.0)]
    for d in (2, 7, 64, 190):
        q = mf.random_orthogonal(d, rng)
        cases += [q, q + 1e-9 * rng.standard_normal((d, d)),
                  rng.standard_normal((d, d))]
    for w in cases:
        want = np.asarray(w, dtype=np.float64)
        want = float(np.linalg.norm(want.T @ want - np.eye(len(w))))
        got = mf.orthogonality_defect(w)
        assert got == want or (math.isnan(got) and math.isnan(want)), w.shape
    with pytest.raises(ValueError, match="square"):
        mf.orthogonality_defect(np.ones((3, 4)))


def test_orthogonality_defect_makes_no_identity():
    # one d x d array, W^T W; the eye form made three
    d = 256
    w = random_w(d, seed=33)
    tracemalloc.start()
    try:
        mf.orthogonality_defect(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * d * d * 8


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_random_orthogonal_is_haar_on_both_components():
    dets = set()
    for seed in range(12):
        w = random_w(9, seed=seed)
        assert mf.orthogonality_defect(w) <= 1e-13
        dets.add(round(float(np.linalg.det(w))))
    assert dets == {-1, 1}  # O(d), not just SO(d)
