import math

import numpy as np
import pytest

from orthocd import analysis as an

from oracles import fsum_cumsum, fsum_prefix, kahan_cumsum_scalars


# ---------------------------------------------------------------------------
# sparsity profile
# ---------------------------------------------------------------------------

def test_profile_single_nonzero():
    v = np.zeros(10)
    v[4] = -2.5
    prof = an.sparsity_profile(v)
    assert prof.frac95 == pytest.approx(0.1)   # one coordinate carries it all
    assert prof.frac99 == pytest.approx(0.1)
    assert prof.frac95_abs == pytest.approx(0.1)
    assert prof.norm == pytest.approx(2.5)


def test_profile_all_equal():
    prof = an.sparsity_profile(np.full(100, 0.3))
    assert prof.frac95 == pytest.approx(0.95)  # ceil(0.95 D) / D
    assert prof.frac99 == pytest.approx(0.99)
    prof7 = an.sparsity_profile(np.full(7, -1.0))
    assert prof7.frac95 == pytest.approx(1.0)  # ceil(6.65) = 7 of 7


def test_profile_hand_computed_two_values():
    # squared masses 25/26 and 1/26: one entry covers 95% but not 99%
    prof = an.sparsity_profile(np.array([5.0, 1.0]))
    assert prof.frac95 == pytest.approx(0.5)
    assert prof.frac99 == pytest.approx(1.0)
    # linear masses 5/6 and 1/6: even 95% needs both entries
    assert prof.frac95_abs == pytest.approx(1.0)
    assert prof.norm == pytest.approx(math.sqrt(26.0))


def test_profile_all_zero_convention_and_validation():
    prof = an.sparsity_profile(np.zeros(8))
    assert prof.frac95 == 0.0 and prof.frac99 == 0.0 and prof.norm == 0.0
    with pytest.raises(ValueError):
        an.sparsity_profile(np.array([]))
    with pytest.raises(ValueError):
        an.sparsity_profile(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        an.sparsity_profile(np.array([1.0, np.inf]))


def test_profile_scale_invariance_and_bounds():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(int(rng.integers(2, 300)))
        prof = an.sparsity_profile(v)
        scaled = an.sparsity_profile(1e6 * v)
        assert prof.frac95 == scaled.frac95
        assert prof.frac99 == scaled.frac99
        assert 1 / v.size <= prof.frac95 <= 1.0
        assert prof.frac95 <= prof.frac99
        assert prof.norm == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_profile_concentration_direction():
    # a dominated vector needs a smaller fraction than a flat one
    rng = np.random.default_rng(1)
    flat = rng.uniform(0.9, 1.1, 1000)
    spiky = flat.copy()
    spiky[:10] *= 100.0
    assert an.sparsity_profile(spiky).frac95 < an.sparsity_profile(flat).frac95


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------

def test_decade_edges_cover_range():
    edges = an.decade_edges(np.array([3e-7, 0.0, 5e-3, -2e-1]))
    assert edges[0] == pytest.approx(1e-7)
    assert edges[-1] == pytest.approx(1e0)
    ratios = edges[1:] / edges[:-1]
    assert np.allclose(ratios, 10.0)
    assert edges[0] <= 3e-7 and edges[-1] >= 2e-1


def test_decade_edges_degenerate_inputs():
    default = an.decade_edges(np.zeros(5))
    assert default[0] == pytest.approx(1e-16)
    assert default[-1] == pytest.approx(1e0)
    single = an.decade_edges(np.array([1.0]))  # lo == hi forces one decade
    assert single.size >= 2


def test_decade_edges_below_the_smallest_decade():
    # 10.0**-324 is 0.0, so the lowest edge stops at 10.0**-323; the
    # smallest subnormal, 5e-324, lands in the underflow row
    for v in (np.array([5e-324, 1.0]), np.array([5e-324])):
        edges = an.decade_edges(v)
        assert edges[0] == 10.0 ** -323 > 0.0
        hist = an.histogram(v, edges)
        assert hist.counts.sum() == v.size
        assert hist.counts[0] == 1


def test_histogram_hand_case():
    v = np.array([0.0, 0.5, 5.0, 500.0])
    edges = np.array([1e-1, 1e0, 1e1, 1e2])
    hist = an.histogram(v, edges)
    assert np.array_equal(hist.counts, [1, 1, 1, 0, 1])
    assert hist.bin_lo[0] == 0.0 and hist.bin_lo[1] == pytest.approx(0.1)
    assert hist.bin_hi[-1] == np.inf
    assert hist.counts.sum() == v.size


def test_histogram_boundary_values_go_right():
    # value exactly on an edge belongs to the bin starting there
    hist = an.histogram(np.array([1.0, 10.0]), np.array([1.0, 10.0]))
    assert np.array_equal(hist.counts, [0, 1, 1])


def test_histogram_counts_always_sum_to_size():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.standard_normal(int(rng.integers(1, 500))) * 10.0 ** rng.integers(-12, 4)
        edges = an.decade_edges(v)
        hist = an.histogram(v, edges)
        assert hist.counts.sum() == v.size
        assert hist.bin_lo.size == hist.bin_hi.size == hist.counts.size


def test_histogram_validation():
    v = np.ones(3)
    with pytest.raises(ValueError):
        an.histogram(v, np.array([1.0]))
    with pytest.raises(ValueError):
        an.histogram(v, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        an.histogram(v, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        an.histogram(v, np.array([2.0, 1.0]))


# ---------------------------------------------------------------------------
# convergence metric
# ---------------------------------------------------------------------------

def test_kahan_cumsum_matches_fsum_on_ill_conditioned_stream():
    # many tiny increments on a large base: naive accumulation stalls
    x = np.concatenate([[1.0], np.full(10**5, 1e-16)])
    kahan = an.kahan_cumsum(x)
    exact = fsum_prefix(x, x.size)
    assert kahan[-1] == pytest.approx(exact, abs=1e-22)
    naive = np.cumsum(x)
    assert naive[-1] == 1.0          # the failure mode the Kahan loop avoids
    assert exact > 1.0 + 0.9e-11


def test_kahan_cumsum_random_agreement():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(800) * 10.0 ** rng.integers(-8, 8, size=800)
    kahan = an.kahan_cumsum(x)
    exact = fsum_cumsum(x)
    bound = 4 * np.finfo(float).eps * np.cumsum(np.abs(x))
    assert np.all(np.abs(kahan - exact) <= bound + 1e-300)


def test_kahan_cumsum_bitwise_equals_the_numpy_scalar_loop():
    rng = np.random.default_rng(5)
    big = np.concatenate([[1e16], np.ones(1001), [-1e16], np.ones(7)])
    cases = [
        np.array([1e16, 1.0, 1.0, -1e16, 1.0, 1e16, -1.0, 3.0]),
        big,
        rng.standard_normal(2000) * 10.0 ** rng.integers(-12, 12, size=2000),
        np.array([0.0, -0.0, 1.0, np.inf, 2.0]),
        np.array([-0.0]),
        np.empty(0),
    ]
    # compensation is at work: a plain running sum loses the 1.0 terms
    # added to 1e16 (7.0 against 1007.0; the exact sum is 1008)
    assert np.cumsum(big)[-1] == 7.0 and an.kahan_cumsum(big)[-1] == 1007.0
    for x in cases:
        got, want = an.kahan_cumsum(x), kahan_cumsum_scalars(x)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


def test_convergence_metric_hand_values():
    m = an.convergence_metric(np.array([1.0, 3.0]), np.array([2.0, 6.0]))
    assert np.allclose(m, [2.0, 5.0])  # [2, (2 + 18)/4]


def test_convergence_metric_constant_sequence():
    m = an.convergence_metric(np.full(1000, 0.25), np.full(1000, 7.0))
    assert np.allclose(m, 7.0, atol=1e-12)


def test_convergence_metric_prefix_consistency():
    # M_K depends only on the first K entries: no hidden state
    rng = np.random.default_rng(4)
    alphas = rng.uniform(1e-4, 1.0, 500)
    gsq = rng.uniform(0.0, 5.0, 500)
    full = an.convergence_metric(alphas, gsq)
    for k in (1, 7, 250, 500):
        assert an.convergence_metric(alphas[:k], gsq[:k])[-1] == full[k - 1]


def test_convergence_metric_matches_fsum_oracle():
    rng = np.random.default_rng(5)
    n = 10**5
    alphas = 0.5 / (1.0 + np.arange(n) / 100.0) ** 0.75
    gsq = rng.uniform(0.0, 2.0, n)
    m = an.convergence_metric(alphas, gsq)
    for k in (1, 100, 10**4, n):
        want = fsum_prefix(alphas * gsq, k) / fsum_prefix(alphas, k)
        assert m[k - 1] == pytest.approx(want, rel=1e-13)


def test_convergence_metric_validation():
    with pytest.raises(ValueError):
        an.convergence_metric(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        an.convergence_metric(np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# benchmarks
# ---------------------------------------------------------------------------

def test_bench_validation():
    with pytest.raises(ValueError):
        an.bench_update("srcd-u", 3)
    with pytest.raises(ValueError):
        an.bench_update("newton", 8)
    with pytest.raises(ValueError):
        an.bench_update("srcd-u", 8, phase="training")


@pytest.mark.parametrize("optimizer", an.BENCH_OPTIMIZERS)
def test_bench_update_runs_and_reports(optimizer):
    assert an.bench_update(optimizer, 8, batch=2) > 0.0


def test_bench_backward_update_phase():
    both = an.bench_update("srcd-u", 8, phase="backward_update", batch=2)
    assert both > 0.0
    upd = an.bench_update("srcd-u", 8, batch=2)
    assert upd < both  # update alone is cheaper than BPTT + update
    # every step runs on what BPTT hands it: S = antisym(A), or G = W A for sgd
    for optimizer in an.BENCH_OPTIMIZERS:
        assert an.bench_update(optimizer, 8, phase="backward_update", batch=2) > 0.0


def test_loglog_slope_exact_powers():
    dims = np.array([8.0, 16.0, 32.0, 64.0])
    assert an.loglog_slope(dims, 3.5 * dims**3) == pytest.approx(3.0, abs=1e-12)
    assert an.loglog_slope(dims, 0.02 * dims) == pytest.approx(1.0, abs=1e-12)
    assert an.loglog_slope(dims, np.full(4, 9.0)) == pytest.approx(0.0, abs=1e-12)
