import math

import numpy as np
import pytest

from orthocd import manifold as mf
from orthocd import optim, rnn

from oracles import (central_diff, dense_basis, masked_argmax_pairs, naive_block_gs,
                     select_gauss_southwell, taylor_expm)


def random_w(d, seed=0):
    return mf.random_orthogonal(d, np.random.default_rng(seed))


def make_state(d=10, seed=0, alpha=1e-2, rule=None):
    rng = np.random.default_rng(seed)
    x = {"x": rng.standard_normal((3, 3))}
    return optim.OptimizerState(
        w=random_w(d, seed + 1), x=x,
        schedule=optim.StepSchedule("fixed", alpha),
        rule=rule, rng=np.random.default_rng(seed + 2))


def random_grads(state, seed=0):
    rng = np.random.default_rng(seed)
    return optim.GradPack(
        w=rng.standard_normal(state.w.shape),
        x={name: rng.standard_normal(arr.shape) for name, arr in state.x.items()})


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_fixed_schedule_constant():
    sched = optim.StepSchedule("fixed", 3e-4)
    assert [optim.schedule_step(sched, k) for k in (0, 1, 10**6)] == [3e-4] * 3


def test_polynomial_schedule_frozen_values():
    sched = optim.StepSchedule("polynomial", 1.0, power=0.75, offset=100.0)
    # alpha0 / (1 + k/k0)^p computed independently
    for k in (0, 1, 99, 10**4):
        want = 1.0 / (1.0 + k / 100.0) ** 0.75
        assert optim.schedule_step(sched, k) == pytest.approx(want, rel=1e-15)
    assert optim.schedule_step(sched, 0) == 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        optim.StepSchedule("linear", 1.0)
    with pytest.raises(ValueError):
        optim.StepSchedule("fixed", 0.0)
    with pytest.raises(ValueError):
        optim.StepSchedule("fixed", float("nan"))
    with pytest.raises(ValueError):
        optim.StepSchedule("polynomial", 1.0, offset=0.0)
    with pytest.raises(ValueError):
        optim.schedule_step(optim.StepSchedule(), -1)
    # non-finite power or offset, on either kind of schedule
    for kind in ("fixed", "polynomial"):
        for bad in ({"power": math.nan}, {"power": math.inf},
                    {"offset": math.nan}, {"offset": math.inf}):
            with pytest.raises(ValueError):
                optim.StepSchedule(kind, 1.0, **bad)


def test_robbins_monro_gate():
    with pytest.raises(ValueError):
        optim.StepSchedule("fixed", 1e-3, robbins_monro=True)
    with pytest.raises(ValueError):
        optim.StepSchedule("polynomial", 1e-3, power=0.5, robbins_monro=True)
    with pytest.raises(ValueError):
        optim.StepSchedule("polynomial", 1e-3, power=1.5, robbins_monro=True)
    optim.StepSchedule("polynomial", 1e-3, power=0.75, robbins_monro=True)
    optim.StepSchedule("polynomial", 1e-3, power=1.0, robbins_monro=True)
    # non-RM polynomial may use any positive power
    optim.StepSchedule("polynomial", 1e-3, power=2.0)


def test_robbins_monro_partial_sums_diverge_and_square_sums_settle():
    sched = optim.StepSchedule("polynomial", 1.0, power=0.75, offset=1.0,
                               robbins_monro=True)
    k = np.arange(2 * 10**5)
    alpha = np.array([optim.schedule_step(sched, int(i)) for i in k[:100]])
    # closed form for the rest, same expression, vectorized for speed
    alpha_all = sched.alpha0 / (1.0 + k / sched.offset) ** sched.power
    assert np.allclose(alpha_all[:100], alpha, rtol=1e-15)
    half = alpha_all[: 10**5].sum()
    assert alpha_all.sum() > 1.18 * half            # still growing (divergence)
    sq_half = (alpha_all[: 10**5] ** 2).sum()
    assert (alpha_all**2).sum() < 1.001 * sq_half   # square sum has converged


# ---------------------------------------------------------------------------
# selection rules
# ---------------------------------------------------------------------------

def test_selection_rule_validation_and_block_size():
    with pytest.raises(ValueError):
        optim.SelectionRule("best")
    with pytest.raises(ValueError):
        optim.SelectionRule("block_gs", block_fraction=0.0)
    rule = optim.SelectionRule("block_gs", block_fraction=0.005)
    assert rule.block_size(17955) == 90   # round(89.775)
    assert rule.block_size(10) == 1       # max(1, round(0.05))


def _uniform_picks(d, seed, steps):
    # the coordinates of `steps` uniform srcd steps on a d x d state
    state = optim.OptimizerState(w=np.eye(d), x={},
                                 schedule=optim.StepSchedule("fixed", 1e-3),
                                 rule=optim.SelectionRule("uniform"),
                                 rng=np.random.default_rng(seed))
    pack = optim.GradPack(skew=_skew_from(np.ones((d, d))))
    picks = []
    for _ in range(steps):
        optim.srcd_step(state, pack)
        picks.extend(state.last_coords)
    return picks


def test_select_uniform_range_and_coverage():
    # the uniform step draws from {1, ..., D}, all of it; d < 2, where
    # D = 0, is refused (test_srcd_requires_rule_and_rng)
    assert set(_uniform_picks(3, 0, 600)) == {1, 2, 3}
    assert _uniform_picks(46, 5, 20) == _uniform_picks(46, 5, 20)
    assert set(_uniform_picks(46, 5, 20)) <= set(range(1, mf.num_coords(46) + 1))


def test_select_gauss_southwell():
    assert select_gauss_southwell(np.array([0.1, -5.0, 4.9])) == 2
    assert select_gauss_southwell(np.array([-3.0, 3.0, 3.0])) == 1  # tie: smallest
    assert select_gauss_southwell(np.array([0.0])) == 1
    with pytest.raises(ValueError):
        select_gauss_southwell(np.array([]))


def _skew_from(upper):
    # the exactly skew S whose strict upper triangle is `upper`'s
    upper = np.triu(upper, 1)
    return upper - upper.T


def _block_step(skew, b, alpha=0.1):
    # one block Gauss-Southwell step from W = I on the bundled S, with
    # block_size(D) = b
    d = skew.shape[0]
    n = mf.num_coords(d)
    rule = optim.SelectionRule("block_gs", block_fraction=b / n)
    assert rule.block_size(n) == b
    state = optim.OptimizerState(w=np.eye(d), x={},
                                 schedule=optim.StepSchedule("fixed", alpha), rule=rule)
    optim.srcd_step(state, optim.GradPack(skew=skew))
    return state


def test_select_block_gs_against_naive():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(4, 14))
        skew = _skew_from(rng.standard_normal((d, d)))
        b = int(rng.integers(1, min(mf.num_coords(d), 8) + 1))
        v = mf.skew_partials(skew)
        state = _block_step(skew, b)
        assert state.last_coords == tuple(naive_block_gs(v, b, d))
        want = np.eye(d)
        for i in state.last_coords:
            want = mf.givens_update(want, i, -0.1 * v[i - 1])
        assert np.array_equal(state.w, want)
    # block sizes from 1 to D, past d // 2 where the walk runs out of
    # columns; rounded entries make exact ties, a sparse S leaves only
    # zeros after a few picks, and an all-zero S ties every coordinate
    for d in (7, 8, 9, 64):
        n = mf.num_coords(d)
        bs = range(1, n + 1) if d < 64 else (1, 2, 31, 32, 33, 100, 1000, n - 1, n)
        sparse = rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.1)
        for skew in (_skew_from(np.round(rng.standard_normal((d, d)), 1)),
                     _skew_from(sparse), np.zeros((d, d))):
            v = mf.skew_partials(skew)
            for b in bs:
                assert _block_step(skew, b).last_coords == tuple(naive_block_gs(v, b, d))
    # adjacent doubles that dividing by sqrt(2) rounds to one partial
    # (as in test_skew_picks_ties_and_zero_gradient)
    merged = np.zeros((6, 6))
    merged[0, 4], merged[1, 3] = 1.5000000000000004, 1.5000000000000007
    skew = _skew_from(merged)
    for b in range(1, 16):
        want = tuple(naive_block_gs(mf.skew_partials(skew), b, 6))
        assert _block_step(skew, b).last_coords == want
    assert want[0] == 4  # coordinate (1, 5) before the larger |S| of (2, 4)


def test_select_block_gs_never_shares_columns():
    rng = np.random.default_rng(2)
    d = 9
    coords = _block_step(_skew_from(rng.standard_normal((d, d))),
                         mf.num_coords(d)).last_coords
    cols = [c for i in coords for c in mf.coord_pair(i, d)]
    assert len(cols) == len(set(cols))
    assert len(coords) == d // 2


def _selector_cases(d, rng):
    # random, half-rounded (exact ties), all-zero and NaN-bearing S
    a = rng.standard_normal((d, d))
    yield "random", a - a.T
    a = np.round(2.0 * rng.standard_normal((d, d))) / 2.0
    yield "rounded", a - a.T
    yield "zero", np.zeros((d, d))
    a = rng.standard_normal((d, d))
    a[rng.random((d, d)) < 2.0 / d] = np.nan
    a[d // 3, d // 3] = np.nan
    with np.errstate(invalid="ignore"):
        yield "nan", a - a.T


@pytest.mark.parametrize("d, tile_rows", [
    (9, None), (64, None), (256, None),  # one tile holds S
    (9, 1), (9, 2), (40, 3), (64, 7),     # several tiles, by a smaller tile
    (257, None), (300, None), (513, None)])
def test_greedy_pairs_are_the_masked_argmax_and_the_walk(d, tile_rows, monkeypatch):
    # the tiled selector picks what the whole masked |S|/sqrt(2) picked
    # (oracles.masked_argmax_pairs), and, for a finite S, the block
    # Gauss-Southwell walk by its definition, with 1, 2, d/5 and d/2
    # picks; tile_rows shrinks the tiles so small S spans several
    if tile_rows is not None:
        monkeypatch.setattr(optim, "SELECT_TILE_BYTES", 8 * d * tile_rows)
    rows = optim.SELECT_TILE_BYTES // (8 * d)
    assert (rows >= d) == (tile_rows is None and d <= 256)
    rng = np.random.default_rng(d)
    for name, skew in _selector_cases(d, rng):
        v = mf.skew_partials(skew)
        for n in sorted({1, 2, max(1, d // 5), d // 2}):
            with np.errstate(invalid="ignore"):
                got = optim._greedy_pairs(skew, n)
                assert got == masked_argmax_pairs(skew, n), (name, n)
            if name != "nan" and d <= 300:
                want = naive_block_gs(v, n, d)
                assert [mf.coord_index(r + 1, c + 1, d) for r, c in got] == want, (name, n)


@pytest.mark.parametrize("d, b", [(9, 2), (300, 1), (300, 2), (300, 60)])
def test_a_float32_skew_is_stepped_as_its_float64_copy(d, b):
    # a bundle keeps S as float64, so the selector's float64 row
    # buffers take a float32 S too (wider than one tile at d = 300,
    # where its re-read of stale rows once refused the cast), and the
    # step is the one on the float64 copy, bitwise
    a = np.random.default_rng(d).standard_normal((d, d)).astype(np.float32)
    s32 = a - a.T
    assert optim.GradPack(skew=s32).skew.dtype == np.float64
    got, want = _block_step(s32, b), _block_step(s32.astype(np.float64), b)
    assert got.last_coords == want.last_coords
    assert got.w.tobytes() == want.w.tobytes()


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def test_sgd_step_plain_arithmetic():
    state = make_state(d=6, alpha=0.1)
    grads = random_grads(state, seed=7)
    w0 = state.w.copy()
    x0 = state.x["x"].copy()
    optim.sgd_step(state, grads)
    assert np.allclose(state.w, w0 - 0.1 * grads.w, atol=1e-15)
    assert np.allclose(state.x["x"], x0 - 0.1 * grads.x["x"], atol=1e-15)
    assert state.k == 1


def test_srgd_step_matches_series_oracle_and_stays_on_manifold():
    state = make_state(d=7, alpha=0.05)
    grads = random_grads(state, seed=8)
    w0 = state.w.copy()
    x0 = state.x["x"].copy()
    a = w0.T @ grads.w
    skew = (a - a.T) / 2.0
    want = w0 @ taylor_expm(-0.05 * skew)
    optim.srgd_step(state, grads)
    assert np.allclose(state.w, want, atol=1e-13)
    assert mf.orthogonality_defect(state.w) <= 1e-13
    assert np.allclose(state.x["x"], x0 - 0.05 * grads.x["x"], atol=1e-15)


@pytest.mark.parametrize("alpha_s", [1.0, 1e4])
def test_srgd_holds_orthogonality_unrepaired_for_ten_thousand_steps(alpha_s):
    # no step reorthogonalizes: 1e4 dense steps at d=64, each on a fresh
    # random S with alpha ||S||_1 = alpha_s, keep W within the 1e-8
    # invariant that a checkpoint save checks
    d = 64
    rng = np.random.default_rng(41)
    state = optim.OptimizerState(w=random_w(d, seed=42), x={},
                                 schedule=optim.StepSchedule("fixed", 1.0))
    for _ in range(10_000):
        a = rng.standard_normal((d, d))
        skew = a - a.T
        optim.srgd_step(state, optim.GradPack(skew=skew * (alpha_s / np.linalg.norm(skew, 1))))
    assert state.k == 10_000
    assert mf.orthogonality_defect(state.w) <= 1e-8


def test_srcd_uniform_step_semantics():
    state = make_state(d=9, alpha=0.02, rule=optim.SelectionRule("uniform"))
    grads = random_grads(state, seed=11)
    w0 = state.w.copy()
    sel_rng = np.random.default_rng(2)  # same stream the state was built with
    expect_i = int(sel_rng.integers(1, mf.num_coords(9) + 1))
    theta = mf.partial_derivative(w0, grads.w, expect_i)
    want = mf.givens_update(w0, expect_i, -0.02 * theta)
    optim.srcd_step(state, grads)
    assert state.last_coords == (expect_i,)
    assert np.allclose(state.w, want, atol=1e-15)
    j, l = mf.coord_pair(expect_i, 9)
    untouched = [c for c in range(9) if c not in (j - 1, l - 1)]
    assert np.array_equal(state.w[:, untouched], w0[:, untouched])


def test_srcd_uniform_step_reads_the_bundled_skew(monkeypatch):
    # handed S alone, the uniform step picks the same coordinate as when
    # handed G, and its angle S[j,l]/sqrt(2) agrees with the two-column
    # partial derivative to 1e-15 relative to the bound
    # |theta| <= (|g_j| + |g_l|)/sqrt(2); relative to theta itself the
    # two roundings differ by up to ~1e-12 where the dot products cancel
    angles = []
    real = mf.givens_update
    monkeypatch.setattr(optim.manifold, "givens_update",
                        lambda w, i, theta, out=None: angles.append(theta)
                        or real(w, i, theta, out=out))
    d, alpha = 12, 0.02
    rule = optim.SelectionRule("uniform")
    for seed in range(20):
        w0 = make_state(d=d, seed=seed).w
        g = random_grads(make_state(d=d, seed=seed), seed=seed + 100)
        picks = []
        for pack in (g, optim.GradPack(skew=mf.skew_grad(w0, g.w), x=g.x)):
            state = make_state(d=d, seed=seed, alpha=alpha, rule=rule)
            optim.srcd_step(state, pack)
            picks.append(state.last_coords)
        assert picks[0] == picks[1]
        (i,) = picks[0]
        j, l = mf.coord_pair(i, d)
        bound = (np.linalg.norm(g.w[:, j - 1]) + np.linalg.norm(g.w[:, l - 1])) / math.sqrt(2.0)
        theta_g, theta_s = angles[-2:]
        assert abs(theta_s - theta_g) <= 1e-15 * alpha * bound


def test_srcd_gs_picks_largest_partial():
    state = make_state(d=8, alpha=0.01, rule=optim.SelectionRule("gauss_southwell"))
    grads = random_grads(state, seed=12)
    v = mf.all_partials(state.w, grads.w)
    want_i = int(np.argmax(np.abs(v))) + 1
    optim.srcd_step(state, grads)
    assert state.last_coords == (want_i,)


def test_srcd_block_gs_applies_selected_block():
    rule = optim.SelectionRule("block_gs", block_fraction=0.2)
    state = make_state(d=8, alpha=0.01, rule=rule)
    grads = random_grads(state, seed=13)
    w0 = state.w.copy()
    v = mf.all_partials(w0, grads.w)
    coords = naive_block_gs(v, rule.block_size(mf.num_coords(8)), 8)
    want = w0.copy()
    for i in coords:
        want = mf.givens_update(want, i, -0.01 * v[i - 1])
    optim.srcd_step(state, grads)
    assert state.last_coords == tuple(coords)
    assert np.allclose(state.w, want, atol=1e-14)


@pytest.mark.parametrize("d", [8, 9, 64])
def test_srcd_block_gs_step_is_the_exponential_of_its_block(d):
    # the picks share no column, so their rotations commute: one step is
    # W0 expm(sum_i -alpha v_i eta_i), here through the Taylor oracle
    alpha = 0.3
    rule = optim.SelectionRule("block_gs", block_fraction=0.5)
    state = make_state(d=d, alpha=alpha, rule=rule)
    grads = random_grads(state, seed=14 + d)
    w0 = state.w.copy()
    v = mf.all_partials(w0, grads.w)
    optim.srcd_step(state, grads)
    assert len(state.last_coords) == d // 2
    omega = sum(-alpha * v[i - 1] * dense_basis(*mf.coord_pair(i, d), d)
                for i in state.last_coords)
    assert np.abs(state.w - w0 @ taylor_expm(omega)).max() <= 1e-13


def test_srcd_requires_rule_and_rng():
    state = make_state(d=6)
    with pytest.raises(ValueError):
        optim.srcd_step(state, random_grads(state))
    state = make_state(d=6, rule=optim.SelectionRule("uniform"))
    state.rng = None
    w0, x0 = state.w.copy(), state.x["x"].copy()
    with pytest.raises(ValueError, match="rng"):
        optim.srcd_step(state, random_grads(state))
    # refused before anything moved
    assert state.k == 0
    assert np.array_equal(state.w, w0) and np.array_equal(state.x["x"], x0)
    # O(1) has no coordinate to step along, whatever the rule
    for kind in ("uniform", "gauss_southwell", "block_gs"):
        state = make_state(d=1, rule=optim.SelectionRule(kind))
        x0 = state.x["x"].copy()
        with pytest.raises(ValueError, match="d >= 2"):
            optim.srcd_step(state, optim.GradPack(w=np.ones((1, 1)), x=state.x))
        assert state.k == 0 and np.array_equal(state.x["x"], x0)


def test_gradpack_needs_g_or_s():
    state = make_state(d=6, rule=optim.SelectionRule("uniform"))
    g = random_grads(state, seed=19)
    for fn in (optim.sgd_step, optim.srgd_step, optim.srcd_step):
        with pytest.raises(ValueError):
            fn(state, optim.GradPack(x=g.x))
    with pytest.raises(ValueError, match="sgd_step"):
        optim.sgd_step(state, optim.GradPack(skew=mf.skew_grad(state.w, g.w), x=g.x))
    assert state.k == 0


def test_gradpack_refuses_both_g_and_s():
    state = make_state(d=6)
    g = random_grads(state, seed=20)
    with pytest.raises(ValueError, match="exactly one"):
        optim.GradPack(w=g.w, skew=mf.skew_grad(state.w, g.w), x=g.x)


_STEPS = {"sgd": optim.sgd_step, "srgd": optim.srgd_step}


@pytest.mark.parametrize("name", ["sgd", *optim.OPTIMIZERS])
def test_steps_refuse_a_bundle_that_does_not_fit(name):
    # a W gradient not of W's shape, or X blocks that are not the
    # state's by name and shape, is refused before anything moves; the
    # state takes one good step first, so a coordinate step's
    # last_coords is not empty
    kind = optim.OPTIMIZERS.get(name)
    fn = _STEPS.get(name, optim.srcd_step)
    d = 6
    rng = np.random.default_rng(50)
    state = optim.OptimizerState(
        w=random_w(d, seed=51),
        x={"a": rng.standard_normal((3, 3)), "b": rng.standard_normal(2)},
        schedule=optim.StepSchedule("fixed", 0.01),
        rule=None if kind is None else optim.SelectionRule(kind, block_fraction=0.2),
        rng=np.random.default_rng(52))

    def blocks(**shapes):
        return {n: rng.standard_normal(shape) for n, shape in shapes.items()}

    fit = {"a": (3, 3), "b": (2,)}
    fn(state, optim.GradPack(w=rng.standard_normal((d, d)), x=blocks(**fit)))
    assert state.k == 1
    w0, x0 = state.w.copy(), {n: arr.copy() for n, arr in state.x.items()}
    last0 = state.last_coords
    misfits = [
        ((d, d), {"a": (3, 3)}),                  # a block missing
        ((d, d), {**fit, "c": (2,)}),             # a block too many
        ((d, d), {"a": (3,), "b": (2,)}),         # a row for a (3, 3) block
        ((d, d), {"a": (3, 3), "b": (1, 2)}),
        ((8, 8), fit),                            # d = 8 for a d = 6 state
        ((d,), fit),
        ((d, d + 1), fit),
    ]
    for form in ("w",) if name == "sgd" else ("w", "skew"):
        for w_shape, x_shapes in misfits:
            g = rng.standard_normal(w_shape)
            if form == "skew" and w_shape[0] == w_shape[-1]:
                g -= g.T
            with pytest.raises(ValueError, match="shape"):
                fn(state, optim.GradPack(**{form: g}, x=blocks(**x_shapes)))
            assert state.k == 1 and state.last_coords == last0
            assert np.array_equal(state.w, w0)
            assert all(np.array_equal(state.x[n], x0[n]) for n in x0)


@pytest.mark.parametrize("name", ["sgd", *optim.OPTIMIZERS])
def test_steps_return_the_alpha_they_took(name):
    # each step returns the schedule's alpha at its k, the one that
    # moved X; `step` returns what the step it dispatches to returns
    kind = optim.OPTIMIZERS.get(name)
    schedule = optim.StepSchedule("polynomial", 0.1, power=0.75, offset=2.0)
    rule = None if kind is None else optim.SelectionRule(kind, block_fraction=0.2)
    assert len({optim.schedule_step(schedule, k) for k in range(3)}) == 3
    fns = [_STEPS.get(name, optim.srcd_step)] + ([] if name == "sgd" else [optim.step])
    for fn in fns:
        state = make_state(d=6, rule=rule)
        state.schedule = schedule
        for k in range(3):
            x0, grads = state.x["x"].copy(), random_grads(state, seed=60 + k)
            alpha = fn(state, grads)
            assert alpha == optim.schedule_step(schedule, k)
            assert np.array_equal(state.x["x"], x0 - alpha * grads.x["x"])


def test_steps_share_the_unconstrained_update():
    grads = None
    results = {}
    for name, rule, fn in (
            ("sgd", None, optim.sgd_step),
            ("srgd", None, optim.srgd_step),
            ("srcd", optim.SelectionRule("uniform"), optim.srcd_step)):
        state = make_state(d=6, seed=14, alpha=0.03, rule=rule)
        grads = random_grads(state, seed=15)
        fn(state, grads)
        results[name] = state.x["x"].copy()
    assert np.array_equal(results["sgd"], results["srgd"])
    assert np.array_equal(results["srgd"], results["srcd"])


def _bundle(state, seed, form, scale=1.0, poison=None):
    # a G ("w") or an S ("skew") bundle with its X block, from random
    # draws times `scale`; `poison` = (block, index, value) sets one entry
    # of the W gradient (block = form) or the X block ("x") first
    arrays = {"w": random_grads(state, seed=seed).w * scale,
              "skew": mf.skew_grad(state.w, random_grads(state, seed + 1).w) * scale,
              "x": random_grads(state, seed=seed + 2).x["x"] * scale}
    if poison is not None:
        block, index, value = poison
        arrays[block][index] = value
    return optim.GradPack(**{form: arrays[form]}, x={"x": arrays["x"]})


def test_non_finite_gradients_raise():
    # a NaN, +inf or -inf in G, S or the X block is refused when the
    # bundle is made, before any step can apply it
    for fn, rule, forms in ((optim.sgd_step, None, ("w",)),
                            (optim.srgd_step, None, ("w", "skew")),
                            (optim.srcd_step, optim.SelectionRule("uniform"), ("w", "skew"))):
        state = make_state(d=6, rule=rule)
        w0, x0 = state.w.copy(), state.x["x"].copy()
        for form in forms:
            for block in (form, "x"):
                for bad in (np.nan, np.inf, -np.inf):
                    with pytest.raises(optim.NumericError, match="non-finite"):
                        fn(state, _bundle(state, 16, form, poison=(block, (0, 1), bad)))
        assert state.k == 0
        assert np.array_equal(state.w, w0) and np.array_equal(state.x["x"], x0)
        for form in forms:
            fn(state, _bundle(state, 16, form))
        assert state.k == len(forms)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("d", [6, 110])  # a few entries, and a vdot past 1e4
def test_finite_check_screens_without_changing_the_rule(d):
    rng = np.random.default_rng(30)
    alpha = 1e-2
    state = make_state(d=d, alpha=alpha, rule=optim.SelectionRule("uniform"))
    w0, x0 = state.w.copy(), state.x["x"].copy()

    # sums of squares overflow to inf, every entry is finite: accepted in
    # each form, and each step applies the huge bundle as it would any other
    huge_g = _bundle(state, 31, "w", scale=1e200)
    huge = _bundle(state, 31, "skew", scale=1e200)
    assert huge.norm_sq == math.inf
    assert huge_g.norm_sq is None
    optim.sgd_step(state, huge_g)
    assert np.array_equal(state.w, w0 - alpha * huge_g.w)
    assert np.array_equal(state.x["x"], x0 - alpha * huge_g.x["x"])
    state.w[...], state.x["x"][...] = w0, x0
    optim.srcd_step(state, huge)
    (i,) = state.last_coords
    j, l = mf.coord_pair(i, d)
    theta = float(huge.skew[j - 1, l - 1]) / math.sqrt(2.0)
    assert np.array_equal(state.w, mf.givens_update(w0, i, -alpha * theta))
    assert np.array_equal(state.x["x"], x0 - alpha * huge.x["x"])
    assert np.isfinite(state.w).all()

    for k in range(30):
        # every (form, block) pair in each run of six
        form = ("w", "skew")[k % 2]
        block = "x" if k % 3 == 2 else form
        shape = huge.x["x"].shape if block == "x" else (d, d)
        bad = (np.nan, np.inf, -np.inf)[k % 3 if k < 15 else rng.integers(3)]
        index = tuple(rng.integers(0, n) for n in shape)
        with pytest.raises(optim.NumericError):
            _bundle(state, 32 + k, form, scale=1e200, poison=(block, index, bad))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("name", list(optim.OPTIMIZERS))
def test_step_that_overflows_is_refused_and_moves_nothing(name):
    # every entry of each bundle is finite, so making it passes; the S
    # or the angle the step forms from it is not: W = I gives S = G - G^T,
    # whose off-diagonal entries are +-3e308, and alpha = 4 takes the
    # bundled S of +-1e308 past the largest double
    kind = optim.OPTIMIZERS[name]
    d = 6
    sign = np.triu(np.ones((d, d)), 1)
    sign -= sign.T
    for alpha, pack in ((1e-2, optim.GradPack(w=1.5e308 * sign, x={"x": np.ones((3, 3))})),
                        (4.0, optim.GradPack(skew=1e308 * sign, x={"x": np.ones((3, 3))}))):
        state = make_state(d=d, alpha=alpha,
                           rule=None if kind is None else optim.SelectionRule(kind))
        state.w[...] = np.eye(d)
        x0 = state.x["x"].copy()
        with pytest.raises(optim.NumericError):
            optim.step(state, pack)
        assert state.k == 0 and state.last_coords == ()
        assert np.array_equal(state.w, np.eye(d)) and np.array_equal(state.x["x"], x0)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("kind", ["gauss_southwell", "block_gs"])
def test_greedy_step_refuses_an_s_with_a_nan_on_its_diagonal(kind):
    # W rotates columns 1 and 2 by 45 degrees and G's first column is
    # 1.5e308 (e_1 + e_2): A[0, 0] overflows, S[0, 0] = inf - inf is NaN
    # and every other entry of S is 0, so the first greedy pick lands on
    # it; the block rule would have 2 picks
    d = 4
    c = math.sqrt(0.5)
    w = np.eye(d)
    w[:2, :2] = [[c, -c], [c, c]]
    g = np.zeros((d, d))
    g[:2, 0] = 1.5e308
    state = optim.OptimizerState(w=w, x={}, schedule=optim.StepSchedule("fixed", 0.1),
                                 rule=optim.SelectionRule(kind, block_fraction=0.5))
    w0 = w.copy()
    with pytest.raises(optim.NumericError):
        optim.srcd_step(state, optim.GradPack(w=g))
    assert state.k == 0 and np.array_equal(state.w, w0)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_dense_step_refuses_an_expm_that_overflows():
    # -alpha S / 2 is finite, with a 1-norm near 2^100: scaling and
    # squaring overflows to NaN, and the step refuses before W moves
    d = 6
    s = random_grads(make_state(d=d), seed=41).w
    s -= s.T
    s *= 2.0 ** 101 / np.abs(s).sum(axis=0).max()
    state = make_state(d=d, alpha=1.0)
    w0, x0 = state.w.copy(), state.x["x"].copy()
    assert not np.isfinite(mf.matrix_expm(s * -0.5)).all()
    with pytest.raises(optim.NumericError):
        optim.srgd_step(state, optim.GradPack(skew=s, x={"x": np.ones((3, 3))}))
    assert state.k == 0
    assert np.array_equal(state.w, w0) and np.array_equal(state.x["x"], x0)


@pytest.mark.parametrize("d", [6, 64])
def test_dense_step_refuses_more_squarings_than_keep_w_orthogonal(d):
    # a finite -alpha S / 2 past theta_17 2^_MAX_SQUARINGS in 1-norm would
    # square its rounding defect off O(d) (at d=6, 2^30 left 3e-7 and
    # 2^50 left 0.35); the expm is NaN there and the step refuses it,
    # while a norm just under the cap keeps the defect <= 1e-8
    s = random_grads(make_state(d=d), seed=42).w
    s -= s.T
    s /= np.abs(s).sum(axis=0).max()
    cap = mf._TAYLOR[-1][1] * 2.0 ** mf._MAX_SQUARINGS
    g_x = {"x": np.ones((3, 3))}
    for norm in (2.0 ** 30, 2.0 ** 50, cap * (1 + 1e-13)):
        state = make_state(d=d, alpha=1.0)
        w0, x0 = state.w.copy(), state.x["x"].copy()
        assert np.isnan(mf.matrix_expm(s * -norm)).all()
        with pytest.raises(optim.NumericError):
            optim.srgd_step(state, optim.GradPack(skew=s * (2.0 * norm), x=g_x))
        assert state.k == 0
        assert np.array_equal(state.w, w0) and np.array_equal(state.x["x"], x0)
    state = make_state(d=d, alpha=1.0)
    optim.srgd_step(state, optim.GradPack(skew=s * (2.0 * cap * (1 - 1e-13)), x=g_x))
    assert state.k == 1
    assert mf.orthogonality_defect(state.w) <= 1e-8


def test_gradpack_is_frozen_and_keeps_its_sums():
    state = make_state(d=7)
    g = random_grads(state, seed=33)
    skew = mf.skew_grad(state.w, g.w)
    # two X blocks: their sums are added in block order, after ||S||^2/4
    x = {"x": g.x["x"], "y": 3.0 * g.x["x"][:2]}
    pack = optim.GradPack(skew=skew, x=x)
    want = float(np.vdot(skew, skew)) / 4.0 + sum(
        [float(np.sum(arr * arr)) for arr in x.values()])
    assert pack.norm_sq == want
    g_pack = optim.GradPack(w=g.w, x=x)
    assert g_pack.norm_sq is None
    for gone in ("w_sq", "skew_sq", "x_sq"):
        assert not hasattr(g_pack, gone) and not hasattr(pack, gone)
    for attr in ("w", "skew", "x", "norm_sq"):
        with pytest.raises(AttributeError):
            setattr(pack, attr, None)


def _parent_partials(w, g):
    a = w.T @ g
    rows, cols = np.triu_indices(w.shape[0], k=1)
    return (a[rows, cols] - a[cols, rows]) / math.sqrt(2.0)


@pytest.mark.parametrize("d", [5, 8, 64, 520])
def test_skew_picks_match_all_partials(d):
    rng = np.random.default_rng(40 + d)
    w0 = random_w(d, seed=d)
    g = rng.standard_normal((d, d))
    skew = mf.skew_grad(w0, g)
    assert np.array_equal(skew.T, -skew)
    v = mf.all_partials(w0, g)
    # the same arithmetic as forming W^T G and gathering both triangles
    assert np.array_equal(v, _parent_partials(w0, g))
    assert float(np.vdot(skew, skew)) / 4.0 == pytest.approx(float(v @ v), rel=1e-13)
    alpha = 0.01
    for rule in (optim.SelectionRule("gauss_southwell"),
                 optim.SelectionRule("block_gs", block_fraction=0.1)):
        results = []
        for grads in (optim.GradPack(w=g), optim.GradPack(skew=skew)):
            state = optim.OptimizerState(w=w0.copy(), x={},
                                         schedule=optim.StepSchedule("fixed", alpha),
                                         rule=rule)
            optim.srcd_step(state, grads)
            results.append((state.last_coords, state.w))
        if rule.kind == "gauss_southwell":
            coords = [select_gauss_southwell(v)]
        else:
            coords = naive_block_gs(v, rule.block_size(v.size), d)
        want = w0.copy()
        for i in coords:
            want = mf.givens_update(want, i, -alpha * v[i - 1])
        for last, w in results:
            assert last == tuple(coords)
            assert np.array_equal(w, want)


def test_srgd_skew_bundle_is_bitwise_the_dense_formula():
    state = make_state(d=7, alpha=0.05)
    g = random_grads(state, seed=41)
    w0 = state.w.copy()
    a = w0.T @ g.w
    want = w0 @ mf.matrix_expm(-0.05 * ((a - a.T) / 2.0))
    for grads in (g, optim.GradPack(x=g.x, skew=mf.skew_grad(w0, g.w))):
        state.w[...] = w0
        state.k = 0
        optim.srgd_step(state, grads)
        assert np.array_equal(state.w, want)


def test_dense_step_makes_no_linear_solve(monkeypatch):
    # matrix_expm is products only, at every Taylor rung and past the top
    # one, and so is the srgd step through it
    def refuse(*args, **kwargs):
        raise AssertionError("linear solve in the dense step")

    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    a = np.random.default_rng(9).standard_normal((12, 12))
    unit = (a - a.T) / np.abs(a - a.T).sum(axis=0).max()
    for norm in [0.99 * theta for _, theta, _ in mf._TAYLOR] + [3.9]:
        assert mf.orthogonality_defect(mf.matrix_expm(norm * unit)) <= 1e-13
    for alpha in (1e-4, 0.5):
        state = make_state(d=12, alpha=alpha)
        optim.srgd_step(state, random_grads(state, seed=3))
        assert mf.orthogonality_defect(state.w) <= 1e-13


@pytest.mark.parametrize("kind", ["gauss_southwell", "block_gs"])
def test_skew_picks_ties_and_zero_gradient(kind):
    # W = I makes S = G - G^T; exact ties go to the smallest coordinate
    d = 6
    g = np.zeros((d, d))
    g[2, 5], g[1, 2], g[0, 3], g[4, 5] = 2.0, -2.0, 2.0, 1.0
    # adjacent doubles that dividing by sqrt(2) rounds to one partial:
    # the tie goes to the earlier coordinate, not the larger |S|
    merged = np.zeros((d, d))
    merged[0, 4], merged[1, 3] = 1.5000000000000004, 1.5000000000000007
    assert merged[0, 4] / math.sqrt(2.0) == merged[1, 3] / math.sqrt(2.0)
    rule = optim.SelectionRule(kind, block_fraction=0.2)
    for grad in (g, g.T.copy(), merged, np.zeros((d, d))):
        v = mf.all_partials(np.eye(d), grad)
        if kind == "gauss_southwell":
            want = (select_gauss_southwell(v),)
        else:
            want = tuple(naive_block_gs(v, rule.block_size(v.size), d))
        for pack in (optim.GradPack(w=grad),
                     optim.GradPack(skew=mf.skew_grad(np.eye(d), grad))):
            state = optim.OptimizerState(w=np.eye(d), x={},
                                         schedule=optim.StepSchedule("fixed", 0.1),
                                         rule=rule)
            optim.srcd_step(state, pack)
            assert state.last_coords == want
    assert want[0] == 1  # all-zero gradient: coordinate 1
    assert np.array_equal(state.w, np.eye(d))


def test_for_rnn_state_shares_parameter_memory():
    params = rnn.init_params(8, 5, 4, seed=18)
    state = optim.OptimizerState.for_rnn(params, optim.StepSchedule("fixed", 1e-3),
                                         rule=optim.SelectionRule("uniform"), seed=0)
    assert state.w is params.w
    state.x["w_in"][0, 0] = 123.0
    assert params.w_in[0, 0] == 123.0
    assert set(state.x) == {"w_in", "w_out", "b_out", "b_mod"}


# ---------------------------------------------------------------------------
# synthetic problem
# ---------------------------------------------------------------------------

def test_synthetic_problem_construction():
    prob = optim.SyntheticProblem.make(12, (4, 4), noise_std=0.0, seed=19)
    s = np.linalg.svd(prob.a, compute_uv=False)
    assert s[0] == pytest.approx(1.0)           # sigma_max = 1 by construction
    assert s[-1] == pytest.approx(0.5)
    assert np.linalg.det(prob.q) == pytest.approx(1.0)
    assert np.allclose(prob.b, prob.q @ prob.a, atol=1e-15)
    again = optim.SyntheticProblem.make(12, (4, 4), noise_std=0.0, seed=19)
    assert np.array_equal(prob.a, again.a)


def test_synthetic_minimum_is_zero():
    prob = optim.SyntheticProblem.make(10, (3, 3), seed=20)
    assert prob.loss(prob.c, prob.q) == pytest.approx(0.0, abs=1e-25)
    assert prob.grad_norm_sq(prob.c, prob.q) == pytest.approx(0.0, abs=1e-22)
    grads = prob.grads(prob.c, prob.q)
    assert np.allclose(grads.w, np.zeros_like(grads.w), atol=1e-12)
    # elsewhere the loss is positive
    x0, w0 = prob.init(seed=21)
    assert prob.loss(x0, w0) > 0.1


def test_synthetic_grads_match_finite_differences():
    prob = optim.SyntheticProblem.make(7, (3, 3), seed=22)
    x, w = prob.init(seed=23)
    grads = prob.grads(x, w)
    # X block: plain Euclidean finite differences
    for idx in ((0, 0), (1, 2), (2, 1)):
        fd = central_diff(lambda: prob.loss(x, w), x, idx)
        assert grads.x["x"][idx] == pytest.approx(fd, rel=1e-6, abs=1e-8)
    # W block: directional derivative along basis geodesics equals the
    # Riemannian partial computed from the Euclidean gradient
    v = mf.all_partials(w, grads.w)
    for i in (1, 5, mf.num_coords(7)):
        def along(t=0.0, i=i):
            return prob.loss(x, mf.givens_update(w, i, t))
        h = 1e-6
        fd = (along(h) - along(-h)) / (2 * h)
        assert v[i - 1] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_synthetic_grad_norm_matches_partials():
    prob = optim.SyntheticProblem.make(9, (4, 4), seed=24)
    x, w = prob.init(seed=25)
    grads = prob.grads(x, w)
    v = mf.all_partials(w, grads.w)
    want = float(np.sum((x - prob.c) ** 2) + v @ v)
    assert prob.grad_norm_sq(x, w) == pytest.approx(want, rel=1e-12)


def test_synthetic_noise_is_unbiased_additive():
    prob = optim.SyntheticProblem.make(6, (3, 3), noise_std=0.5, seed=26)
    x, w = prob.init(seed=27)
    clean = prob.grads(x, w)
    rng = np.random.default_rng(28)
    reps = 4000
    acc_w = np.zeros_like(clean.w)
    acc_x = np.zeros_like(clean.x["x"])
    sq_w = 0.0
    for _ in range(reps):
        g = prob.grads(x, w, rng=rng)
        acc_w += g.w
        acc_x += g.x["x"]
        sq_w += float(np.sum((g.w - clean.w) ** 2))
    se = 0.5 / math.sqrt(reps)
    assert np.all(np.abs(acc_w / reps - clean.w) < 6 * se)
    assert np.all(np.abs(acc_x / reps - clean.x["x"]) < 6 * se)
    var = sq_w / (reps * clean.w.size)
    assert var == pytest.approx(0.25, rel=0.1)  # std 0.5 per entry
    # without an rng the gradient is exact even when noise_std > 0
    assert np.array_equal(prob.grads(x, w).w, clean.w)


@pytest.mark.parametrize("noise_std", [0.0, 0.3])
def test_synthetic_evaluate_is_the_three_methods_bitwise(noise_std):
    prob = optim.SyntheticProblem.make(7, (3, 3), noise_std=noise_std, seed=31)
    x, w = prob.init(seed=32)
    x_in, w_in = x.copy(), w.copy()
    loss, gnormsq, grads = prob.evaluate(x, w)
    assert loss == prob.loss(x, w)
    assert gnormsq == prob.grad_norm_sq(x, w)
    want = prob.grads(x, w)
    assert grads.w.tobytes() == want.w.tobytes()
    assert grads.x["x"].tobytes() == want.x["x"].tobytes()
    # with noise from the helper: the same draws, W block first, then X
    rng_a, rng_b = np.random.default_rng(33), np.random.default_rng(33)
    loss_n, gnormsq_n, noisy = prob.evaluate(x, w, next(prob.noise(1, rng_a)))
    want = prob.grads(x, w, rng=rng_b)
    assert (loss_n, gnormsq_n) == (loss, gnormsq)
    assert noisy.w.tobytes() == want.w.tobytes()
    assert noisy.x["x"].tobytes() == want.x["x"].tobytes()
    assert rng_a.random() == rng_b.random()  # as many draws taken
    assert np.array_equal(x, x_in) and np.array_equal(w, w_in)


def test_synthetic_state_wiring():
    prob = optim.SyntheticProblem.make(8, (3, 3), seed=29)
    sched = optim.StepSchedule("polynomial", 0.5, power=0.75, offset=100.0,
                               robbins_monro=True)
    state = prob.state(sched, rule=optim.SelectionRule("uniform"), seed=30)
    assert mf.orthogonality_defect(state.w) <= 1e-13
    assert np.linalg.det(state.w) == pytest.approx(1.0)
    x0, w0 = prob.init(seed=30)
    assert np.array_equal(state.x["x"], x0)
    assert np.array_equal(state.w, w0)
    grads = prob.grads(state.x["x"], state.w)
    before = prob.loss(state.x["x"], state.w)
    for _ in range(50):
        grads = prob.grads(state.x["x"], state.w)
        optim.srcd_step(state, grads)
    assert prob.loss(state.x["x"], state.w) < before
