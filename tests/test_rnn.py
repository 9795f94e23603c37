import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest

from orthocd import blas
from orthocd import manifold as mf
from orthocd import rnn

from oracles import (cayley_solve, central_diff, rnn_backward_per_step,
                     rnn_forward, softmax_xent)


def make_params(d=6, d_in=4, d_out=3, seed=0):
    return rnn.init_params(d, d_in, d_out, seed=seed)


def linear(params):
    """`params` with b_mod = 0, where modReLU is sign(x)|x| = x: the
    linear dynamics, isolated."""
    return dataclasses.replace(params, b_mod=np.zeros(params.d))


# ---------------------------------------------------------------------------
# activation
# ---------------------------------------------------------------------------

def test_modrelu_frozen_values():
    x = np.array([2.0, -2.0, 0.5, -0.5, 0.0])
    b = np.array([-1.0, -1.0, -1.0, -1.0, 3.0])
    out = rnn.modrelu(x, b)
    # |x|+b clipped at 0, sign reattached; dead at x = 0 regardless of b
    assert np.array_equal(out, np.array([1.0, -1.0, 0.0, 0.0, 0.0]))


def test_modrelu_positive_bias_acts_like_shifted_identity():
    x = np.array([0.3, -0.3])
    b = np.array([0.2, 0.2])
    assert np.allclose(rnn.modrelu(x, b), [0.5, -0.5])


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_matches_looped_oracle():
    rng = np.random.default_rng(1)
    params = make_params(seed=2)
    inputs = rng.standard_normal((3, 7, params.d_in))
    for p in (params, linear(params)):
        trace = rnn.forward(p, inputs)
        hidden, logits = rnn_forward(p, inputs)
        assert trace.hidden.shape == (3, 7, params.d)
        assert trace.logits.shape == (3, 7, params.d_out)
        assert np.allclose(trace.hidden, hidden, atol=1e-13)
        assert np.allclose(trace.logits, logits, atol=1e-13)


def test_forward_identity_preserves_hidden_norm():
    # orthogonal W, b_mod = 0 (identity activation), zero input after t = 0
    params = linear(make_params(d=8, d_in=2, seed=3))
    inputs = np.zeros((1, 20, 2))
    inputs[0, 0] = (1.0, -1.0)
    trace = rnn.forward(params, inputs)
    norms = np.linalg.norm(trace.hidden[0], axis=1)
    assert np.allclose(norms, norms[0], atol=1e-12)


def test_rnn_rejects_2d_inputs():
    # batch-first only: a single sequence is refused, naming its shape,
    # not lifted to a batch of one
    rng = np.random.default_rng(4)
    params = make_params(seed=5)
    seq = rng.standard_normal((9, params.d_in))
    targets = rng.integers(0, params.d_out, 9)
    logits = rng.standard_normal((9, params.d_out))
    for call, shape in (
            (lambda: rnn.forward(params, seq), seq.shape),
            (lambda: rnn.logits(params, seq), seq.shape),
            (lambda: rnn.backward(params, seq, targets[None]), seq.shape),
            (lambda: rnn.loss(logits, targets), logits.shape),
            (lambda: rnn.loss(logits[None], targets[None], targets > 0), (9,)),
            (lambda: rnn.backward(params, seq[None], targets), targets.shape)):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            call()


def test_forward_rejects_wrong_input_dim():
    rng = np.random.default_rng(6)
    params = make_params(seed=7)
    inputs = rng.standard_normal((2, 5, params.d_in))
    with pytest.raises(ValueError):
        rnn.forward(params, inputs[:, :, :2])  # wrong d_in


def _batch_with_zero_preactivations():
    # sequence 0 is all zeros and h(-1) = 0, so every one of its
    # preactivations is exactly 0; b_mod > 0 on half the units, where a
    # copysign-style modReLU would give +-b instead of modReLU's 0
    rng = np.random.default_rng(40)
    params = make_params(d=8, seed=41)
    params.b_mod[::2] = 0.25
    params.b_out[:] = rng.standard_normal(params.d_out)
    inputs = rng.standard_normal((3, 9, params.d_in))
    inputs[0] = 0.0
    return params, inputs, rng.integers(0, params.d_out, (3, 9))


def test_forward_hidden_is_modrelu_of_preact_bitwise():
    params, inputs, targets = _batch_with_zero_preactivations()
    trace = rnn.forward(params, inputs)
    # sequence 0's preactivations are exactly 0, so its hidden states
    # must be exactly +0.0: no +-b, no sign bit
    assert np.array_equal(trace.hidden[0], np.zeros_like(trace.hidden[0]))
    assert not np.signbit(trace.hidden[0]).any()
    _, _, preact = rnn_forward(params, inputs, return_preact=True)
    assert np.count_nonzero(preact == 0.0) >= 9 * params.d
    value, _ = rnn.backward(params, inputs, targets)
    assert value == rnn.loss(trace.logits, targets)


def test_logits_equal_forward_logits_bitwise():
    params, inputs, _ = _batch_with_zero_preactivations()
    for p in (params, linear(params)):
        for x in (inputs, inputs[2:3]):
            got = rnn.logits(p, x)
            want = rnn.forward(p, x).logits
            assert got.shape == want.shape == (len(x), 9, params.d_out)
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_uniform_logits_is_log_classes():
    logits = np.zeros((2, 5, 11))
    targets = np.zeros((2, 5), dtype=np.int64)
    assert rnn.loss(logits, targets) == pytest.approx(np.log(11), abs=1e-12)


def test_loss_matches_oracle_and_shift_invariance():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((3, 6, 5))
    targets = rng.integers(0, 5, (3, 6))
    mask = rng.random((3, 6)) < 0.6
    assert rnn.loss(logits, targets, mask) == pytest.approx(
        softmax_xent(logits, targets, mask), abs=1e-12)
    shifted = logits + 37.5
    assert rnn.loss(shifted, targets, mask) == pytest.approx(
        rnn.loss(logits, targets, mask), abs=1e-9)


def test_loss_mask_semantics():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((1, 4, 3))
    targets = rng.integers(0, 3, (1, 4))
    mask = np.array([[True, False, True, False]])
    garbled = logits.copy()
    garbled[0, 1] = 1e6  # masked positions must not affect the value
    garbled[0, 3] = -1e6
    assert rnn.loss(garbled, targets, mask) == pytest.approx(
        rnn.loss(logits, targets, mask), abs=1e-12)
    assert rnn.loss(logits, targets, np.zeros((1, 4), dtype=bool)) == 0.0


def test_loss_extreme_logits_finite():
    logits = np.array([[[1000.0, -1000.0], [-1000.0, 1000.0]]])
    targets = np.array([[0, 0]])
    val = rnn.loss(logits, targets)
    assert np.isfinite(val)
    assert val == pytest.approx(1000.0, rel=1e-6)  # one perfect, one maximally wrong


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def _grad_block(params, grads, block):
    """The Euclidean gradient of one block; for W it is G = W A."""
    return params.w @ grads.a if block == "w" else getattr(grads, block)


def _fd_check(params, inputs, targets, mask, block, n_samples, rng, tol=1e-5):
    _, grads = rnn.backward(params, inputs, targets, mask)
    arr = getattr(params, block)
    got = _grad_block(params, grads, block)
    assert got.shape == arr.shape

    def value():
        trace = rnn.forward(params, inputs)
        return rnn.loss(trace.logits, targets, mask)

    flat = arr.reshape(-1)
    for idx in rng.choice(flat.size, size=min(n_samples, flat.size), replace=False):
        idx = int(idx)
        fd = central_diff(value, flat, idx, h=1e-6)
        an = got.reshape(-1)[idx]
        assert abs(fd - an) <= tol * max(1.0, abs(an)), (block, idx, fd, an)


@pytest.mark.parametrize("block", ["w_in", "w", "w_out", "b_out", "b_mod"])
def test_backward_matches_finite_differences(block):
    rng = np.random.default_rng(10)
    params = make_params(d=6, d_in=4, d_out=3, seed=11)
    inputs = rng.standard_normal((3, 10, 4))
    targets = rng.integers(0, 3, (3, 10))
    _fd_check(params, inputs, targets, None, block, 20, rng)


def test_backward_a_is_w_transpose_of_the_fd_gradient():
    # A = W^T G against G from central differences over every entry of W
    rng = np.random.default_rng(10)
    params = make_params(d=6, d_in=4, d_out=3, seed=11)
    inputs = rng.standard_normal((3, 10, 4))
    targets = rng.integers(0, 3, (3, 10))
    _, grads = rnn.backward(params, inputs, targets)

    def value():
        return rnn.loss(rnn.forward(params, inputs).logits, targets)

    flat = params.w.reshape(-1)
    g_fd = np.array([central_diff(value, flat, idx, h=1e-6)
                     for idx in range(flat.size)]).reshape(params.w.shape)
    want = params.w.T @ g_fd
    assert grads.a.shape == want.shape
    assert np.all(np.abs(grads.a - want) <= 1e-5 * np.maximum(1.0, np.abs(want)))


def test_backward_respects_mask():
    rng = np.random.default_rng(12)
    params = make_params(d=6, d_in=4, d_out=3, seed=13)
    inputs = rng.standard_normal((2, 8, 4))
    targets = rng.integers(0, 3, (2, 8))
    mask = rng.random((2, 8)) < 0.5
    mask[0, 0] = True  # keep at least one position
    for block in ("w", "w_out"):
        _fd_check(params, inputs, targets, mask, block, 12, rng)


def test_backward_loss_equals_forward_loss():
    rng = np.random.default_rng(14)
    params = make_params(seed=15)
    inputs = rng.standard_normal((2, 6, params.d_in))
    targets = rng.integers(0, params.d_out, (2, 6))
    value, _ = rnn.backward(params, inputs, targets)
    trace = rnn.forward(params, inputs)
    assert value == pytest.approx(rnn.loss(trace.logits, targets), abs=1e-14)


def test_backward_zero_input_gives_zero_bmod_grad():
    # pre-activations identically zero: modrelu is dead there and the
    # subgradient convention zeroes the b_mod path
    params = make_params(seed=16)
    inputs = np.zeros((1, 5, params.d_in))
    targets = np.zeros((1, 5), dtype=np.int64)
    _, grads = rnn.backward(params, inputs, targets)
    assert np.array_equal(grads.b_mod, np.zeros(params.d))
    assert np.array_equal(grads.a, np.zeros((params.d, params.d)))
    assert np.array_equal(grads.w_in, np.zeros_like(params.w_in))


def test_backward_gradient_zero_where_mask_empty():
    rng = np.random.default_rng(17)
    params = make_params(seed=18)
    inputs = rng.standard_normal((1, 4, params.d_in))
    targets = rng.integers(0, params.d_out, (1, 4))
    value, grads = rnn.backward(params, inputs, targets,
                                np.zeros((1, 4), dtype=bool))
    assert value == 0.0
    for block in (grads.w_in, grads.a, grads.w_out, grads.b_out, grads.b_mod):
        assert np.array_equal(block, np.zeros_like(block))


def _assert_grads_close(params, value, grads, ref_value, ref, rel=1e-12):
    assert value == pytest.approx(ref_value, rel=rel, abs=0.0)
    for name, want in ref.items():
        got = _grad_block(params, grads, name)
        assert got.shape == want.shape, name
        scale = max(float(np.abs(want).max()), 1e-300)
        assert float(np.abs(got - want).max()) <= rel * scale, name


@pytest.mark.parametrize("activation", ["modrelu", "identity"])
def test_backward_matches_per_step_oracle(activation):
    # "identity" is modReLU with b_mod = 0: the linear dynamics
    rng = np.random.default_rng(20)
    params = make_params(d=8, d_in=5, d_out=4, seed=21)
    if activation == "identity":
        params = linear(params)
    inputs = rng.standard_normal((3, 12, 5))
    targets = rng.integers(0, 4, (3, 12))
    mask = rng.random((3, 12)) < 0.6
    for kwargs in ({}, {"mask": mask}):
        got = rnn.backward(params, inputs, targets, **kwargs)
        want = rnn_backward_per_step(params, inputs, targets, **kwargs)
        _assert_grads_close(params, *got, *want)
    # a batch of one
    got = rnn.backward(params, inputs[1:2], targets[1:2], mask[1:2])
    want = rnn_backward_per_step(params, inputs[1:2], targets[1:2], mask[1:2])
    _assert_grads_close(params, *got, *want)


def test_backward_matches_per_step_oracle_on_one_hot_batches():
    # copy-task-like inputs: one-hot rows, many inactive modReLU units
    rng = np.random.default_rng(22)
    params = make_params(d=16, d_in=6, d_out=5, seed=23)
    inputs = np.eye(6)[rng.integers(0, 6, (4, 30))]
    targets = rng.integers(0, 5, (4, 30))
    got = rnn.backward(params, inputs, targets)
    want = rnn_backward_per_step(params, inputs, targets)
    _assert_grads_close(params, *got, *want)


def test_backward_peak_memory_is_bounded():
    # the reverse sweep runs in one chunk at this shape: BPTT keeps the
    # hidden states and a chunk buffer as large as them, about 2.3x the
    # (T, B, d) float64 trace, against about 3.5x when the preactivations
    # and dL/dh_out are kept too
    d, bsz, steps, d_in, d_out = 64, 16, 60, 11, 10
    params = rnn.init_params(d, d_in, d_out, seed=24)
    rng = np.random.default_rng(25)
    inputs = np.eye(d_in)[rng.integers(0, d_in, (bsz, steps))]
    targets = rng.integers(0, d_out, (bsz, steps))
    mask = rng.random((bsz, steps)) < 0.5
    rnn.backward(params, inputs, targets, mask)  # first-call allocations
    tracemalloc.start()
    try:
        rnn.backward(params, inputs, targets, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * steps * bsz * d * 8


def _backward_peak_over_trace(d, bsz, steps, d_in=11, d_out=10, seed=24):
    """tracemalloc peak of a second `rnn.backward` call on one-hot
    inputs with a mask, over the size of the (T, B, d) float64 trace."""
    params = rnn.init_params(d, d_in, d_out, seed=seed)
    rng = np.random.default_rng(seed + 1)
    inputs = np.eye(d_in)[rng.integers(0, d_in, (bsz, steps))]
    targets = rng.integers(0, d_out, (bsz, steps))
    mask = rng.random((bsz, steps)) < 0.5
    rnn.backward(params, inputs, targets, mask)  # first-call allocations
    tracemalloc.start()
    try:
        rnn.backward(params, inputs, targets, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (steps * bsz * d * 8)


def test_backward_chunked_peak_memory_is_bounded(monkeypatch):
    # 7 chunks of 32 steps, the last ragged: the hidden states and a
    # small chunk buffer, about 1.4x the trace (2.1x with a full
    # (T, B, d) carry buffer beside the hidden states)
    monkeypatch.setattr(rnn, "CHUNK_ROWS", 1024)
    assert _backward_peak_over_trace(190, 32, 200) <= 1.5


def test_backward_one_chunk_allocates_no_extra_square():
    # d x d is 1.6x the trace at this shape, so an A accumulator that
    # starts from zeros, beside the product it adds, would show: about
    # 3.9x the trace without it, 5.5x with it
    assert rnn.CHUNK_ROWS >= 8 * 20
    assert _backward_peak_over_trace(256, 8, 20) <= 4.0


_GRAD_FIELDS = ("w_in", "a", "w_out", "b_out", "b_mod")


def _one_hot_batch(rng, bsz, steps, d_in, d_out):
    inputs = np.eye(d_in)[rng.integers(0, d_in, (bsz, steps))]
    return inputs, rng.integers(0, d_out, (bsz, steps)), rng.random((bsz, steps)) < 0.6


@pytest.mark.parametrize("bsz, steps", [
    (16, 30),    # T*B fits in one chunk
    (16, 300),   # T*B > CHUNK_ROWS: the sweep runs in chunks, the last ragged
])
def test_workspace_reuse_is_bitwise_and_alias_free(bsz, steps):
    # each call writes every workspace entry before reading it, so a
    # reused workspace holding the last call's states changes no bit
    assert (bsz * steps > rnn.CHUNK_ROWS) == (steps == 300)
    rng = np.random.default_rng(40)
    params = make_params(d=8, d_in=5, d_out=4, seed=41)
    work = rnn.Workspace()
    for _ in range(3):
        inputs, targets, mask = _one_hot_batch(rng, bsz, steps, 5, 4)
        value, grads = rnn.backward(params, inputs, targets, mask, work)
        fresh_value, fresh = rnn.backward(params, inputs, targets, mask)
        assert value == fresh_value
        for name in _GRAD_FIELDS:
            got = getattr(grads, name)
            assert np.array_equal(got, getattr(fresh, name)), name
            for key, buf in work.buffers.items():
                assert not np.shares_memory(got, buf), (name, key)
    assert sorted(work.buffers) == ["chunk", "hidden"]
    assert work.buffers["hidden"].shape == (steps, bsz, 8)


def test_workspace_reallocates_when_a_shape_changes():
    rng = np.random.default_rng(42)
    params = make_params(d=8, d_in=5, d_out=4, seed=43)
    work = rnn.Workspace()

    def call(bsz, steps):
        batch = _one_hot_batch(rng, bsz, steps, 5, 4)
        value, grads = rnn.backward(params, *batch, work=work)
        fresh_value, fresh = rnn.backward(params, *batch)
        assert value == fresh_value
        assert all(np.array_equal(getattr(grads, n), getattr(fresh, n))
                   for n in _GRAD_FIELDS)
        return dict(work.buffers)

    first = call(4, 10)
    same = call(4, 10)
    assert all(same[k] is first[k] for k in first)
    longer = call(4, 12)  # T changes: both, as T*B fits in one chunk
    assert all(longer[k] is not same[k] for k in same)
    wider = call(6, 12)   # B changes
    assert all(wider[k] is not longer[k] for k in longer)
    assert wider["hidden"].shape == wider["chunk"].shape == (12, 6, 8)


def test_backward_workspace_reuse_allocates_no_trace_sized_buffer():
    # a second call with one workspace allocates neither the hidden
    # states nor the chunk buffer (one chunk here, as large as the
    # states), so its peak is below a fresh-workspace call's by about
    # two (T, B, d) float64 arrays: 1.93x at this shape, where the
    # reused call's peak, the loss arrays and the input copies, is 0.36x
    d, bsz, steps = 128, 16, 60
    assert steps * bsz <= rnn.CHUNK_ROWS
    params = rnn.init_params(d, 11, 10, seed=44)
    batch = _one_hot_batch(np.random.default_rng(45), bsz, steps, 11, 10)

    def peak(work):
        tracemalloc.start()
        try:
            rnn.backward(params, *batch, work=work)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rnn.backward(params, *batch)  # first-call allocations
    fresh = peak(None)
    work = rnn.Workspace()
    rnn.backward(params, *batch, work=work)
    assert fresh - peak(work) >= 1.8 * steps * bsz * d * 8


def test_backward_checks_shapes_before_the_recurrence(monkeypatch):
    rng = np.random.default_rng(28)
    params = make_params(seed=29)
    inputs = rng.standard_normal((2, 5, params.d_in))
    targets = rng.integers(0, params.d_out, (2, 5))
    calls = []
    monkeypatch.setattr(rnn, "_recur", lambda *a, **k: calls.append(a))
    out_of_range = targets.copy()
    out_of_range[1, 3] = params.d_out
    for bad_targets, mask, match in (
            (targets[:, :4], None, "targets shape"),
            (out_of_range, None, "out of range"),
            (targets, np.ones((2, 6), dtype=bool), "mask shape")):
        with pytest.raises(ValueError, match=match):
            rnn.backward(params, inputs, bad_targets, mask)
    assert calls == []


@pytest.mark.parametrize("chunk_rows", [
    12,   # span 4: chunks of 4, 4, 4 and a ragged 2 steps
    1,    # span 1: every step is a chunk
    39,   # span 13: the first step, t = 0, is a chunk of its own
])
def test_backward_chunked_sweep(monkeypatch, chunk_rows):
    steps = 14  # batch 3
    rng = np.random.default_rng(30)
    params = make_params(d=8, d_in=5, d_out=4, seed=31)
    inputs = rng.standard_normal((3, steps, 5))
    targets = rng.integers(0, 4, (3, steps))
    mask = rng.random((3, steps)) < 0.6
    for kwargs in ({}, {"mask": mask}):
        one_value, one = rnn.backward(params, inputs, targets, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(rnn, "CHUNK_ROWS", chunk_rows)
            value, grads = rnn.backward(params, inputs, targets, **kwargs)
        want = rnn_backward_per_step(params, inputs, targets, **kwargs)
        _assert_grads_close(params, value, grads, *want)
        # the loss and the w_out, b_out and b_mod arithmetic do not
        # depend on the chunks; A and dW_in sum over them, so they agree
        # with one chunk to 1e-14 of their largest entry
        assert value == one_value
        for name in ("w_out", "b_out", "b_mod"):
            assert np.array_equal(getattr(grads, name), getattr(one, name)), name
        _assert_grads_close(params, value, grads, one_value,
                            {"a": one.a, "w_in": one.w_in}, rel=1e-14)


@pytest.mark.parametrize("chunk_rows, span", [
    (12, 4),   # chunks of 4, 4, 4 and a ragged 2 steps
    (1, 1),    # every step is a chunk, t = 0 included
    (39, 13),  # the last step is a chunk of its own
])
def test_forward_chunked_is_one_chunk_bitwise(monkeypatch, chunk_rows, span):
    # only the forward recurrence runs in chunks here (`backward`'s
    # reverse sweep keeps one chunk), so every output of forward, logits
    # and backward must equal the one-chunk run bitwise; with the sweep
    # chunked too, see test_backward_chunked_sweep
    steps = 14  # batch 3
    params, inputs, _ = _batch_with_zero_preactivations()
    inputs = np.concatenate([inputs, inputs[:, :steps - 9]], axis=1)
    rng = np.random.default_rng(32)
    targets = rng.integers(0, params.d_out, (3, steps))
    mask = rng.random((3, steps)) < 0.6

    def outputs():
        trace = rnn.forward(params, inputs)
        value, grads = rnn.backward(params, inputs, targets, mask)
        return ([trace.hidden, trace.logits,
                 rnn.logits(params, inputs), np.float64(value)]
                + [getattr(grads, name) for name in
                   ("w_in", "a", "w_out", "b_out", "b_mod")])

    one = outputs()
    recur = rnn._recur
    spans = []

    def chunked(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(rnn, "CHUNK_ROWS", chunk_rows)
            spans.append(rnn._span(steps, 3))
            return recur(*args, **kwargs)

    monkeypatch.setattr(rnn, "_recur", chunked)
    got = outputs()
    assert spans == [span] * 3
    for i, (g, w) in enumerate(zip(got, one)):
        assert g.shape == w.shape and np.array_equal(g, w), i


def test_logits_keeps_no_hidden_states():
    # the eval pass at the paper shape holds one chunk of hidden states
    # (4096 rows, 1/32 of them) and of time-major inputs beside the
    # (T, B, d_out) logits: about 0.09x the (T, B, d) float64 states
    # that `forward` keeps, against 1.16x when they were all stored
    d, bsz, steps, d_in, d_out = 190, 128, 1020, 11, 10
    assert rnn._span(steps, bsz) < steps
    params = rnn.init_params(d, d_in, d_out, seed=33)
    rng = np.random.default_rng(34)
    inputs = np.eye(d_in)[rng.integers(0, d_in, (bsz, steps))]
    tracemalloc.start()
    try:
        rnn.logits(params, inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * steps * bsz * d * 8


def _xent_out_of_place(logits, targets, mask, count):
    # the two-array cross-entropy: exp(logits - m) written to a second
    # array beside the difference
    m = logits.max(axis=-1, keepdims=True)
    ez = np.exp(logits - m)
    sez = ez.sum(axis=-1, keepdims=True)
    lse = np.log(sez[..., 0]) + m[..., 0]
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return float((lse - picked)[mask].sum() / count), ez, sez


@pytest.mark.parametrize("bsz, steps, d_out", [(1, 1, 2), (3, 14, 10), (128, 1020, 10)])
def test_xent_in_place_exp_is_bitwise_the_two_array_form(monkeypatch, bsz, steps, d_out):
    # `loss` over logits at scales from tiny to saturating, and `backward`'s
    # loss and gradients (batch-first views of time-major logits), equal
    # the out-of-place form's bits
    rng = np.random.default_rng(35)
    targets = rng.integers(0, d_out, (bsz, steps))
    mask = rng.random((bsz, steps)) < 0.5
    mask[0, 0] = True
    base = rng.standard_normal((bsz, steps, d_out))
    params = rnn.init_params(8, 5, d_out, seed=36)
    inputs = np.eye(5)[rng.integers(0, 5, (bsz, steps))]

    def run():
        losses = [rnn.loss(base * scale, targets, mask) for scale in (1e-8, 1.0, 30.0, 1e3)]
        value, grads = rnn.backward(params, inputs, targets, mask)
        return losses, value, grads

    got = run()
    monkeypatch.setattr(rnn, "_xent", _xent_out_of_place)
    want = run()
    assert np.array(got[0]).tobytes() == np.array(want[0]).tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    for field in dataclasses.fields(got[2]):
        g, w = getattr(got[2], field.name), getattr(want[2], field.name)
        assert g.tobytes() == w.tobytes(), field.name


def test_loss_makes_one_logits_sized_array():
    # at the paper shape (T*B rows far past one chunk) `rnn.loss` holds
    # exp(logits - max) in the one difference array, not beside it:
    # about 1.55x the logits' bytes, against 2.1x with two such arrays
    bsz, steps, d_out = 128, 1020, 10
    rng = np.random.default_rng(37)
    logits = rng.standard_normal((bsz, steps, d_out)) * 3.0
    targets = rng.integers(0, d_out, (bsz, steps))
    mask = rng.random((bsz, steps)) < 0.5
    assert steps * bsz > rnn.CHUNK_ROWS
    tracemalloc.start()
    try:
        rnn.loss(logits, targets, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * logits.nbytes


@pytest.mark.skipif("numpy" not in blas.thread_counts(),
                    reason="numpy's OpenBLAS copy not found")
@pytest.mark.parametrize("d, bsz, steps, held", [(16, 4, 10, True), (512, 8, 20, False)])
def test_bptt_thread_policy(monkeypatch, d, bsz, steps, held):
    # a small BPTT runs with numpy's OpenBLAS at one thread, a large one
    # at the count in force; the count is put back on return
    assert (steps * bsz * d * d < rnn.BPTT_THREADED_MIN_WORK) == held
    before = blas.thread_counts()
    seen = []
    recur = rnn._recur

    def spy(*args, **kwargs):
        seen.append(blas.thread_counts()["numpy"])
        return recur(*args, **kwargs)

    monkeypatch.setattr(rnn, "_recur", spy)
    params = rnn.init_params(d, 3, 2, seed=26)
    rng = np.random.default_rng(27)
    inputs = rng.standard_normal((bsz, steps, 3))
    rnn.forward(params, inputs)
    rnn.logits(params, inputs)
    rnn.backward(params, inputs, rng.integers(0, 2, (bsz, steps)))
    assert seen == [1 if held else before["numpy"]] * 3
    assert blas.thread_counts() == before


def test_grads_x_blocks_cover_unconstrained_parameters():
    params = make_params(seed=19)
    assert set(params.x_blocks()) == {"w_in", "w_out", "b_out", "b_mod"}
    _, grads = rnn.backward(params, np.zeros((1, 2, params.d_in)),
                            np.zeros((1, 2), dtype=np.int64))
    assert set(grads.x_blocks()) == {"w_in", "w_out", "b_out", "b_mod"}


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_cayley_block_init_matches_closed_form():
    # the closed-form blocks against the Cayley transform as a linear
    # solve, with the angles drawn from a twin generator
    w = rnn.cayley_block_init(6, np.random.default_rng(7))
    angles = np.random.default_rng(7).uniform(-np.pi, np.pi, size=3)
    assert np.allclose(w, cayley_solve(angles), rtol=0.0, atol=1e-14)
    off = w.copy()
    for b in range(3):
        off[2 * b:2 * b + 2, 2 * b:2 * b + 2] = 0.0
    assert np.all(off == 0.0)  # strictly block-diagonal


def test_cayley_block_init_properties():
    w = rnn.cayley_block_init(32, np.random.default_rng(20))
    assert mf.orthogonality_defect(w) <= 1e-13
    assert np.linalg.det(w) == pytest.approx(1.0)
    eig = np.linalg.eigvals(w)
    assert np.allclose(np.abs(eig), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        rnn.cayley_block_init(7, np.random.default_rng(20))


def test_init_params_contract():
    params = rnn.init_params(16, 11, 10, seed=21)
    assert params.w_in.shape == (16, 11)
    assert params.w.shape == (16, 16)
    assert params.w_out.shape == (10, 16)
    assert params.b_out.shape == (10,)
    assert params.b_mod.shape == (16,)
    assert mf.orthogonality_defect(params.w) <= 1e-13
    assert np.all(params.b_out == 0.0)
    assert np.all(np.abs(params.b_mod) <= 0.01)
    again = rnn.init_params(16, 11, 10, seed=21)
    assert np.array_equal(params.w_in, again.w_in)
    other = rnn.init_params(16, 11, 10, seed=22)
    assert not np.array_equal(params.w_in, other.w_in)


def test_init_params_he_scaling():
    # empirical std over many entries within 10% of sqrt(2/fan_in)
    params = rnn.init_params(64, 50, 40, seed=23)
    assert params.w_in.std() == pytest.approx(np.sqrt(2.0 / 50), rel=0.1)
    assert params.w_out.std() == pytest.approx(np.sqrt(2.0 / 64), rel=0.1)


def test_params_check_rejects_non_orthogonal_w():
    params = make_params(seed=24)
    params.w *= 1.01
    with pytest.raises(ValueError):
        params.check()


def test_params_check_orthogonality_validation():
    params = make_params(seed=23)
    w = mf.random_orthogonal(params.d, np.random.default_rng(23))
    params.w = w
    params.check()  # fine
    refl = w.copy()
    refl[:, 0] = -refl[:, 0]  # determinant -1 stays in O(d)
    params.w = refl
    params.check()
    params.w = 1.001 * w
    with pytest.raises(ValueError):
        params.check()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    params = rnn.init_params(10, 7, 6, seed=25)
    path = tmp_path / "model.bin"
    rnn.save_checkpoint(path, params, seed=25)
    loaded, seed = rnn.load_checkpoint(path)
    assert seed == 25
    for name in ("w_in", "w", "w_out", "b_out", "b_mod"):
        assert np.array_equal(getattr(params, name), getattr(loaded, name))


def test_checkpoint_rejects_corruption(tmp_path):
    params = rnn.init_params(8, 5, 4, seed=26)
    path = tmp_path / "model.bin"
    rnn.save_checkpoint(path, params, seed=0)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"NOTACKPT" + bytes(raw[8:]))
    with pytest.raises(ValueError, match="magic"):
        rnn.load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.bin"
    broken = bytearray(raw)
    broken[8] = 99
    bad_version.write_bytes(bytes(broken))
    with pytest.raises(ValueError, match="version"):
        rnn.load_checkpoint(bad_version)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(bytes(raw[:-16]))
    with pytest.raises(ValueError, match="truncated"):
        rnn.load_checkpoint(truncated)

    # flip a byte inside the W block: orthogonality validation trips
    w_off = 8 + 21 + 8 * params.w_in.size + 3
    garbled = bytearray(raw)
    garbled[w_off] ^= 0xFF
    garbled_path = tmp_path / "garbled.bin"
    garbled_path.write_bytes(bytes(garbled))
    with pytest.raises(ValueError):
        rnn.load_checkpoint(garbled_path)


def test_checkpoint_rejects_short_header(tmp_path):
    # shorter than the 29-byte header: the magic and two bytes
    params = rnn.init_params(8, 5, 4, seed=26)
    path = tmp_path / "model.bin"
    rnn.save_checkpoint(path, params, seed=0)
    short = tmp_path / "header.bin"
    short.write_bytes(path.read_bytes()[:10])
    with pytest.raises(ValueError, match="truncated checkpoint header"):
        rnn.load_checkpoint(short)


def test_checkpoint_rejects_non_finite_entries(tmp_path):
    params = rnn.init_params(8, 5, 4, seed=27)
    path = tmp_path / "model.bin"
    rnn.save_checkpoint(path, params, seed=0)
    raw = path.read_bytes()
    w_off = 8 + 21 + 8 * params.w_in.size
    b_out_off = w_off + 8 * (params.w.size + params.w_out.size)
    for name, off in (("w", w_off + 8 * 3), ("b_out", b_out_off + 8)):
        broken = bytearray(raw)
        broken[off:off + 8] = np.array([np.nan], dtype="<f8").tobytes()
        broken_path = tmp_path / f"nan_{name}.bin"
        broken_path.write_bytes(bytes(broken))
        with pytest.raises(ValueError, match=f"non-finite entries in {name}$"):
            rnn.load_checkpoint(broken_path)


@pytest.mark.parametrize("dims, tail", [
    ((0, 3, 2), b""),                       # a d = 0 header on a d = 4 file
    ((4, 3, 2), bytes(16)),                 # 16 trailing bytes
    ((2**32 - 1, 2**31 + 3, 2), b""),       # blocks far larger than any file
    ((2**32 - 1, 2**32 - 1, 2), b""),       # a layout whose int64 product wraps
    ((4, 3, 2), None),                      # the last block cut short
], ids=["d0", "trailing", "huge", "wrapped", "truncated"])
def test_checkpoint_length_must_match_the_header(tmp_path, dims, tail):
    params = rnn.init_params(4, 3, 2, seed=28)
    path = tmp_path / "model.bin"
    rnn.save_checkpoint(path, params, seed=0)
    raw = path.read_bytes()
    header = raw[:8] + struct.pack("<BIII", raw[8], *dims) + raw[21:29]
    body = raw[29:-8] if tail is None else raw[29:] + tail
    bad = tmp_path / "bad.bin"
    bad.write_bytes(header + body)
    with pytest.raises(ValueError, match="truncated|trailing bytes"):
        rnn.load_checkpoint(bad)


@pytest.mark.parametrize("d", [0, 1])
def test_checkpoint_refuses_d_below_2(tmp_path, d):
    d_in, d_out = 3, 2
    params = rnn.RnnParams(w_in=np.zeros((d, d_in)), w=np.eye(d),
                           w_out=np.zeros((d_out, d)), b_out=np.zeros(d_out),
                           b_mod=np.zeros(d))
    path = tmp_path / "model.bin"
    with pytest.raises(ValueError, match="d must be >= 2"):
        rnn.save_checkpoint(path, params)
    assert not path.exists()
    # by hand: a file exactly as long as its header lays out
    blocks = (params.w_in, params.w, params.w_out, params.b_out, params.b_mod)
    path.write_bytes(b"ORNNCKP\x00" + struct.pack("<BIIIQ", 1, d, d_in, d_out, 0)
                     + b"".join(block.astype("<f8").tobytes() for block in blocks))
    with pytest.raises(ValueError, match="d must be >= 2"):
        rnn.load_checkpoint(path)
