import math
import re

import numpy as np
import pytest

from orthocd import copytask as ct
from orthocd import rnn


def test_config_derived_dimensions():
    cfg = ct.CopyTaskConfig(alphabet=9, copy_len=10, lag=1000, batch=128)
    assert cfg.seq_len == 1020  # L + 2K
    assert cfg.n_input_classes == 11   # letters + blank + start
    assert cfg.n_output_classes == 10  # letters + blank
    assert cfg.blank == 9
    assert cfg.start == 10


def test_named_presets_frozen():
    assert ct.PAPER == ct.CopyTaskConfig(alphabet=9, copy_len=10, lag=1000, batch=128)
    assert ct.DESK == ct.CopyTaskConfig(alphabet=9, copy_len=5, lag=100, batch=32)


def test_config_validation():
    with pytest.raises(ValueError):
        ct.CopyTaskConfig(alphabet=1, copy_len=5, lag=10, batch=2)
    with pytest.raises(ValueError):
        ct.CopyTaskConfig(alphabet=9, copy_len=0, lag=10, batch=2)
    with pytest.raises(ValueError):
        ct.CopyTaskConfig(alphabet=9, copy_len=5, lag=-1, batch=2)
    with pytest.raises(ValueError):
        ct.CopyTaskConfig(alphabet=9, copy_len=5, lag=10, batch=0)


def test_batch_layout_hand_example():
    cfg = ct.CopyTaskConfig(alphabet=3, copy_len=2, lag=4, batch=1)
    data = ct.generate_batch(cfg, rng=np.random.default_rng(0))
    seq = data.inputs[0]
    k, lag, blank, start = 2, 4, cfg.blank, cfg.start
    letters = seq[:k]
    assert np.all(letters < 3)
    # [letters][L blanks][start][K-1 blanks]
    expect = np.concatenate([letters, [blank] * lag, [start], [blank] * (k - 1)])
    assert np.array_equal(seq, expect)
    # targets: [L+K blanks][letters]
    expect_t = np.concatenate([[blank] * (lag + k), letters])
    assert np.array_equal(data.targets[0], expect_t)


@pytest.mark.parametrize("seed", range(6))
def test_batch_structure_random_configs(seed):
    rng = np.random.default_rng(seed)
    cfg = ct.CopyTaskConfig(
        alphabet=int(rng.integers(2, 12)),
        copy_len=int(rng.integers(1, 9)),
        lag=int(rng.integers(0, 40)),
        batch=int(rng.integers(1, 9)))
    data = ct.generate_batch(cfg, rng)
    k, lag = cfg.copy_len, cfg.lag
    assert data.inputs.shape == data.targets.shape == (cfg.batch, cfg.seq_len)
    assert data.inputs.dtype == np.int64 and data.targets.dtype == np.int64
    assert np.all((data.inputs[:, :k] >= 0) & (data.inputs[:, :k] < cfg.alphabet))
    assert np.all(data.inputs[:, k:k + lag] == cfg.blank)
    assert np.all(data.inputs[:, k + lag] == cfg.start)
    assert np.all(data.inputs[:, k + lag + 1:] == cfg.blank)
    assert np.all(data.targets[:, :lag + k] == cfg.blank)
    assert np.array_equal(data.targets[:, lag + k:], data.inputs[:, :k])
    assert np.all(data.targets < cfg.n_output_classes)  # start never a target


def test_mask_modes():
    cfg = ct.CopyTaskConfig(alphabet=4, copy_len=3, lag=5, batch=2)
    full = ct.generate_batch(cfg, rng=np.random.default_rng(1), mask_mode="full")
    assert full.mask.shape == (2, cfg.seq_len)
    assert np.all(full.mask)
    recall = ct.generate_batch(cfg, rng=np.random.default_rng(1), mask_mode="recall")
    assert np.all(~recall.mask[:, :cfg.lag + cfg.copy_len])
    assert np.all(recall.mask[:, cfg.lag + cfg.copy_len:])
    with pytest.raises(ValueError):
        ct.generate_batch(cfg, np.random.default_rng(1), mask_mode="everything")


def test_generate_batch_deterministic_per_seed():
    cfg = ct.DESK
    a = ct.generate_batch(cfg, rng=np.random.default_rng(7))
    b = ct.generate_batch(cfg, rng=np.random.default_rng(7))
    assert np.array_equal(a.inputs, b.inputs)
    c = ct.generate_batch(cfg, rng=np.random.default_rng(8))
    assert not np.array_equal(a.inputs, c.inputs)


def test_letters_cover_alphabet():
    cfg = ct.CopyTaskConfig(alphabet=5, copy_len=4, lag=2, batch=64)
    data = ct.generate_batch(cfg, rng=np.random.default_rng(2))
    assert set(np.unique(data.inputs[:, :4])) == set(range(5))


def test_one_hot():
    idx = np.array([[0, 2], [1, 0]])
    oh = ct.one_hot(idx, 3)
    assert oh.shape == (2, 2, 3)
    assert oh.dtype == np.float64
    assert np.array_equal(oh.argmax(axis=-1), idx)
    assert np.all(oh.sum(axis=-1) == 1.0)


def test_baseline_loss_frozen_values():
    # K ln(N) / T with T = L + 2K
    assert ct.baseline_loss(ct.PAPER) == pytest.approx(
        10 * math.log(9) / 1020, abs=1e-15)
    assert ct.baseline_loss(ct.DESK) == pytest.approx(
        5 * math.log(9) / 110, abs=1e-15)


def test_blank_predictor_achieves_baseline():
    # deterministic blank away from the recall window, uniform over the
    # alphabet inside it: the strategy whose loss the baseline states
    cfg = ct.DESK
    data = ct.generate_batch(cfg, rng=np.random.default_rng(3))
    logits = np.full((cfg.batch, cfg.seq_len, cfg.n_output_classes), -1e9)
    logits[:, :cfg.lag + cfg.copy_len, cfg.blank] = 0.0
    logits[:, cfg.lag + cfg.copy_len:, :cfg.alphabet] = 0.0
    got = rnn.loss(logits, data.targets, data.mask)
    assert got == pytest.approx(ct.baseline_loss(cfg), abs=1e-9)


def test_accuracy_extremes():
    cfg = ct.CopyTaskConfig(alphabet=4, copy_len=3, lag=6, batch=5)
    data = ct.generate_batch(cfg, rng=np.random.default_rng(4))
    perfect = ct.one_hot(data.targets, cfg.n_output_classes) * 10.0
    assert ct.accuracy(perfect, data, cfg) == 1.0
    wrong = -perfect
    assert ct.accuracy(wrong, data, cfg) == 0.0


def test_accuracy_counts_recall_positions_only():
    cfg = ct.CopyTaskConfig(alphabet=4, copy_len=2, lag=3, batch=1)
    data = ct.generate_batch(cfg, rng=np.random.default_rng(5))
    logits = ct.one_hot(data.targets, cfg.n_output_classes) * 10.0
    logits[:, :cfg.lag + cfg.copy_len] = 0.0  # garbage outside recall
    logits[:, :cfg.lag + cfg.copy_len, 0] = 5.0
    assert ct.accuracy(logits, data, cfg) == 1.0
    # break exactly one of the two recall positions
    logits[0, -1] = 0.0
    logits[0, -1, (data.targets[0, -1] + 1) % cfg.n_output_classes] = 9.0
    assert ct.accuracy(logits, data, cfg) == pytest.approx(0.5)


def test_accuracy_rejects_2d_logits():
    # batch-first only: one sequence's (T, classes) logits are refused
    cfg = ct.CopyTaskConfig(alphabet=4, copy_len=2, lag=3, batch=1)
    data = ct.generate_batch(cfg, rng=np.random.default_rng(5))
    logits = ct.one_hot(data.targets, cfg.n_output_classes)
    with pytest.raises(ValueError, match=r"\(7, 5\)"):
        ct.accuracy(logits[0], data, cfg)
    # and (B, T, classes) logits must be the batch's B and T and the
    # task's output classes, not merely broadcast against them
    data = ct.generate_batch(ct.DESK, rng=np.random.default_rng(6))
    for shape in ((1, 110, 10), (32, 7, 10), (32, 110, 3)):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            ct.accuracy(np.zeros(shape), data, ct.DESK)
    assert ct.accuracy(np.zeros((32, 110, 10)), data, ct.DESK) == float(
        (data.targets[:, -5:] == 0).mean())
