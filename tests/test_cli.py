import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from configparser import ConfigParser
from pathlib import Path

import numpy as np
import pytest

import orthocd
from orthocd import analysis, blas, cli, copytask, manifold, optim, rnn

import oracles


def run_main(args, tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHOCD_RUNS", str(tmp_path / "runs"))
    return cli.main(args)


TINY = ["--preset", "custom", "--d", "8", "--batch", "2", "--copy_len", "2",
        "--lag", "4", "--iterations", "6"]


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def test_defaults_are_desk_preset():
    cfg = cli.parse_config()
    assert (cfg.alphabet, cfg.copy_len, cfg.lag, cfg.batch, cfg.d) == \
        (9, 5, 100, 32, 64)
    assert cfg.optimizer == "srcd-gs"
    assert cfg.alpha0 == 2e-4


def test_paper_preset_overrides_task_keys():
    cfg = cli.parse_config(overrides={"preset": "paper"})
    assert (cfg.alphabet, cfg.copy_len, cfg.lag, cfg.batch, cfg.d) == \
        (9, 10, 1000, 128, 190)


def test_file_then_flags_precedence(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[task]\npreset = paper\nlag = 500\n\n[schedule]\nalpha0 = 1e-3\n")
    cfg = cli.parse_config(str(path))
    assert cfg.lag == 500          # file key beats the preset value
    assert cfg.copy_len == 10      # untouched keys keep the preset
    assert cfg.alpha0 == 1e-3
    cfg2 = cli.parse_config(str(path), overrides={"lag": "42"})
    assert cfg2.lag == 42          # flag beats file


def test_config_error_cases(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(tmp_path / "missing.ini"))
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[training]\nfoo = 1\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(bad_section))
    wrong_home = tmp_path / "b.ini"
    wrong_home.write_text("[task]\nalpha0 = 1e-3\n")  # key in the wrong section
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(wrong_home))
    bad_value = tmp_path / "c.ini"
    bad_value.write_text("[run]\niterations = soon\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(bad_value))
    # keys under [DEFAULT] would reach no field, or be blamed on the
    # first real section: the section itself is refused
    defaults_only = tmp_path / "d.ini"
    defaults_only.write_text("[DEFAULT]\nalpha0 = 0.5\niterations = 3\n")
    defaults_and_run = tmp_path / "e.ini"
    defaults_and_run.write_text(defaults_only.read_text() + "\n[run]\nseed = 1\n")
    for path in (defaults_only, defaults_and_run):
        with pytest.raises(cli.ConfigError, match=r"unknown config section \[DEFAULT\]"):
            cli.parse_config(str(path))
    with pytest.raises(cli.ConfigError):
        cli.parse_config(overrides={"preset": "galaxy"})
    for name in ("adam", "sgd"):  # sgd is a bench-only baseline
        with pytest.raises(cli.ConfigError):
            cli.parse_config(overrides={"optimizer": name})
    with pytest.raises(cli.ConfigError):
        cli.parse_config(overrides={"d": "7"})  # odd width cannot host 2x2 blocks
    with pytest.raises(cli.ConfigError):
        cli.parse_config(overrides={"mask": "everything"})
    with pytest.raises(cli.ConfigError):
        cli.parse_config(overrides={"robbins_monro": "true"})  # fixed schedule
    with pytest.raises(cli.ConfigError):
        cli.parse_config(overrides={"alphabet": "1"})  # copytask needs >= 2
    # non-finite schedule values and a non-finite or negative noise_std
    for key, raw in (("power", "nan"), ("power", "inf"), ("offset", "nan"),
                     ("offset", "inf"), ("noise_std", "nan"),
                     ("noise_std", "inf"), ("noise_std", "-0.1")):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(overrides={"schedule": "polynomial", key: raw})
    # block_fraction outside (0, 1] is refused whatever the optimizer,
    # with SelectionRule's message
    for opt, raw in (("srcd-u", "nan"), ("srcd-gs", "0"), ("srgd", "-3"),
                     ("srcd-block-gs", "2")):
        with pytest.raises(cli.ConfigError, match=r"block_fraction must be in \(0, 1\]"):
            cli.parse_config(overrides={"optimizer": opt, "block_fraction": raw})


def test_former_bench_interface_is_refused(tmp_path, monkeypatch, capsys):
    # the bench subcommand, its [bench] section and its five keys are
    # gone: every config.ini written while they existed ends in that
    # section, and it is refused as unknown, like the flags and the
    # subcommand, with exit 1 and no run dir
    old = tmp_path / "old.ini"
    old.write_text(cli.config_to_ini(cli.parse_config(overrides=_overrides(TINY)))
                   + "[bench]\nbench_dims = 64,256,1024\nbench_phase_d = 190\n"
                   "bench_reps = 30\nbench_warmup = 5\nbench_batch = 32\n")
    assert run_main(["train", "--config", str(old)], tmp_path, monkeypatch) == 1
    assert "unknown config section [bench]" in capsys.readouterr().err
    for key, raw in (("bench_dims", "8,16"), ("bench_phase_d", "8"),
                     ("bench_reps", "30"), ("bench_warmup", "5"),
                     ("bench_batch", "2")):
        assert run_main(["train", *TINY, f"--{key}", raw],
                        tmp_path, monkeypatch) == 1
    assert run_main(["bench"], tmp_path, monkeypatch) == 1
    assert not (tmp_path / "runs").exists()


def test_retired_reorth_every_is_refused(tmp_path, monkeypatch, capsys):
    # no step reorthogonalizes, so the key that scheduled srgd's repair
    # is gone: a config.ini written while it existed, and the flag, are
    # refused as unknown, with exit 1 and no run dir
    ini = cli.config_to_ini(cli.parse_config(overrides=_overrides(TINY)))
    old = tmp_path / "old.ini"
    old.write_text(ini.replace("\n\n[schedule]", "\nreorth_every = 1000\n\n[schedule]"))
    assert "block_fraction = 0.005\nreorth_every = 1000\n" in old.read_text()
    assert run_main(["train", "--config", str(old)], tmp_path, monkeypatch) == 1
    assert "unknown key 'reorth_every' in section [optimizer]" in capsys.readouterr().err
    for raw in ("5", "-1"):
        assert run_main(["train", *TINY, "--optimizer", "srgd", "--reorth_every", raw],
                        tmp_path, monkeypatch) == 1
    assert not (tmp_path / "runs").exists()
    # the state keeps the keyword perfbench's probes pass, for None only
    schedule = optim.StepSchedule("fixed", 1e-3)
    assert optim.OptimizerState(w=np.eye(4), x={}, schedule=schedule,
                                reorth_every=None).reorth_every is None
    with pytest.raises(ValueError, match="reorth_every"):
        optim.OptimizerState(w=np.eye(4), x={}, schedule=schedule, reorth_every=5)


def test_typed_overrides_are_read_by_their_text(tmp_path):
    # a library caller's typed value must be the value its text reads as
    for overrides in ({"d": 64.0}, {"iterations": 2.5}, {"seed": True}, {"out": 5}):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(overrides=overrides)
    # the acceptance suite's dicts resolve as their text does, field by
    # field and type by type, and round-trip through config.ini
    convergence = {"conv_d": 16, "x_dim": 4, "noise_std": 0.1, "seed": 0,
                   "schedule": "polynomial", "alpha0": 1.0, "power": 0.75,
                   "offset": 1000.0, "robbins_monro": True, "iterations": 100_000}
    typed = [convergence, {**convergence, "noise_std": 0.0}]
    typed += [{"preset": "desk", "optimizer": opt, "block_fraction": 0.005,
               "schedule": "fixed", "alpha0": 2e-4, "iterations": 501, "seed": seed}
              for opt in optim.OPTIMIZERS for seed in (0, 2)]
    path = tmp_path / "typed.ini"
    for overrides in typed:
        cfg = cli.parse_config(overrides=overrides)
        text = cli.parse_config(overrides={k: str(v) for k, v in overrides.items()})
        assert [(type(v), v) for v in dataclasses.astuple(cfg)] == \
            [(type(v), v) for v in dataclasses.astuple(text)]
        path.write_text(cli.config_to_ini(cfg))
        assert cli.parse_config(str(path)) == cfg


def test_bool_coercion():
    for raw, want in (("true", True), ("Yes", True), ("1", True),
                      ("false", False), ("off", False), ("0", False)):
        cfg = cli.parse_config(overrides={"schedule": "polynomial",
                                          "robbins_monro": raw})
        assert cfg.robbins_monro is want
    with pytest.raises(cli.ConfigError):
        cli.parse_config(overrides={"robbins_monro": "maybe"})


def test_config_ini_round_trip(tmp_path):
    cfg = cli.parse_config(overrides={
        "preset": "custom", "d": "12", "alpha0": "0.125", "optimizer": "srgd",
        "schedule": "polynomial", "robbins_monro": "true", "conv_d": "8"})
    path = tmp_path / "round.ini"
    path.write_text(cli.config_to_ini(cfg))
    assert cli.parse_config(str(path)) == cfg


def test_config_ini_with_percent_in_out_parses_back(tmp_path, monkeypatch):
    # values are read verbatim: a "%" in --out is not interpolation syntax
    out = tmp_path / "50%"
    assert run_main(["train", *TINY, "--out", str(out)], tmp_path, monkeypatch) == 0
    cfg = cli.parse_config(str(out / "config.ini"))
    assert cfg.out == str(out)
    assert cfg == cli.parse_config(overrides={**_overrides(TINY), "out": str(out)})


@pytest.mark.parametrize("text", [
    "iterations = 3\n",                          # no section header
    "[run]\niterations = 3\niterations = 4\n",  # a duplicate key
], ids=["headerless", "duplicate-key"])
def test_malformed_config_file_is_a_config_error(text, tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert run_main(["train", "--config", str(path)], tmp_path, monkeypatch) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "runs").exists()


def test_readme_config_block_matches_the_config(tmp_path):
    # the README's ini block, comments stripped, is a valid config that
    # names every key, each in its own section, at its default value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text("\n".join(line.split(";", 1)[0].rstrip()
                              for line in block.splitlines()))
    assert cli.parse_config(str(path)) == cli.parse_config()
    parser = ConfigParser()
    parser.read(path)
    assert {s: tuple(parser[s]) for s in parser.sections()} == cli._SECTIONS
    assert {k for s in parser.sections() for k in parser[s]} == \
        {f.name for f in dataclasses.fields(cli.ExperimentConfig)}


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_artifacts(tmp_path, monkeypatch):
    assert run_main(["train", *TINY, "--seed", "3"], tmp_path, monkeypatch) == 0
    (rundir,) = (tmp_path / "runs").iterdir()
    names = {p.name for p in rundir.iterdir()}
    assert names == {"config.ini", "run_meta.json", "trace.csv",
                     "checkpoint.bin", "summary.json"}
    lines = (rundir / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "k,alpha,loss,gnormsq,M_K"
    assert len(lines) == 1 + 6
    meta = json.loads((rundir / "run_meta.json").read_text())
    assert meta["status"] == "done"
    assert meta["command"] == "train"
    assert "numpy" in meta["machine"]
    summary = json.loads((rundir / "summary.json").read_text())
    assert np.isfinite(summary["final_loss"])
    assert summary["baseline_loss"] > 0
    params, seed = rnn.load_checkpoint(rundir / "checkpoint.bin")
    assert seed == 3 and params.d == 8
    # the resolved config written back parses to the same settings
    cfg = cli.parse_config(str(rundir / "config.ini"))
    assert cfg.d == 8 and cfg.seed == 3 and cfg.iterations == 6


def test_train_at_the_largest_seed_round_trips_its_checkpoint(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run_main(["train", *TINY, "--iterations", "1", "--seed", str(2**64 - 1),
                     "--out", str(out)], tmp_path, monkeypatch) == 0
    params, seed = rnn.load_checkpoint(out / "checkpoint.bin")
    assert seed == 2**64 - 1 and params.d == 8


def test_train_eval_matches_forward(tmp_path, monkeypatch):
    # the eval in summary.json is the trained network's forward pass on
    # the [seed, 3] batch
    out = tmp_path / "run"
    assert run_main(["train", *TINY, "--seed", "4", "--out", str(out)],
                    tmp_path, monkeypatch) == 0
    summary = json.loads((out / "summary.json").read_text())
    cfg = cli.parse_config(str(out / "config.ini"))
    params, _ = rnn.load_checkpoint(out / "checkpoint.bin")
    task = cli._task_from(cfg)
    data = copytask.generate_batch(task, np.random.default_rng([cfg.seed, 3]),
                                    mask_mode=cfg.mask)
    trace = rnn.forward(params, copytask.one_hot(data.inputs, task.n_input_classes))
    assert summary["eval_loss"] == rnn.loss(trace.logits, data.targets, data.mask)
    assert summary["accuracy"] == copytask.accuracy(trace.logits, data, task)


@pytest.mark.parametrize("optimizer", optim.OPTIMIZERS)
def test_train_every_optimizer(optimizer, tmp_path, monkeypatch):
    # BPTT hands A = W^T G, so neither the loop nor the step forms W^T G
    calls = []
    real = manifold.skew_grad
    monkeypatch.setattr(manifold, "skew_grad",
                        lambda *args: calls.append(1) or real(*args))
    out = tmp_path / "run"
    assert run_main(["train", *TINY, "--optimizer", optimizer, "--out", str(out)],
                    tmp_path, monkeypatch) == 0
    assert calls == []
    rows = np.genfromtxt(out / "trace.csv", delimiter=",", names=True)
    assert rows.size == 6
    for col in rows.dtype.names:
        assert np.all(np.isfinite(rows[col]))
    params, _ = rnn.load_checkpoint(out / "checkpoint.bin")
    assert manifold.orthogonality_defect(params.w) <= 1e-10


def test_block_keys_reach_only_block_gs(tmp_path, monkeypatch):
    # a block_fraction outside (0, 1] is refused before a run dir exists,
    # whatever the optimizer; a valid one changes only block_gs's outputs
    bad_block = [*TINY, "--iterations", "1", "--block_fraction", "2"]
    for opt in ("srcd-u", "srcd-block-gs"):
        assert run_main(["train", *bad_block, "--optimizer", opt,
                         "--out", str(tmp_path / opt)], tmp_path, monkeypatch) == 1
        assert not (tmp_path / opt).exists()
    for opt in optim.OPTIMIZERS:
        outputs = []
        for extra, out in (([], tmp_path / opt / "default"),
                           (["--block_fraction", "0.5"], tmp_path / opt / "half")):
            assert run_main(["train", *TINY, "--optimizer", opt, *extra,
                             "--out", str(out)], tmp_path, monkeypatch) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("trace.csv", "checkpoint.bin")])
        default, half = outputs
        if opt == "srcd-block-gs":
            assert default[0] != half[0] and default[1] != half[1]
        else:
            assert default == half


@pytest.mark.parametrize("optimizer", ["srcd-gs", "srgd"])
def test_run_meta_records_openblas_threads(tmp_path, monkeypatch, optimizer):
    # a run leaves every OpenBLAS count as it found it (the BPTT holds
    # numpy's only for the call) and records that count; numpy is the
    # one BLAS-backed library the machine block names
    before = blas.thread_counts()
    assert run_main(["train", *TINY, "--optimizer", optimizer],
                    tmp_path, monkeypatch) == 0
    (rundir,) = (tmp_path / "runs").iterdir()
    meta = json.loads((rundir / "run_meta.json").read_text())
    assert blas.thread_counts() == before
    assert meta["machine"]["openblas_threads"] == before
    assert "numpy" in meta["machine"] and "scipy" not in meta["machine"]


def test_train_bitwise_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("ORTHOCD_RUNS", str(tmp_path / "runs"))
    assert cli.main(["train", *TINY, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["train", *TINY, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == \
        (tmp_path / "b" / "checkpoint.bin").read_bytes()


def test_train_desk_smoke_500_iterations(tmp_path, monkeypatch):
    # desk preset, srcd-gs, 500 iterations: loss finite and improved
    assert run_main(["train", "--iterations", "500", "--seed", "0"],
                    tmp_path, monkeypatch) == 0
    (rundir,) = (tmp_path / "runs").iterdir()
    rows = np.genfromtxt(rundir / "trace.csv", delimiter=",", names=True)
    assert rows.size == 500
    losses = rows["loss"]
    assert np.all(np.isfinite(losses))
    assert losses[-1] < losses[0]


def test_train_uniform_coordinates_follow_the_selection_stream(monkeypatch):
    # srcd-u at the desk preset, seed 0: the picks are draws of the
    # [seed, 2] stream alone, whatever form the gradient reaches the
    # step in (the frozen list was recorded from a step handed G)
    picks = []
    real = optim.srcd_step

    def spy(state, grads):
        alpha = real(state, grads)
        picks.append(state.last_coords[0])
        return alpha

    monkeypatch.setattr(optim, "srcd_step", spy)
    cfg = cli.parse_config(None, {"optimizer": "srcd-u", "iterations": 12, "seed": 0})
    cli.run_training(cfg)
    assert picks == [1975, 163, 579, 812, 462, 1213, 1800, 293, 880, 233, 99, 660]
    stream = np.random.default_rng([0, 2])
    assert picks == [int(stream.integers(1, manifold.num_coords(64) + 1))
                     for _ in range(12)]


@pytest.mark.parametrize("name", sorted(optim.OPTIMIZERS))
def test_train_gnormsq_is_the_bundles_sums(monkeypatch, name):
    # the gnormsq column is the bundle's norm_sq, from the sums its check
    # took: ||grad||^2 = vdot(S, S)/4 + sum of np.sum(g*g) over the X
    # blocks bitwise, written out here from the arrays the step is handed
    want = []
    step_name = "srgd_step" if name == "srgd" else "srcd_step"
    real = getattr(optim, step_name)

    def spy(state, grads):
        want.append(float(np.vdot(grads.skew, grads.skew)) / 4.0 + sum(
            float(np.sum(g * g)) for g in grads.x.values()))
        return real(state, grads)

    monkeypatch.setattr(optim, step_name, spy)
    cfg = cli.parse_config(None, {"optimizer": name, "iterations": 5, "seed": 3})
    got = cli.run_training(cfg).grad_norm_sq
    assert len(want) == 5
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name", ["srcd-gs", "srcd-block-gs"])
def test_train_w_path_holds_w_and_one_gradient(name):
    # d = 512 with T*B = 12: the numpy peak of a warm two-iteration run
    # stays under W plus one d x d gradient plus 3/4 of one for the
    # tiles (the selector's SELECT_TILE_BYTES is 1/4) and BPTT's small
    # arrays.  A second d x d array (S beside A, an |S| copy, or the
    # last iteration's S alive through the next BPTT) would pass it
    d = 512
    cfg = cli.parse_config(None, {"preset": "custom", "d": d, "copy_len": 2, "lag": 2,
                                  "batch": 2, "optimizer": name, "iterations": 2})
    cli.run_training(cfg)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        cli.run_training(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * 8 * d * d
    assert optim.SELECT_TILE_BYTES <= 8 * d * d / 4


@pytest.mark.parametrize("command", ["train", "convergence"])
def test_a_step_that_returns_no_alpha_fails_the_run(command, tmp_path, monkeypatch):
    # the alpha column is what the step returns, as a float: a wrapper
    # that drops it raises TypeError, where it once wrote NaN into the
    # alpha and M_K columns, and the run is marked failed
    real = optim.srcd_step

    def spy(state, grads):
        real(state, grads)

    monkeypatch.setattr(optim, "srcd_step", spy)
    out = tmp_path / "none"
    args = ["train", *TINY] if command == "train" else CONV
    with pytest.raises(TypeError):
        run_main([*args, "--out", str(out)], tmp_path, monkeypatch)
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["status"] == "failed" and meta["error"].startswith("TypeError")
    assert not (out / "trace.csv").exists()


def _poison_backward(monkeypatch):
    # inject a NaN into the W gradient: making the gradient bundle must
    # refuse it, and the refusal surface as the numeric exit code
    real = rnn.backward

    def poisoned(*args, **kwargs):
        value, grads = real(*args, **kwargs)
        grads.a[0, 0] = np.nan
        return value, grads

    monkeypatch.setattr(cli.rnn, "backward", poisoned)


def test_exit_codes(tmp_path, monkeypatch):
    # config error
    assert run_main(["train", "--optimizer", "adam"], tmp_path, monkeypatch) == 1
    # usage errors: unknown flag, unknown subcommand, no subcommand
    for argv in (["train", "--bogus", "1"], ["check"], []):
        assert run_main(argv, tmp_path, monkeypatch) == 1
    # I/O failure: output directory path occupied by a file
    blocker = tmp_path / "blocked"
    blocker.write_text("no directory here")
    assert run_main(["train", *TINY, "--out", str(blocker)],
                    tmp_path, monkeypatch) == 3
    # numeric failure
    _poison_backward(monkeypatch)
    assert run_main(["train", *TINY], tmp_path, monkeypatch) == 2


def test_failed_run_is_marked(tmp_path, monkeypatch):
    out = tmp_path / "boom"
    _poison_backward(monkeypatch)
    assert run_main(["train", *TINY, "--out", str(out)],
                    tmp_path, monkeypatch) == 2
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["status"] == "failed"
    assert "error" in meta


def test_step_size_that_overflows_is_a_numeric_failure(tmp_path, monkeypatch, capsys):
    # power 2000 is finite and positive, so the config is valid, but
    # (1 + k/k0)^p overflows at k = 1: exit 2, not a traceback
    out = tmp_path / "overflow"
    args = ["train", *TINY, "--schedule", "polynomial", "--power", "2000",
            "--out", str(out)]
    assert run_main(args, tmp_path, monkeypatch) == 2
    assert capsys.readouterr().err.startswith("numeric failure:")
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["status"] == "failed"
    assert meta["error"].startswith("OverflowError")


def test_train_refuses_to_save_a_w_pushed_off_the_manifold(tmp_path, monkeypatch):
    # no step repairs W now; a defect above 0.5, the most the retired
    # repair took, is refused at the checkpoint's 1e-8 check
    real_step = optim.srgd_step
    defects = []

    def push_off(state, grads):
        alpha = real_step(state, grads)
        if state.k == 3:
            state.w *= 2.0
            defects.append(manifold.orthogonality_defect(state.w))
        return alpha

    monkeypatch.setattr(optim, "srgd_step", push_off)
    out = tmp_path / "run"
    with pytest.raises(ValueError, match="W is not orthogonal"):
        run_main(["train", *TINY, "--optimizer", "srgd", "--out", str(out)],
                 tmp_path, monkeypatch)
    assert defects[0] > 0.5
    assert not (out / "checkpoint.bin").exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["status"] == "failed"
    assert meta["error"].startswith("ValueError: W is not orthogonal")


@pytest.mark.parametrize("exc, status", [(RuntimeError, "failed"),
                                         (KeyboardInterrupt, "interrupted")])
def test_uncaught_error_marks_run(exc, status, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise exc("boom")

    monkeypatch.setattr(cli.rnn, "backward", boom)
    out = tmp_path / "run"
    with pytest.raises(exc):
        run_main(["train", *TINY, "--out", str(out)], tmp_path, monkeypatch)
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["status"] == status
    assert meta["error"] == f"{exc.__name__}: boom"


def test_io_error_marks_run(tmp_path, monkeypatch):
    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.rnn, "save_checkpoint", no_space)
    out = tmp_path / "run"
    assert run_main(["train", *TINY, "--out", str(out)],
                    tmp_path, monkeypatch) == 3
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["status"] == "failed"
    assert "No space left" in meta["error"]


# ---------------------------------------------------------------------------
# sparsity
# ---------------------------------------------------------------------------

def test_sparsity_run(tmp_path, monkeypatch):
    assert run_main(["sparsity", *TINY], tmp_path, monkeypatch) == 0
    (rundir,) = (tmp_path / "runs").iterdir()
    rows = (rundir / "sparsity.csv").read_text().strip().split("\n")
    assert rows[0] == "iteration,frac95,frac99,norm,frac95_abs,frac99_abs"
    assert len(rows) == 3
    first = rows[1].split(",")
    assert first[0] == "0"
    assert 0.0 < float(first[1]) <= 1.0
    n_coords = 8 * 7 // 2
    for name in ("hist_init.csv", "hist_final.csv"):
        hist = np.genfromtxt(rundir / name, delimiter=",", names=True)
        assert int(hist["count"].sum()) == n_coords
    summary = json.loads((rundir / "summary.json").read_text())
    assert set(summary) >= {"frac95_init", "frac95_final", "spread_increased"}


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

CONV = ["convergence", "--schedule", "polynomial", "--alpha0", "0.5",
        "--power", "0.75", "--offset", "100", "--robbins_monro", "true",
        "--conv_d", "6", "--conv_seeds", "2", "--iterations", "300"]


def test_convergence_run(tmp_path, monkeypatch):
    assert run_main(CONV, tmp_path, monkeypatch) == 0
    (rundir,) = (tmp_path / "runs").iterdir()
    rows = np.genfromtxt(rundir / "trace.csv", delimiter=",", names=True)
    assert rows.size == 300
    assert np.all(np.isfinite(rows["M_K"]))
    assert np.all(rows["M_K"] > 0)
    alphas = rows["alpha"]
    assert alphas[0] == pytest.approx(0.5)
    assert np.all(np.diff(alphas) < 0)  # polynomial decay
    summary = json.loads((rundir / "summary.json").read_text())
    assert summary["checkpoints"] == [100]
    assert set(summary["seeds"]) == {"0", "1"}


def _overrides(args):
    return {flag[2:]: raw for flag, raw in zip(args[::2], args[1::2])}


# with a 4 x 4 X the noise of 315, 252 and 60 iterations is drawn per
# call at d = 6, 7 and 16, so 317 iterations end in a partial draw and
# a partial block of diagnostics; at d = 128 each block is one row
@pytest.mark.parametrize("noise_std, conv_d", [("0.1", "6"), ("0", "6"),
                                               ("0.1", "7"), ("0.1", "16"),
                                               ("0", "16"), ("0.1", "128"),
                                               ("0", "128")])
def test_run_convergence_matches_the_three_call_loop(noise_std, conv_d):
    cfg = cli.parse_config(overrides={**_overrides(CONV[1:]), "conv_d": conv_d,
                                      "noise_std": noise_std, "seed": "2",
                                      "iterations": "317"})
    got = cli.run_convergence(cfg, seed=3)
    # at one BLAS thread, as run_convergence holds it: at d = 128 the
    # loss's 16384-entry dot is split across threads otherwise
    with blas.held_threads():
        want = oracles.run_convergence_three_calls(cfg, 3)
    for name, ref in zip(("alphas", "grad_norm_sq", "losses", "m"), want):
        assert getattr(got, name).tobytes() == ref.tobytes(), name


class _CountingRng:
    """A Generator that records the size of each `normal` call."""

    def __init__(self, rng, sizes):
        self._rng, self._sizes = rng, sizes

    def normal(self, loc, scale, size):
        self._sizes.append(size)
        return self._rng.normal(loc, scale, size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("noise_std", ["0.1", "0"])
def test_run_convergence_draws_its_noise_in_blocks(noise_std, monkeypatch):
    n, d, x_dim = 317, 16, 4
    cfg = cli.parse_config(overrides={**_overrides(CONV[1:]), "conv_d": str(d),
                                      "x_dim": str(x_dim), "noise_std": noise_std,
                                      "iterations": str(n)})
    width = d * d + x_dim * x_dim
    rows = optim.NOISE_BLOCK_BYTES // (8 * width)
    assert rows == 60
    sizes, real = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a, **k: _CountingRng(real(*a, **k), sizes))
    cli.run_convergence(cfg, seed=3)
    monkeypatch.undo()
    if cfg.noise_std > 0:  # ceil(n / rows) calls, none past iteration n
        assert sizes == [(rows, width)] * (n // rows) + [(n % rows, width)]
    else:
        assert sizes == []
    # the helper's rng ends where n calls of grads(rng=...) leave it
    problem = optim.SyntheticProblem.make(d, (x_dim, x_dim), noise_std=cfg.noise_std)
    x, w = problem.init(0)
    rng_a, rng_b = np.random.default_rng([3, 5]), np.random.default_rng([3, 5])
    assert sum(1 for _ in problem.noise(n, rng_a)) == n
    for _ in range(n):
        problem.grads(x, w, rng=rng_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_a_non_finite_gradient_stops_the_run_at_its_own_iteration(tmp_path, monkeypatch):
    # the diagnostics wait for the end of a block, the gradient's
    # finiteness check does not: NaN noise at iteration 37, inside the
    # first 60-row block, raises there, and no later step runs
    real_noise, real_step = optim.SyntheticProblem.noise, optim.srcd_step

    def noise(self, n, rng):
        for k, pair in enumerate(real_noise(self, n, rng)):
            if k == 37:
                e_w = pair[0].copy()
                e_w[3, 5] = np.nan
                pair = (e_w, pair[1])
            yield pair

    steps = []
    monkeypatch.setattr(optim.SyntheticProblem, "noise", noise)
    monkeypatch.setattr(optim, "srcd_step",
                        lambda state, grads: steps.append(state.k) or real_step(state, grads))
    args = [*CONV, "--conv_d", "16", "--noise_std", "0.1"]
    cfg = cli.parse_config(overrides=_overrides(args[1:]))
    assert optim.SyntheticProblem.make(16, (4, 4)).block_rows == 60
    with pytest.raises(optim.NumericError):
        cli.run_convergence(cfg, seed=3)
    assert steps == list(range(37))
    out = tmp_path / "c"
    assert run_main([*args, "--out", str(out)], tmp_path, monkeypatch) == 2
    assert json.loads((out / "run_meta.json").read_text())["status"] == "failed"
    assert not (out / "trace.csv").exists()


def test_run_convergence_holds_one_block():
    # the W, R and G copies are one block of 60 rows at conv_d = 16,
    # never n rows: a 6000-iteration run peaks above a 600-iteration
    # one by no more than its n-long arrays grow (the three loop
    # columns, and convergence_metric's work, traced alone) plus 64 kB;
    # n rows of W alone would add 11 MB
    def peak(fn):
        fn()  # first-call imports and caches stay out of the peak
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def run(n):
        cfg = cli.parse_config(overrides={**_overrides(CONV[1:]), "conv_d": "16",
                                          "iterations": str(n)})
        return peak(lambda: cli.run_convergence(cfg, seed=3))

    def metric(n):
        ones = np.ones(n)
        return peak(lambda: analysis.convergence_metric(ones, ones))

    grown = 3 * 8 * (6000 - 600) + metric(6000) - metric(600)
    assert run(6000) - run(600) <= grown + (1 << 16)


def test_trace_csv_is_the_per_cell_format(tmp_path, monkeypatch):
    assert run_main(["train", *TINY, "--out", str(tmp_path / "t")],
                    tmp_path, monkeypatch) == 0
    res = cli.run_training(cli.parse_config(overrides=_overrides(TINY)))
    m_k = analysis.convergence_metric(res.alphas, res.grad_norm_sq)
    assert (tmp_path / "t" / "trace.csv").read_bytes() == oracles.trace_csv_bytes(
        res.alphas, res.losses, res.grad_norm_sq, m_k)
    assert run_main([*CONV, "--out", str(tmp_path / "c")],
                    tmp_path, monkeypatch) == 0
    cfg = cli.parse_config(overrides=_overrides(CONV[1:]))
    res = cli.run_convergence(cfg, cfg.seed)
    assert (tmp_path / "c" / "trace.csv").read_bytes() == oracles.trace_csv_bytes(
        res.alphas, res.losses, res.grad_norm_sq, res.m)


def test_trace_csv_is_written_in_blocks_of_rows(tmp_path):
    # the same bytes as the per-cell writer at every block boundary, and
    # a 100k-row write holds one block of Python floats at a time: its
    # tracemalloc peak was 12.8 MB with whole columns as lists, 0.16 MB
    # in blocks of 1024 rows
    rundir = cli.RunDir("train", cli.parse_config(overrides={"out": str(tmp_path)}))
    rng = np.random.default_rng(35)
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]
    block = cli._CSV_BLOCK_ROWS
    for n in (0, 1, block - 1, block, block + 1, 3 * block + 7, 100_003):
        cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
                for _ in range(4)]
        for col in cols:
            col[:len(special)] = special[:n]
        tracemalloc.start()
        try:
            rundir.write_csv("trace.csv", cli._TRACE_HEADER, (range(n), *cols))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = oracles.trace_csv_bytes(*cols)
        assert (tmp_path / "trace.csv").read_bytes() == want, n
    assert peak <= 1e6


@pytest.mark.parametrize("value", [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                                   1.7e308, 0.1, -2e-4, 1.7976931348623157e308])
def test_csv_row_format_renders_as_cell(value, tmp_path):
    # write_csv formats a row at once, by a format taken from its first
    # row; each cell is what csv_cell renders alone: the row index up to a
    # large k, Python and numpy floats and ints, a string
    rundir = cli.RunDir("train", cli.parse_config(overrides={"out": str(tmp_path)}))
    rows = [(k, value, -value, np.float64(value), np.int64(k % 2**62), "srcd-gs")
            for k in (0, 7, 10**6, 2**63 + 5)]
    rundir.write_csv("cells.csv", ["k", "a", "b", "c", "n", "name"], list(zip(*rows)))
    want = ["k,a,b,c,n,name"] + [",".join(map(oracles.csv_cell, row)) for row in rows]
    assert (tmp_path / "cells.csv").read_text() == "\n".join(want) + "\n"
    rundir.write_csv("empty.csv", ["k"], [()])
    assert (tmp_path / "empty.csv").read_text() == "k\n"


class _Unprintable:
    def __str__(self):
        raise OSError(28, "No space left on device")


def test_a_csv_write_that_fails_partway_leaves_the_old_file(tmp_path):
    # a CSV goes to a temp file that replaces it only when whole, so a
    # write that fails after two blocks of rows went out leaves the
    # previous bytes and no temp file
    rundir = cli.RunDir("train", cli.parse_config(overrides={"out": str(tmp_path)}))
    rundir.write_csv("trace.csv", ["k"], [range(3)])
    old = (tmp_path / "trace.csv").read_bytes()
    n = 3 * cli._CSV_BLOCK_ROWS
    with pytest.raises(OSError, match="No space left"):
        rundir.write_csv("trace.csv", ["k"], [(*range(n - 1), _Unprintable())])
    assert (tmp_path / "trace.csv").read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []


def test_a_checkpoint_write_that_fails_partway_leaves_the_old_file(tmp_path,
                                                                    monkeypatch):
    # interrupted after the header and two blocks went out, the previous
    # checkpoint is still whole and still loads
    params = rnn.init_params(8, 4, 4, seed=1)
    path = tmp_path / "checkpoint.bin"
    rnn.save_checkpoint(path, params, seed=1)
    old = path.read_bytes()
    contiguous = np.ascontiguousarray

    def interrupt_at_w_out(a, *args, **kwargs):
        if a is params.w_out:
            raise KeyboardInterrupt
        return contiguous(a, *args, **kwargs)

    monkeypatch.setattr(np, "ascontiguousarray", interrupt_at_w_out)
    with pytest.raises(KeyboardInterrupt):
        rnn.save_checkpoint(path, params, seed=2)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []
    assert rnn.load_checkpoint(path)[1] == 1


def test_main_runs_git_describe_once_per_process(tmp_path, monkeypatch):
    # the version string and the parser are built once, however many
    # times a process (perfbench's worker, the tests) calls main
    calls = []
    run = subprocess.run

    def counting(argv, *args, **kwargs):
        calls.append(list(argv))
        return run(argv, *args, **kwargs)

    monkeypatch.setattr(cli.subprocess, "run", counting)
    cli._version_string.cache_clear()
    for name in ("a", "b"):
        assert run_main(["train", *TINY, "--out", str(tmp_path / name)],
                        tmp_path, monkeypatch) == 0
    # platform's first uname also goes through subprocess.run: git's only
    git_calls = [argv[:2] for argv in calls if argv[0] == "git"]
    assert git_calls in ([["git", "ls-files"], ["git", "describe"]], [["git", "ls-files"]])
    for name in ("a", "b"):
        meta = json.loads((tmp_path / name / "run_meta.json").read_text())
        assert meta["version"] == cli._version_string()
    assert cli._build_parser() is cli._build_parser()


def test_version_names_a_commit_only_of_a_repository_tracking_the_package(tmp_path):
    # a copy installed inside another project's work tree reports the
    # plain version, not that project's commit; a git checkout that
    # tracks the package adds `+git.<describe>`
    src = Path(cli.__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}

    def git(repo, *args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, env=env, check=True, capture_output=True)

    def version(site):
        out = subprocess.run(
            [sys.executable, "-c", "from orthocd import cli; print(cli._version_string())"],
            cwd=tmp_path, env={**env, "PYTHONPATH": str(site)},
            check=True, capture_output=True, text=True)
        return out.stdout.strip()

    for name, site, track in (("other", ".venv/site-packages", False), ("checkout", "src", True)):
        repo = tmp_path / name
        shutil.copytree(src, repo / site / "orthocd",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (repo / "README").write_text("a project\n")
        git(repo, "init", "-q")
        git(repo, "add", "README", *([site] if track else []))
        git(repo, "commit", "-q", "-m", "first")
        got = version(repo / site)
        if track:
            assert got.startswith(orthocd.__version__ + "+git.")
        else:
            assert got == orthocd.__version__


@pytest.mark.parametrize("args", [
    ["train", *TINY, "--schedule", "polynomial", "--power", "nan"],
    ["train", *TINY, "--offset", "inf"],
    [*CONV, "--noise_std", "nan"],
    ["train", *TINY, "--schedule", "cosine"],  # refused by optim.StepSchedule
    ["train", *TINY, "--seed", "-1"],
    ["train", *TINY, "--seed", str(2**64)],  # past the checkpoint's u64
])
def test_non_finite_values_exit_1_without_a_run_dir(args, tmp_path, monkeypatch):
    assert run_main(args, tmp_path, monkeypatch) == 1
    assert not (tmp_path / "runs").exists()


def test_convergence_requires_robbins_monro(tmp_path, monkeypatch):
    assert run_main(["convergence", "--iterations", "10"],
                    tmp_path, monkeypatch) == 1


def test_convergence_refuses_zero_iterations(tmp_path, monkeypatch):
    args = [*CONV[:-2], "--iterations", "0"]
    assert run_main(args, tmp_path, monkeypatch) == 1
    (rundir,) = (tmp_path / "runs").iterdir()
    meta = json.loads((rundir / "run_meta.json").read_text())
    assert meta["status"] == "failed"
    assert "iterations" in meta["error"]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_console_entry_point(tmp_path):
    # the installed script wires to cli.main
    proc = subprocess.run(
        [sys.executable, "-m", "orthocd.cli", "train", *TINY,
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert (tmp_path / "run" / "trace.csv").exists()


def _outputs_at_one_and_two_threads(args, tmp_path):
    """Run `orthocd <args>` in a subprocess at OPENBLAS_NUM_THREADS=1,
    then 2, check that every CSV the run writes and summary.json agree,
    and return the two run directories."""
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "orthocd.cli", *args, "--out", str(out)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["machine"]["openblas_threads"].get("numpy", int(threads)) \
            == int(threads)
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    assert csvs and csvs == sorted(p.name for p in outs[1].glob("*.csv"))
    for name in csvs:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    # a summary.json may hold the wall time too; every other entry must match
    first, second = (json.loads((o / "summary.json").read_text()) for o in outs)
    first.pop("wall_time_s", None)
    second.pop("wall_time_s", None)
    assert first == second
    return outs


# at d=190, ||S||^2 has 36 100 entries, which OpenBLAS's dot splits across
# two threads; T*B*d^2 is below BPTT_THREADED_MIN_WORK, so BPTT is held
# at one thread and gnormsq is the one sum at stake
D190 = ["--preset", "custom", "--d", "190", "--copy_len", "5", "--lag", "10",
        "--batch", "8", "--iterations", "3", "--optimizer", "srcd-gs"]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_train_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    outs = _outputs_at_one_and_two_threads(["train", *D190], tmp_path)
    assert (outs[0] / "checkpoint.bin").read_bytes() == \
        (outs[1] / "checkpoint.bin").read_bytes()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_sparsity_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the train test's shape: the two probes' BPTT is held as train's is,
    # so the histograms and profiles of the partials match too
    outs = _outputs_at_one_and_two_threads(["sparsity", *D190], tmp_path)
    assert {p.name for p in outs[0].glob("*.csv")} == \
        {"hist_init.csv", "hist_final.csv", "sparsity.csv"}


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_convergence_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at conv_d=128 the oracle's sums and products are wide enough for
    # OpenBLAS to split across two threads; run_convergence holds one
    args = ["convergence", "--schedule", "polynomial", "--alpha0", "1.0",
            "--offset", "1000", "--robbins_monro", "true", "--conv_seeds", "1",
            "--iterations", "200", "--conv_d", "128"]
    _outputs_at_one_and_two_threads(args, tmp_path)


def test_sigterm_marks_run_interrupted(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.Popen(
        [sys.executable, "-m", "orthocd.cli", "train", *TINY,
         "--iterations", "1000000", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        # run_meta.json is written after the handler is in place
        deadline = time.monotonic() + 60
        while not (out / "run_meta.json").exists():
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "run never started"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 128 + signal.SIGTERM, err
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["status"] == "interrupted"
    assert "ended_unix" in meta


def test_main_restores_sigterm_handler(tmp_path, monkeypatch):
    def mine(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, mine)
    try:
        assert run_main(["train", *TINY], tmp_path, monkeypatch) == 0
        assert signal.getsignal(signal.SIGTERM) is mine
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_main_runs_off_the_main_thread(tmp_path, monkeypatch):
    # signal handlers can only be set from the main thread, so main
    # skips the SIGTERM handler there
    monkeypatch.setenv("ORTHOCD_RUNS", str(tmp_path / "runs"))
    codes = []
    worker = threading.Thread(target=lambda: codes.append(cli.main(["train", *TINY])))
    worker.start()
    worker.join(timeout=120)
    assert codes == [0]


def test_full_precision_csv_cells():
    assert oracles.csv_cell(0.1) == "0.10000000000000001"
    assert float(oracles.csv_cell(2e-4)) == 2e-4
    assert oracles.csv_cell(3) == "3"
    assert oracles.csv_cell("srgd") == "srgd"
