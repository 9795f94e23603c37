"""Fast tests of the benchmark itself:

    python3 -m pytest perfbench/tests -q

A tiny-size run of each workload passes its output checks, and every
check fails on a wrong output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import worker  # noqa: E402
from hostspeed import NOMINAL_S, STEP_KERNELS, HostSpeed  # noqa: E402
from tracing import NAME, PARENT, Tracer, duration, self_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = worker.import_program()
cli, copytask, rnn, manifold, optim, analysis, blas = MODULES

_TINY_TRAIN = ("--preset", "custom", "--d", "8", "--copy_len", "2", "--lag", "3",
               "--batch", "4")
TINY = {
    "desk-gs": dict(command=("train", *_TINY_TRAIN, "--optimizer", "srcd-gs"),
                    iterations=3, d=8, task=(9, 2, 3, 4)),
    "paper-u": dict(command=("train", *_TINY_TRAIN, "--optimizer", "srcd-u"),
                    iterations=3, d=8, task=(9, 2, 3, 4)),
    "wide-gs": dict(command=("train", *_TINY_TRAIN[:2], "--d", "12", *_TINY_TRAIN[4:],
                             "--optimizer", "srcd-gs"),
                    iterations=2, d=300, task=(9, 2, 3, 4)),
    "converge-d16": dict(iterations=1000),
}
PROBES = dict(probe_calls=(5, 2, 2), probe_samples=2)


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name], **PROBES)


def run_tiny(name: str, trace: int, tmp_path: Path) -> dict:
    return worker.run(tiny(name), seed=3, seconds=0.0, trace=trace, modules=MODULES,
                      out_root=tmp_path / "runs", span_file=tmp_path / "spans.csv")


def benchmark_names(section: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_its_checks(name, tmp_path):
    result = run_tiny(name, 0, tmp_path)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] > 10
    # set-up time is added by run.py, which starts the processes
    assert set(result["metrics"]) == benchmark_names("end_to_end") - {"setup_s"}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["desk-gs", "converge-d16"])
def test_tiny_traced_run_reports_every_layer(name, tmp_path):
    result = run_tiny(name, 1, tmp_path)
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == benchmark_names("per_layer")
    calls = 2 if name == "desk-gs" else 1
    assert metrics["manifold.all_partials.calls_per_iter"] == calls
    assert metrics["optim.synthetic.calls_per_iter"] == (0 if name == "desk-gs" else 3)
    assert metrics["manifold.givens_update.us"] > 0
    assert (tmp_path / "spans.csv").stat().st_size > 0
    assert not (tmp_path / "runs").exists()


def test_run_py_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "_traces", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-gs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# outputs of real commands, and each check failing on a wrong one
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def train_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("train") / "run"
    worker.run_command(cli, tiny("desk-gs"), 3, out)
    return out


@pytest.fixture(scope="module")
def conv_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("conv") / "run"
    worker.run_command(cli, tiny("converge-d16"), 3, out)
    return out


def test_checkpoint_check(train_out):
    ckpt = checks.read_checkpoint(train_out / "checkpoint.bin")
    checks.check_checkpoint(ckpt, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_checkpoint(ckpt, 4)
    nudged = dict(ckpt, w=ckpt["w"] + 1e-6 * np.eye(ckpt["w"].shape[0]))
    with pytest.raises(checks.CheckFailed, match="W\\^T W"):
        checks.check_checkpoint(nudged, 3)


def test_checkpoint_reader_rejects_a_wrong_length(train_out, tmp_path):
    raw = (train_out / "checkpoint.bin").read_bytes()
    (tmp_path / "short.bin").write_bytes(raw[:-8])
    with pytest.raises(checks.CheckFailed, match="length"):
        checks.read_checkpoint(tmp_path / "short.bin")


def test_train_summary_check(train_out):
    ckpt = checks.read_checkpoint(train_out / "checkpoint.bin")
    summary = checks.load_json(train_out / "summary.json")
    task = tiny("desk-gs").task
    checks.check_train_summary(summary, ckpt, task, 3)
    with pytest.raises(checks.CheckFailed, match="eval_loss"):
        checks.check_train_summary(dict(summary, eval_loss=summary["eval_loss"] * (1 + 1e-8)),
                                   ckpt, task, 3)
    with pytest.raises(checks.CheckFailed, match="baseline_loss"):
        checks.check_train_summary(dict(summary, baseline_loss=summary["baseline_loss"] * 1.01),
                                   ckpt, task, 3)


def test_plain_forward_matches_the_program_on_a_random_batch():
    params = rnn.init_params(6, 11, 10, seed=5)
    ckpt = {k: getattr(params, k) for k in ("w_in", "w", "w_out", "b_out", "b_mod")}
    inputs, targets = checks.copy_batch(9, 3, 4, 5, np.random.default_rng(0))
    trace = rnn.forward(params, copytask.one_hot(inputs, 11))
    want = rnn.loss(trace.logits, targets)
    assert math.isclose(checks.plain_forward_loss(ckpt, inputs, targets), want,
                        rel_tol=checks.LOSS_RTOL)


@pytest.mark.parametrize("out", ["train_out", "conv_out"])
def test_trace_check(out, request):
    trace = checks.read_trace(request.getfixturevalue(out) / "trace.csv")
    checks.check_trace(trace)
    corrupt = {k: list(v) for k, v in trace.items()}
    corrupt["M_K"][len(corrupt["M_K"]) // 2] *= 1 + 1e-9
    with pytest.raises(checks.CheckFailed, match="M_K row"):
        checks.check_trace(corrupt)
    corrupt = {k: list(v) for k, v in trace.items()}
    corrupt["loss"][1] = math.nan
    with pytest.raises(checks.CheckFailed, match="non-finite loss"):
        checks.check_trace(corrupt)


def test_exact_prefix_sums_match_fsum():
    rng = np.random.default_rng(1)
    xs = (rng.standard_normal(300) * 10.0 ** rng.integers(-8, 8, 300)).tolist()
    assert checks.exact_prefix_sums(xs) == [math.fsum(xs[:k + 1]) for k in range(300)]


def test_convergence_check(conv_out):
    summary = checks.load_json(conv_out / "summary.json")
    trace = checks.read_trace(conv_out / "trace.csv")
    problem = optim.SyntheticProblem.make(16, worker.CONV_X_SHAPE,
                                          noise_std=worker.CONV_NOISE, seed=3)
    x0, w0 = problem.init(3)
    args = (3, problem.a, problem.b, problem.c, x0, w0)
    checks.check_convergence(summary, trace, *args)
    entry = summary["seeds"]["3"]
    flat = dict(summary, seeds={"3": dict(entry, M_1000=entry["M_100"])})
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.check_convergence(flat, trace, *args)
    wrong = dict(trace, gnormsq=[trace["gnormsq"][0] * (1 + 1e-8)] + trace["gnormsq"][1:])
    with pytest.raises(checks.CheckFailed, match="row 0 gnormsq"):
        checks.check_convergence(summary, wrong, *args)


def test_same_outputs_check(train_out, tmp_path):
    again = tmp_path / "again"
    shutil.copytree(train_out, again)
    worker.check_same_outputs(train_out, again)
    raw = bytearray((again / "checkpoint.bin").read_bytes())
    raw[-1] ^= 1
    (again / "checkpoint.bin").write_bytes(bytes(raw))
    with pytest.raises(checks.CheckFailed, match="checkpoint.bin"):
        worker.check_same_outputs(train_out, again)


def _stepped(kind: str, d: int):
    """One probe step of `kind`; the probes, W before it, and the state."""
    probes = worker.Probes(optim, d, seed=2)
    w0 = probes.states[kind].w.copy()
    probes._call(kind)
    return probes, w0, probes.states[kind]


def test_coordinate_step_check():
    probes, w0, state = _stepped("uniform", 10)
    (i,) = state.last_coords
    g = probes.grads.w
    checks.check_coordinate_step(w0, g, worker.PROBE_ALPHA, i, state.w)
    with pytest.raises(checks.CheckFailed, match="coordinate"):
        checks.check_coordinate_step(w0, g, 1.01 * worker.PROBE_ALPHA, i, state.w)


def test_greedy_choice_check():
    probes, w0, state = _stepped("greedy", 10)
    (i,) = state.last_coords
    checks.check_greedy_choice(w0, probes.grads.w, i)
    with pytest.raises(checks.CheckFailed, match="argmax"):
        checks.check_greedy_choice(w0, probes.grads.w, i % manifold.num_coords(10) + 1)


@pytest.mark.parametrize("d", [10, checks.TAYLOR_MAX_D + 2])
def test_dense_step_check(d):
    probes, w0, state = _stepped("dense", d)
    g = probes.grads.w
    checks.check_dense_step(w0, g, worker.PROBE_ALPHA, state.w)
    if d <= checks.TAYLOR_MAX_D:
        with pytest.raises(checks.CheckFailed, match="expm"):
            checks.check_dense_step(w0, g, 1.01 * worker.PROBE_ALPHA, state.w)
    with pytest.raises(checks.CheckFailed):
        checks.check_dense_step(w0, g, worker.PROBE_ALPHA, state.w + 1e-6)


def test_coord_pair_matches_the_documented_enumeration():
    d = 7
    pairs = [(j, l) for j in range(d) for l in range(j + 1, d)]
    assert [checks.coord_pair(i, d) for i in range(1, len(pairs) + 1)] == pairs


# ---------------------------------------------------------------------------
# host speed and tracing
# ---------------------------------------------------------------------------

def test_host_slowdown_is_the_geometric_mean_over_kernels():
    host = HostSpeed(("stream",))
    host.sample()
    (_, times), = host.samples
    assert set(times) == {"python", "gemm", "stream"}
    want = math.sqrt(times["python"] / NOMINAL_S["python"] * times["gemm"] / NOMINAL_S["gemm"])
    assert math.isclose(host.slowdown(0.0, math.inf, STEP_KERNELS, window=0.0), want)
    assert math.isclose(host.slowdown(0.0, math.inf, ("stream",), window=0.0),
                        times["stream"] / NOMINAL_S["stream"])
    with pytest.raises(ValueError):
        HostSpeed(("python", "disk"))


def test_host_timed_brackets_the_call_with_samples():
    host = HostSpeed(STEP_KERNELS)
    t0, t1 = host.timed(sum, [1, 2])
    (before, _), (after, _) = host.samples
    assert before <= t0 <= t1 <= after


def test_host_nominal_uses_the_samples_near_the_operation():
    host = HostSpeed(STEP_KERNELS)
    nominal = NOMINAL_S["python"]
    host.samples = [(t, {"python": s * nominal})
                    for t, s in ((0.0, 1.0), (1.0, 2.0), (5.0, 4.0), (10.0, 8.0))]
    python = ("python",)
    assert math.isclose(host.slowdown(4.0, 6.0, python, window=0.5), 4.0)
    assert math.isclose(host.slowdown(4.0, 6.0, python, window=4.0), 3.0)
    assert math.isclose(host.nominal(4.0, 6.0, python), 0.5)


def test_tracer_records_nesting_and_restores_the_program():
    originals = (manifold.all_partials, optim.srcd_step, cli.RunDir.write_csv)
    tracer = Tracer()
    tracer.install(cli, copytask, rnn, manifold, optim, analysis)
    try:
        probes = worker.Probes(optim, 8, seed=0)
        probes._call("greedy")
    finally:
        tracer.uninstall()
    assert (manifold.all_partials, optim.srcd_step, cli.RunDir.write_csv) == originals
    step, partials, givens = tracer.spans
    assert (step[NAME], step[PARENT]) == ("optim.srcd_step", -1)
    assert (partials[NAME], partials[PARENT]) == ("manifold.all_partials", 0)
    assert (givens[NAME], givens[PARENT]) == ("manifold.givens_update", 0)
    assert math.isclose(self_s(step), duration(step) - duration(partials) - duration(givens))
