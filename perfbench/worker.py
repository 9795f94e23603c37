"""One run of one workload, in this process; run.py starts it.

stdout protocol: a line READY once the interpreter has started, the
imports of numpy, scipy and orthocd are done and the arguments are
parsed (run.py times set-up up to that line), then one JSON line with
the run's results.  With --setup-only the process exits after READY.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
TRACES = HERE / "_traces"
PROBE_ALPHA = 1e-4
# the convergence command keeps these at their config defaults
CONV_X_SHAPE, CONV_NOISE = (4, 4), 0.1

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from hostspeed import STEP_KERNELS, HostSpeed  # noqa: E402
from tracing import OUT_BYTES, PHASE, Tracer, duration, self_s  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_program():
    """numpy, scipy and orthocd from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "orthocd" / "__init__.py").is_file():
        raise SystemExit(f"orthocd sources not found under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import orthocd
    from orthocd import analysis, blas, cli, copytask, manifold, optim, rnn
    if not Path(orthocd.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"orthocd imported from {orthocd.__file__}, not {src}")
    return cli, copytask, rnn, manifold, optim, analysis, blas


class Ledger:
    """Operations attempted and failed; a failure is logged to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            print(f"FAILED {label}:\n{traceback.format_exc()}", file=sys.stderr)
            return None


class Probes:
    """srcd_step (uniform and greedy) and srgd_step at the workload's d,
    on a W and G made here from the seed.  Each state is stepped again
    and again; W stays on the manifold, so every call costs the same."""

    KINDS = ("uniform", "greedy", "dense")

    def __init__(self, optim, d: int, seed: int) -> None:
        import numpy as np
        rng = np.random.default_rng([seed, 7])
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        w0 = q * np.where(np.diag(r) < 0, -1.0, 1.0)
        self.grads = optim.GradPack(w=rng.standard_normal((d, d)))
        schedule = optim.StepSchedule("fixed", PROBE_ALPHA)
        rules = {"uniform": optim.SelectionRule("uniform"),
                 "greedy": optim.SelectionRule("gauss_southwell"), "dense": None}
        self.states = {
            kind: optim.OptimizerState(w=w0.copy(), x={}, schedule=schedule,
                                       rule=rules[kind], rng=np.random.default_rng([seed, 8]),
                                       reorth_every=None)
            for kind in self.KINDS}
        self.optim = optim
        # (start, end, calls) of each timed sample
        self.samples: dict[str, list[tuple[float, float, int]]] = {k: [] for k in self.KINDS}

    def _call(self, kind: str, calls: int = 1) -> bool:
        # looked up on the module at call time, so a tracer's wrapper is used
        step = self.optim.srgd_step if kind == "dense" else self.optim.srcd_step
        state, grads = self.states[kind], self.grads
        for _ in range(calls):
            step(state, grads)
        return True

    def check_first(self, ledger: Ledger) -> None:
        """One checked call of each kind."""
        g = self.grads.w
        for kind in self.KINDS:
            state = self.states[kind]
            w0 = state.w.copy()
            if ledger.op(f"{kind} step", self._call, kind) is None:
                continue
            if kind == "dense":
                ledger.op("dense step check", checks.check_dense_step,
                          w0, g, PROBE_ALPHA, state.w)
                continue
            (i,) = state.last_coords
            if kind == "greedy":
                ledger.op("greedy choice check", checks.check_greedy_choice, w0, g, i)
            ledger.op(f"{kind} rotation check", checks.check_coordinate_step,
                      w0, g, PROBE_ALPHA, i, state.w)

    def round(self, spec: Workload, ledger: Ledger, host, tracer=None) -> None:
        for kind, calls in zip(self.KINDS, spec.probe_calls):
            if tracer is not None:
                tracer.phase = kind
            for _ in range(spec.probe_samples):
                t = ledger.op(f"{kind} probe", host.timed, self._call, kind, calls)
                if t is not None:
                    self.samples[kind].append((*t, calls))
        if tracer is not None:
            tracer.phase = "command"


def run_command(cli, spec: Workload, seed: int, out: Path) -> None:
    """One call of the workload's command."""
    argv = spec.argv(seed, str(out))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"orthocd {' '.join(argv)} exited with {code}")


def check_outputs(ledger: Ledger, spec: Workload, seed: int, out: Path, optim) -> None:
    trace = ledger.op("read trace.csv", checks.read_trace, out / "trace.csv")
    if trace is not None:
        ledger.op("trace.csv check", checks.check_trace, trace)
    summary = ledger.op("read summary.json", checks.load_json, out / "summary.json")
    if spec.task is None:
        if trace is not None and summary is not None:
            problem = optim.SyntheticProblem.make(spec.d, CONV_X_SHAPE,
                                                  noise_std=CONV_NOISE, seed=seed)
            x0, w0 = problem.init(seed)
            ledger.op("convergence check", checks.check_convergence, summary, trace,
                      seed, problem.a, problem.b, problem.c, x0, w0)
        return
    ckpt = ledger.op("read checkpoint.bin", checks.read_checkpoint,
                     out / "checkpoint.bin")
    if ckpt is not None:
        ledger.op("checkpoint check", checks.check_checkpoint, ckpt, seed)
        if summary is not None:
            ledger.op("summary check", checks.check_train_summary,
                      summary, ckpt, spec.task, seed)


def check_same_outputs(first: Path, again: Path) -> None:
    """A fixed (config, seed) reproduces its outputs bitwise."""
    for name in ("trace.csv", "checkpoint.bin"):
        if (first / name).exists() or (again / name).exists():
            if (first / name).read_bytes() != (again / name).read_bytes():
                raise checks.CheckFailed(f"{name} differs between two calls")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def gemm_floor_s(spec: Workload, seed: int) -> float:
    """The minimal BPTT GEMMs at the workload's shapes: the forward and
    the backward recursion (T sequential (B, d) @ (d, d) products each)
    and one (d, T*B) @ (T*B, d) product for dW.  Median of three."""
    import numpy as np
    _, _, _, bsz = spec.task
    steps, d = spec.seq_len, spec.d
    rng = np.random.default_rng([seed, 9])
    w = rng.standard_normal((d, d)) / np.sqrt(d)
    acts = rng.standard_normal((steps * bsz, d))
    grads = rng.standard_normal((steps * bsz, d))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for wt in (w.T, w):
            h = np.ones((bsz, d))
            for _ in range(steps):
                h = h @ wt
        acts.T @ grads
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(tracer, spec: Workload, plain: list[tuple[float, float]],
                  traced: list[tuple[float, float]], floor_s: float,
                  artifact_bytes: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced rounds (README, "Per-layer metrics").
    `plain` and `traced` hold (wall, nominal) seconds per command call."""
    n_iter = spec.iterations * len(traced)

    def total(name, phase="command", self_time=False):
        spans = tracer.select(name, phase)
        return sum(self_s(s) if self_time else duration(s) for s in spans), len(spans)

    def per_iter_ms(name, self_time=False):
        return 1e3 * total(name, self_time=self_time)[0] / n_iter

    def per_call(name, phase="command", scale=1e3, self_time=False):
        t, n = total(name, phase, self_time)
        return scale * t / n if n else 0.0

    traced_over_plain = (statistics.median(t for _, t in traced)
                         / statistics.median(t for _, t in plain))
    command_self = sum(self_s(s) for s in tracer.spans if s[PHASE] == "command")
    backward_s = per_call("rnn.backward", scale=1.0)
    return {
        "copytask.generate_batch.ms": (per_iter_ms("copytask.generate_batch"), "ms"),
        "copytask.one_hot.ms": (per_iter_ms("copytask.one_hot"), "ms"),
        "rnn.forward.ms": (per_iter_ms("rnn.forward"), "ms"),
        "rnn.backward.self_ms": (per_iter_ms("rnn.backward", self_time=True), "ms"),
        "rnn.trace.mb": (max((s[OUT_BYTES] for s in tracer.select("rnn.forward", "command")),
                             default=0) / 1e6, "MB"),
        "rnn.gemm_floor.ms": (1e3 * floor_s, "ms"),
        "rnn.bptt_over_floor": (backward_s / floor_s if floor_s else 0.0, "ratio"),
        "manifold.all_partials.calls_per_iter":
            (total("manifold.all_partials")[1] / n_iter, "count"),
        "manifold.all_partials.ms": (per_call("manifold.all_partials"), "ms"),
        "manifold.partial_derivative.us":
            (per_call("manifold.partial_derivative", "uniform", 1e6), "us"),
        "manifold.givens_update.us":
            (per_call("manifold.givens_update", "uniform", 1e6), "us"),
        "manifold.matrix_expm.ms": (per_call("manifold.matrix_expm", "dense"), "ms"),
        "optim.srcd_step.self_us":
            (per_call("optim.srcd_step", "uniform", 1e6, self_time=True), "us"),
        "optim.srgd_step.self_ms":
            (per_call("optim.srgd_step", "dense", self_time=True), "ms"),
        "optim.synthetic.calls_per_iter": (total("optim.synthetic")[1] / n_iter, "count"),
        "optim.synthetic.us": (per_call("optim.synthetic", scale=1e6), "us"),
        "analysis.convergence_metric.ms": (per_call("analysis.convergence_metric"), "ms"),
        "cli.loop.self_ms": (per_iter_ms("cli.loop", self_time=True), "ms"),
        "cli.artifacts.ms": (per_iter_ms("cli.artifacts"), "ms"),
        "cli.artifacts.mb": (statistics.median(artifact_bytes) / 1e6, "MB"),
        "cli.other.self_ms": (per_iter_ms("cli.main", self_time=True), "ms"),
        # traced over untraced command time, both at nominal host speed
        "trace.overhead_pct": (100.0 * (traced_over_plain - 1.0), "%"),
        # the self times of all spans, summed, over the untraced time
        "trace.accounted_pct":
            (100.0 * traced_over_plain * command_self / sum(t for t, _ in traced), "%"),
    }


def steal_s() -> float | None:
    """CPU time the hypervisor gave to others, summed over the vCPUs
    since boot (the steal column of /proc/stat); None where unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def machine(blas) -> dict:
    import numpy as np
    import scipy

    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return None
    return {"platform": platform.platform(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_openblas": blas_version(np), "scipy_openblas": blas_version(scipy),
            "openblas_threads_start": blas.thread_counts()}


def traced_round(tracer, modules, ledger, host, probes, spec, seed, out, first_out,
                 traced, artifact_bytes) -> None:
    """A traced call of the command, then a traced batch of probes."""
    cli, copytask, rnn, manifold, optim, analysis, _ = modules
    tracer.install(cli, copytask, rnn, manifold, optim, analysis)
    try:
        t = ledger.op("traced command", host.timed, run_command, cli, spec, seed, out)
        probes.round(spec, ledger, host, tracer)
    finally:
        tracer.uninstall()
    if t is not None:
        traced.append((*t, spec.iterations))
        artifact_bytes.append(dir_bytes(out))
    ledger.op("reproducibility check", check_same_outputs, first_out, out)
    shutil.rmtree(out, ignore_errors=True)


def run(spec: Workload, seed: int, seconds: float, trace: int, modules,
        out_root: Path, span_file: Path | None = None) -> dict:
    """A warm-up round, then whole rounds until `seconds` have passed
    (at least one), then the figures.  The command's outputs go under
    `out_root`, which is removed at the end."""
    cli, copytask, rnn, manifold, optim, analysis, blas = modules
    info = {"machine": machine(blas)}
    steal_start = steal_s()
    ledger, host = Ledger(), None
    probes = Probes(optim, spec.d, seed)
    tracer = Tracer() if trace else None
    plain, traced, artifact_bytes = [], [], []
    first_out, first_spans, rss_mb = out_root / "c0", 0, None
    deadline = time.perf_counter() + seconds
    rnd = 0
    try:
        while True:
            out = out_root / f"c{rnd}"
            if rnd == 0:
                ledger.op("command", run_command, cli, spec, seed, out)
                # a warm-up round: first-touch costs and the output checks,
                # kept out of the figures
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                host = HostSpeed(spec.chunk_kernels)   # its stream buffer stays out of rss_mb
                check_outputs(ledger, spec, seed, out, optim)
                probes.check_first(ledger)
            else:
                t = ledger.op("command", host.timed, run_command, cli, spec, seed, out)
                if t is not None:
                    plain.append((*t, spec.iterations))
                ledger.op("reproducibility check", check_same_outputs, first_out, out)
                shutil.rmtree(out, ignore_errors=True)
                if tracer is None:
                    probes.round(spec, ledger, host)
                else:
                    traced_round(tracer, modules, ledger, host, probes, spec, seed,
                                 out_root / f"t{rnd}", first_out, traced, artifact_bytes)
                    first_spans = first_spans or len(tracer.spans)
            rnd += 1
            if rnd >= 2 and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    info["machine"]["openblas_threads_end"] = blas.thread_counts()
    if steal_start is not None:
        info["machine"]["steal_s_during_run"] = steal_s() - steal_start
    info["host"] = host.summary()

    def per_call(samples, kernels):
        """Median seconds per call (per iteration for chunks), at nominal
        speed over `kernels`, or wall seconds when `kernels` is None."""
        if not samples:
            return math.nan
        return statistics.median(
            (host.nominal(t0, t1, kernels) if kernels else t1 - t0) / calls
            for t0, t1, calls in samples)

    figures = {}
    for key, chunk, step in (("raw", None, None),
                             ("nominal", spec.chunk_kernels, STEP_KERNELS)):
        figures[key] = {
            "iters_per_s": 1.0 / per_call(plain, chunk),
            "uniform_step_us": 1e6 * per_call(probes.samples["uniform"], step),
            "greedy_step_ms": 1e3 * per_call(probes.samples["greedy"], step),
            "dense_step_ms": 1e3 * per_call(probes.samples["dense"], step)}
    info["raw"] = figures["raw"]
    info["rounds"] = rnd
    info["timeline"] = {"kernels": host.samples, "chunk": plain, **probes.samples}
    if tracer is None:
        units = {"iters_per_s": "1/s", "uniform_step_us": "us", "greedy_step_ms": "ms",
                 "dense_step_ms": "ms"}
        metrics = {k: (v, units[k]) for k, v in figures["nominal"].items()}
        metrics["peak_rss_mb"] = (rss_mb, "MB")
    else:
        floor = gemm_floor_s(spec, seed) if spec.task else 0.0
        plain, traced = ([(t1 - t0, host.nominal(t0, t1, spec.chunk_kernels))
                          for t0, t1, _ in ops]
                         for ops in (plain, traced))
        metrics = layer_metrics(tracer, spec, plain, traced, floor, artifact_bytes)
        if span_file is not None:
            span_file.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(span_file, limit=first_spans)
            info["span_file"] = str(span_file)
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            **info}


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_program()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    name = f"{args.workload}-s{args.seed}"
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, modules,
                 RUNS / f"{name}-{os.getpid()}",
                 TRACES / f"{name}.csv" if args.trace else None)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
