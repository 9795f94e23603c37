"""Experiment runner.

Subcommands: train, sparsity, convergence.  Every run is driven
by a flat key = value config (INI sections group related keys; key
names are globally unique) and any key can be overridden by a
command-line flag of the same name, e.g. `--alpha0 1e-3`.  The
library's invariants are checked by the test suite (`python3 -m
pytest`), not by the CLI.

Outputs land in a per-run directory under --out, the ORTHOCD_RUNS
environment variable, or ./runs, containing the resolved config
(config.ini), run metadata (run_meta.json, status
running/done/failed/interrupted), and the CSVs documented in the
README.  A given (config, seed) pair reproduces every numeric output
bitwise at the same OpenBLAS thread counts (recorded in run_meta.json).

Exit codes: 0 success, 1 config or usage error, 2 numeric failure,
3 I/O error.  Any other exception propagates after the run is marked
failed, or interrupted for Ctrl-C, in run_meta.json.  SIGTERM also
marks the run interrupted; the process then exits with 143 (128 +
SIGTERM).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, analysis, blas, copytask, manifold, optim, rnn

__all__ = ["ExperimentConfig", "ConfigError", "main", "parse_config",
           "cmd_train", "cmd_sparsity", "cmd_convergence",
           "run_training", "run_convergence"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    # [task]
    preset: str = "desk"        # paper | desk | custom
    alphabet: int = 9
    copy_len: int = 5
    lag: int = 100
    batch: int = 32
    d: int = 64
    mask: str = "full"          # full | recall
    # [optimizer]
    optimizer: str = "srcd-gs"  # a name in optim.OPTIMIZERS
    block_fraction: float = 0.005
    # [schedule]
    schedule: str = "fixed"     # fixed | polynomial
    alpha0: float = 2e-4
    power: float = 0.75
    offset: float = 1.0
    robbins_monro: bool = False
    # [run]
    iterations: int = 500
    seed: int = 0
    out: str = ""
    # [convergence]
    conv_d: int = 16
    noise_std: float = 0.1
    conv_seeds: int = 5
    x_dim: int = 4


_SECTIONS = {
    "task": ("preset", "alphabet", "copy_len", "lag", "batch", "d", "mask"),
    "optimizer": ("optimizer", "block_fraction"),
    "schedule": ("schedule", "alpha0", "power", "offset", "robbins_monro"),
    "run": ("iterations", "seed", "out"),
    "convergence": ("conv_d", "noise_std", "conv_seeds", "x_dim"),
}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
_KEY_TO_SECTION = {k: s for s, keys in _SECTIONS.items() for k in keys}

_PRESETS = {
    "paper": {**dataclasses.asdict(copytask.PAPER), "d": 190},
    "desk": {**dataclasses.asdict(copytask.DESK), "d": 64},
    "custom": {},
}


def _coerce(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        if ftype == "bool":
            if raw.lower() not in ConfigParser.BOOLEAN_STATES:
                raise ValueError(f"not a boolean: {raw!r}")
            return ConfigParser.BOOLEAN_STATES[raw.lower()]
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config(path: str | None = None,
                 overrides: dict[str, object] | None = None) -> ExperimentConfig:
    """Resolve a config: defaults, then preset, then file keys, then
    flag overrides.  An override is its text, or a typed value that its
    text reads back as."""
    file_vals: dict[str, object] = {}
    if path is not None:
        # no interpolation: config.ini files hold values verbatim, "%" too
        parser = ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except ConfigParserError as exc:
            raise ConfigError(f"bad config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        if parser.defaults():  # ConfigParser copies them into every section
            raise ConfigError(f"unknown config section [{parser.default_section}]")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _FIELD_TYPES or _KEY_TO_SECTION[key] != section:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                file_vals[key] = _coerce(key, raw)
    flag_vals: dict[str, object] = {}
    for key, raw in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        # a typed value goes in by its text and must be what that text
        # reads as, so 64.0 is no d, True no seed and 5 no out
        value = _coerce(key, str(raw))
        if raw not in (value, str(raw)):
            raise ConfigError(f"bad value for {key}: {raw!r} reads back as {value!r}")
        flag_vals[key] = value

    preset = flag_vals.get("preset", file_vals.get("preset", "desk"))
    if preset not in _PRESETS:
        raise ConfigError(f"unknown preset {preset!r}")
    merged: dict[str, object] = dict(_PRESETS[preset])
    merged["preset"] = preset
    merged.update(file_vals)
    merged.update(flag_vals)
    cfg = ExperimentConfig(**{k: v for k, v in merged.items()})
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.optimizer not in optim.OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {cfg.optimizer!r}")
    if cfg.mask not in ("full", "recall"):
        raise ConfigError(f"unknown mask mode {cfg.mask!r}")
    for key in ("iterations", "seed"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{key} must be >= 0")
    if cfg.seed >= 2**64:  # the checkpoint header stores it as a u64
        raise ConfigError("seed must be < 2**64")
    if cfg.d < 2 or cfg.d % 2 != 0:
        raise ConfigError(f"d must be even and >= 2, got {cfg.d}")
    if cfg.conv_d < 2:
        raise ConfigError("conv_d must be >= 2")
    for key in ("conv_seeds", "x_dim"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1")
    if not (cfg.noise_std >= 0 and math.isfinite(cfg.noise_std)):
        raise ConfigError(f"noise_std must be finite and >= 0, got {cfg.noise_std}")
    try:
        _task_from(cfg)
        _schedule_from(cfg)
        optim.SelectionRule(block_fraction=cfg.block_fraction)  # every optimizer
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _schedule_from(cfg: ExperimentConfig) -> optim.StepSchedule:
    return optim.StepSchedule(kind=cfg.schedule, alpha0=cfg.alpha0,
                              power=cfg.power, offset=cfg.offset,
                              robbins_monro=cfg.robbins_monro)


def config_to_ini(cfg: ExperimentConfig) -> str:
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            val = getattr(cfg, key)
            if isinstance(val, bool):
                val = "true" if val else "false"
            elif isinstance(val, float):
                val = repr(val)
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# run directories and artifacts
# ---------------------------------------------------------------------------

def _run_dir(command: str, cfg: ExperimentConfig) -> Path:
    if cfg.out:
        return Path(cfg.out)
    digest = hashlib.sha256(
        (command + "\n" + config_to_ini(cfg)).encode()).hexdigest()[:10]
    return Path(os.environ.get("ORTHOCD_RUNS", "runs")) / f"{command}-s{cfg.seed}-{digest}"


@functools.cache
def _version_string() -> str:
    """The package version, plus `git describe` when the repository that
    git finds tracks this package's own __init__.py (a copy installed in
    some other work tree is not its commit); read once per process (two
    subprocesses, a few ms)."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=Path(__file__).resolve().parent,
                              capture_output=True, text=True, timeout=5)
    try:
        if git("ls-files", "--error-unmatch", "__init__.py").returncode == 0:
            desc = git("describe", "--always", "--dirty")
            if desc.returncode == 0 and desc.stdout.strip():
                return f"{__version__}+git.{desc.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


def _machine_metadata() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        # count in force per OpenBLAS copy; {} when none was found
        "openblas_threads": blas.thread_counts(),
    }


class RunDir:
    """Output directory with status bookkeeping."""

    def __init__(self, command: str, cfg: ExperimentConfig):
        self.path = _run_dir(command, cfg)
        self.path.mkdir(parents=True, exist_ok=True)
        self.meta = {
            "command": command,
            "version": _version_string(),
            "machine": _machine_metadata(),
            "status": "running",
            "started_unix": time.time(),
        }
        (self.path / "config.ini").write_text(config_to_ini(cfg))
        self._write_meta()

    def _write_meta(self) -> None:
        (self.path / "run_meta.json").write_text(
            json.dumps(self.meta, indent=2, sort_keys=True) + "\n")

    def finish(self, status: str, **extra) -> None:
        self.meta.update(extra)
        self.meta["status"] = status
        self.meta["ended_unix"] = time.time()
        self._write_meta()

    def write_csv(self, name: str, header: list[str], rows) -> None:
        """One line per row, a tuple of cells.  A column's cells are
        formatted as `_cell` formats its first row's, so the file takes
        one %-format per row: %.17g under a float, %s under anything
        else (str(v), as `_cell` has it)."""
        rows = iter(rows)
        with open(self.path / name, "w") as fh:
            fh.write(",".join(header) + "\n")
            first = next(rows, None)
            if first is None:
                return
            fmt = ",".join("%.17g" if isinstance(v, float) else "%s"
                           for v in first) + "\n"
            fh.write(fmt % first)
            fh.writelines(fmt % row for row in rows)

    def write_json(self, name: str, obj) -> None:
        (self.path / name).write_text(
            json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cell(v) -> str:
    if isinstance(v, float):  # np.float64 too, a float subclass
        return format(v, ".17g")
    return str(v)


# ---------------------------------------------------------------------------
# training core (shared by train and sparsity)
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    params: rnn.RnnParams
    losses: np.ndarray
    alphas: np.ndarray
    grad_norm_sq: np.ndarray
    task: copytask.CopyTaskConfig
    wall_s: float


def _task_from(cfg: ExperimentConfig) -> copytask.CopyTaskConfig:
    return copytask.CopyTaskConfig(alphabet=cfg.alphabet, copy_len=cfg.copy_len,
                                   lag=cfg.lag, batch=cfg.batch)


def run_training(cfg: ExperimentConfig) -> TrainResult:
    """Train the RNN on the copy task per the config.

    Seed derivation keeps the batch stream identical across optimizer
    choices (common random numbers for the ordering comparisons):
    initialization uses `seed`, batches use stream [seed, 1], coordinate
    selection [seed, 2].  One `rnn.Workspace` serves every iteration's
    BPTT; it is dropped on return, before the caller's eval pass.

    The W path holds W and one d x d gradient: S is formed over BPTT's
    A, the greedy selector reads it in row tiles, and it is freed
    before the next BPTT.  A step that returns no alpha raises
    TypeError.
    """
    task = _task_from(cfg)
    params = rnn.init_params(cfg.d, task.n_input_classes, task.n_output_classes,
                             seed=cfg.seed)
    schedule = _schedule_from(cfg)
    kind = optim.OPTIMIZERS[cfg.optimizer]
    rule = None if kind is None else optim.SelectionRule(kind, cfg.block_fraction)
    state = optim.OptimizerState.for_rnn(params, schedule, rule=rule, seed=[cfg.seed, 2])
    batch_rng = np.random.default_rng([cfg.seed, 1])

    losses = np.empty(cfg.iterations)
    alphas = np.empty(cfg.iterations)
    gnormsq = np.empty(cfg.iterations)
    work = rnn.Workspace()
    t0 = time.perf_counter()
    for k in range(cfg.iterations):
        data = copytask.generate_batch(task, batch_rng, mask_mode=cfg.mask)
        x1h = copytask.one_hot(data.inputs, task.n_input_classes)
        value, grads = rnn.backward(params, x1h, data.targets, data.mask, work)
        if not math.isfinite(value):
            raise optim.NumericError(f"non-finite loss at iteration {k}")
        # S = A - A^T formed over BPTT's fresh A = W^T G, O(d^2); making
        # the bundle checks it once and keeps its squared norm, the
        # gnormsq column
        pack = optim.GradPack(skew=manifold.antisym(grads.a),
                              x=grads.x_blocks())
        losses[k] = value
        gnormsq[k] = pack.norm_sq
        alphas[k] = float(optim.step(state, pack))
        del grads, pack  # this S is freed before the next BPTT forms its A
    wall = time.perf_counter() - t0
    return TrainResult(params=params, losses=losses, alphas=alphas,
                       grad_norm_sq=gnormsq, task=task, wall_s=wall)


_TRACE_BLOCK_ROWS = 1024  # trace.csv rows turned into Python floats at a time


def _write_trace(rundir: RunDir, alphas: np.ndarray, losses: np.ndarray,
                 gnormsq: np.ndarray, m_k: np.ndarray) -> None:
    """trace.csv, one row per iteration.  The columns go out as Python
    floats (`tolist`), which format as the float64 entries do and cost
    no numpy scalar per cell, one block of _TRACE_BLOCK_ROWS rows at a
    time, so a long run never holds whole columns as Python lists."""
    cols = (alphas, losses, gnormsq, m_k)
    blocks = (zip(range(i, i + _TRACE_BLOCK_ROWS),
                  *(c[i:i + _TRACE_BLOCK_ROWS].tolist() for c in cols))
              for i in range(0, alphas.size, _TRACE_BLOCK_ROWS))
    rundir.write_csv("trace.csv", ["k", "alpha", "loss", "gnormsq", "M_K"],
                     itertools.chain.from_iterable(blocks))


def _minibatch_partials(params: rnn.RnnParams, task: copytask.CopyTaskConfig,
                        rng: np.random.Generator, mask_mode: str) -> np.ndarray:
    data = copytask.generate_batch(task, rng, mask_mode=mask_mode)
    x1h = copytask.one_hot(data.inputs, task.n_input_classes)
    _, grads = rnn.backward(params, x1h, data.targets, data.mask)
    return manifold.skew_partials(manifold.antisym(grads.a))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(cfg: ExperimentConfig, rundir: RunDir) -> None:
    result = run_training(cfg)
    m_k = analysis.convergence_metric(result.alphas, result.grad_norm_sq) \
        if cfg.iterations else np.empty(0)
    _write_trace(rundir, result.alphas, result.losses, result.grad_norm_sq, m_k)
    rnn.save_checkpoint(rundir.path / "checkpoint.bin", result.params,
                        seed=cfg.seed)
    eval_rng = np.random.default_rng([cfg.seed, 3])
    data = copytask.generate_batch(result.task, eval_rng, mask_mode=cfg.mask)
    x1h = copytask.one_hot(data.inputs, result.task.n_input_classes)
    logits = rnn.logits(result.params, x1h)
    eval_loss = rnn.loss(logits, data.targets, data.mask)
    rundir.write_json("summary.json", {
        "initial_loss": result.losses[0] if cfg.iterations else None,
        "final_loss": result.losses[-1] if cfg.iterations else None,
        "eval_loss": eval_loss,
        "baseline_loss": copytask.baseline_loss(result.task),
        "accuracy": copytask.accuracy(logits, data, result.task),
        "wall_time_s": result.wall_s,
        "iterations": cfg.iterations,
    })


def cmd_sparsity(cfg: ExperimentConfig, rundir: RunDir) -> None:
    task = _task_from(cfg)
    params = rnn.init_params(cfg.d, task.n_input_classes, task.n_output_classes,
                             seed=cfg.seed)
    probe_rng = np.random.default_rng([cfg.seed, 4])
    v_init = _minibatch_partials(params, task, probe_rng, cfg.mask)
    result = run_training(cfg)
    v_final = _minibatch_partials(result.params, task, probe_rng, cfg.mask)

    prof_init = analysis.sparsity_profile(v_init)
    prof_final = analysis.sparsity_profile(v_final)
    edges = analysis.decade_edges(np.concatenate([v_init, v_final]))
    for name, v in (("hist_init.csv", v_init), ("hist_final.csv", v_final)):
        hist = analysis.histogram(v, edges)
        rundir.write_csv(name, ["bin_lo", "bin_hi", "count"],
                         zip(hist.bin_lo, hist.bin_hi, hist.counts))
    rundir.write_csv(
        "sparsity.csv",
        ["iteration", "frac95", "frac99", "norm", "frac95_abs", "frac99_abs"],
        [(0, prof_init.frac95, prof_init.frac99, prof_init.norm,
          prof_init.frac95_abs, prof_init.frac99_abs),
         (cfg.iterations, prof_final.frac95, prof_final.frac99, prof_final.norm,
          prof_final.frac95_abs, prof_final.frac99_abs)])
    rundir.write_json("summary.json", {
        "frac95_init": prof_init.frac95,
        "frac95_final": prof_final.frac95,
        "frac99_init": prof_init.frac99,
        "frac99_final": prof_final.frac99,
        "spread_increased": bool(prof_final.frac95 > prof_init.frac95),
        "wall_time_s": result.wall_s,
    })


@dataclass
class ConvergenceResult:
    alphas: np.ndarray
    grad_norm_sq: np.ndarray
    losses: np.ndarray
    m: np.ndarray


def run_convergence(cfg: ExperimentConfig, seed: int) -> ConvergenceResult:
    """SRCD-U on the synthetic quadratic; exact squared gradient norms
    recorded every iteration, noisy gradients fed to the optimizer.
    One `SyntheticProblem.evaluate` per iteration gives the loss, the
    squared norm and the gradient from one residual.  The noise comes
    from `SyntheticProblem.noise` on stream [seed, 5], drawn for a
    block of iterations per call, the same numbers in the same order
    as one `grads(rng=...)` call per iteration."""
    problem = optim.SyntheticProblem.make(
        cfg.conv_d, (cfg.x_dim, cfg.x_dim), noise_std=cfg.noise_std,
        seed=cfg.seed)
    schedule = _schedule_from(cfg)
    state = problem.state(schedule, rule=optim.SelectionRule("uniform"),
                          seed=seed)
    noise_rng = np.random.default_rng([seed, 5])
    n = cfg.iterations
    alphas = np.empty(n)
    gsq = np.empty(n)
    losses = np.empty(n)
    x = state.x["x"]
    for k, noise in enumerate(problem.noise(n, noise_rng)):
        losses[k], gsq[k], grads = problem.evaluate(x, state.w, noise)
        alphas[k] = float(optim.step(state, grads))
    m = analysis.convergence_metric(alphas, gsq)
    return ConvergenceResult(alphas=alphas, grad_norm_sq=gsq, losses=losses, m=m)


def cmd_convergence(cfg: ExperimentConfig, rundir: RunDir) -> None:
    if not cfg.robbins_monro:
        raise ConfigError("convergence requires a schedule with robbins_monro = true")
    if cfg.iterations < 1:
        raise ConfigError("convergence needs iterations >= 1")
    checkpoints = [c for c in (10**2, 10**3, 10**4, 10**5) if c <= cfg.iterations]
    summary: dict = {"checkpoints": checkpoints, "seeds": {}}
    ratios = []
    for s in range(cfg.conv_seeds):
        seed = cfg.seed + s
        res = run_convergence(cfg, seed)
        if s == 0:
            _write_trace(rundir, res.alphas, res.losses, res.grad_norm_sq, res.m)
        entry = {f"M_{c}": res.m[c - 1] for c in checkpoints}
        entry["final_gnormsq"] = res.grad_norm_sq[-1]
        summary["seeds"][seed] = entry
        if len(checkpoints) >= 2:
            ratios.append(res.m[checkpoints[-1] - 1] / res.m[checkpoints[0] - 1])
    if ratios:
        summary["mean_M_last_over_M_first"] = float(np.mean(ratios))
    rundir.write_json("summary.json", summary)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `main` may run
    many times in one, and parsing leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="orthocd",
        description="Riemannian coordinate-descent experiments on O(d)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("train", "train the RNN on the copying task"),
            ("sparsity", "gradient-sparsity snapshots at init and after training"),
            ("convergence", "SRCD-U on the synthetic problem, averaged gradient norms")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None, metavar="PATH",
                       help="INI config file")
        for f in dataclasses.fields(ExperimentConfig):
            p.add_argument(f"--{f.name}", default=None, metavar=f.type.upper(),
                           help=f"override [{_KEY_TO_SECTION[f.name]}] {f.name}")
    return parser


def _mark_stopped(rundir: RunDir | None, status: str,
                  exc: BaseException) -> None:
    """Record in run_meta.json why a run stopped.  If that write fails
    too, the error that stopped the run is still the one reported."""
    if rundir is None:
        return
    try:
        rundir.finish(status, error=f"{type(exc).__name__}: {exc}")
    except OSError:
        pass


class _Terminated(SystemExit):
    """SIGTERM during a command: the run is marked interrupted and the
    process exits with the shell's code for it, 128 + SIGTERM."""


def _raise_terminated(signum, frame) -> None:
    raise _Terminated(128 + signum)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, and 2 means numeric failure here
        return 1 if exc.code else 0
    # Python's default SIGTERM action ends the process without raising,
    # so without a handler a stopped run would stay "running".  Only the
    # main thread may set handlers; the previous one is put back on
    # return, since a caller may run main several times in one process.
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        previous = signal.signal(signal.SIGTERM, _raise_terminated)
    rundir = None
    try:
        overrides = {f.name: getattr(args, f.name)
                     for f in dataclasses.fields(ExperimentConfig)
                     if getattr(args, f.name) is not None}
        cfg = parse_config(args.config, overrides)
        rundir = RunDir(args.command, cfg)
        t0 = time.perf_counter()
        {"train": cmd_train, "sparsity": cmd_sparsity,
         "convergence": cmd_convergence}[args.command](cfg, rundir)
        rundir.finish("done", wall_time_s=time.perf_counter() - t0)
        print(f"done: {rundir.path}")
        return 0
    except ConfigError as exc:
        _mark_stopped(rundir, "failed", exc)
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (optim.NumericError, FloatingPointError, OverflowError) as exc:
        _mark_stopped(rundir, "failed", exc)
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        _mark_stopped(rundir, "failed", exc)
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except BaseException as exc:
        stopped = isinstance(exc, (KeyboardInterrupt, _Terminated))
        _mark_stopped(rundir, "interrupted" if stopped else "failed", exc)
        raise
    finally:
        if on_main:
            # None: the previous handler was not set from Python
            signal.signal(signal.SIGTERM,
                          signal.SIG_DFL if previous is None else previous)


if __name__ == "__main__":
    sys.exit(main())
