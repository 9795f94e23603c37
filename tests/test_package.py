import ast
import dataclasses
import importlib.util
import math
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

import orthocd
from orthocd import analysis, cli, manifold, optim

MODULES = ["orthocd"] + [f"orthocd.{m.name}" for m in pkgutil.iter_modules(orthocd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a name left in __all__ after its definition is deleted breaks
    # `from orthocd.<module> import *` and misleads readers
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_every_src_name_is_read_by_the_program():
    # a module-level def, class or assignment in src/orthocd that only
    # the tests read is test code kept in the package; it belongs in
    # tests/oracles.py.  A read is a Load-context name, an attribute, or
    # an identifier string (an __all__ entry, a name perfbench looks up
    # by string) anywhere in src/orthocd or perfbench/*.py
    root = Path(__file__).resolve().parents[1]
    src = sorted((root / "src" / "orthocd").glob("*.py"))
    assert src
    reads = set()
    for path in src + sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                reads.add(node.value)
    unread = []
    for path in src:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            unread += [f"{path.stem}.{name}" for name in names
                       if not name.startswith("__") and name not in reads]
    assert unread == []


def _opens_for_writing(call: ast.Call) -> bool:
    """A write_text or write_bytes call, or an open whose mode is not a
    read-only constant: builtin open(file, mode), Path.open(mode)."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    at = 1 if isinstance(call.func, ast.Name) else 0
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[at] if len(call.args) > at else ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set("wax+") & set(mode.value))


def test_files_are_written_only_through_open_replacing():
    # every file the package writes goes to a temp file that is renamed
    # over its target when whole (rnn.open_replacing), so a run that
    # dies mid-write leaves no half-written artifact.  A write-mode open,
    # write_text or write_bytes anywhere else writes in place
    root = Path(__file__).resolve().parents[1]
    in_place, helper_opens = [], 0
    for path in sorted((root / "src" / "orthocd").glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(n) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "open_replacing"
                  for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _opens_for_writing(node):
                if id(node) in inside:
                    helper_opens += 1
                else:
                    in_place.append(f"{path.name}:{node.lineno}")
    assert in_place == []
    assert helper_opens == 1


def test_readme_quick_start_runs(capsys):
    # the README's python block runs against the public API as it is
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))


def test_readme_config_and_cli_blocks_resolve(tmp_path):
    # the README's INI block is a readable config, its comments on their
    # own lines, and it holds the defaults; each `orthocd` command of its
    # CLI block parses and resolves to a config, without running
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    ini = tmp_path / "config.ini"
    ini.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    assert cli.parse_config(str(ini)) == cli.parse_config()

    blocks = re.findall(r"^```(\w*)\n(.*?)^```", readme, re.M | re.S)
    commands = [line for lang, block in blocks if not lang
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("orthocd ")]
    assert len(commands) == 3
    for line in commands:
        args = cli._build_parser().parse_args(shlex.split(line)[1:])
        overrides = {f.name: getattr(args, f.name)
                     for f in dataclasses.fields(cli.ExperimentConfig)
                     if getattr(args, f.name) is not None}
        assert overrides
        cli.parse_config(args.config, overrides)


def test_benchmark_trace_targets_resolve(monkeypatch):
    # perfbench's tracer swaps each target through `owner.__dict__[attr]`,
    # so deleting or moving one of these names makes a traced benchmark
    # run fail; its tracing module is loaded from the file, unchanged
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while defined
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    modules = [importlib.import_module(f"orthocd.{m}") for m in
               ("cli", "copytask", "rnn", "manifold", "optim", "analysis")]
    targets = tracing._targets(*modules)
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if attr not in owner.__dict__]
    assert missing == []


def test_benchmark_probes_pass_their_checks(monkeypatch):
    # perfbench's step probes hand GradPack(w=G), build OptimizerState by
    # keyword and read last_coords; check_first steps each probe once and
    # runs the rotation, greedy-choice and dense-step checks on the result.
    # Its worker module is loaded from the file, unchanged; it puts
    # perfbench/ on sys.path and imports its siblings, taken out again after
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_worker", bench / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(worker)
        for d in (8, 16, 64):
            ledger = worker.Ledger()
            worker.Probes(optim, d, seed=0).check_first(ledger)
            assert (ledger.attempted, ledger.failed) == (7, 0), d
    finally:
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "").parent == bench:
                del sys.modules[name]


def test_benchmark_layers_are_reached_through_module_attributes(monkeypatch):
    # perfbench times a layer by swapping its module attribute, so a step
    # that reaches the function any other way leaves that layer at 0:
    # each call below must pass through the name perfbench wraps
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs))

    for name in ("all_partials", "partial_derivative", "givens_update", "matrix_expm"):
        spy(manifold, name)
    problem = optim.SyntheticProblem.make(8, (2, 2), seed=0)
    x, w = problem.init(0)
    r, g = np.empty((2, 1, 8, 8))
    g_x = np.empty((1, 2, 2))
    grads = problem.oracle(x, w, None, r[0], g[0], g_x[0])
    problem.diagnostics(w[None], r, g, g_x)
    assert grads.skew is None  # a G bundle, as the probes hand
    assert calls == ["all_partials"]
    schedule = optim.StepSchedule("fixed", 1e-2)
    calls.clear()
    optim.srcd_step(problem.state(schedule, optim.SelectionRule("uniform")), grads)
    assert calls == ["partial_derivative", "givens_update"]
    calls.clear()
    optim.srgd_step(problem.state(schedule), grads)
    assert calls == ["matrix_expm"]

    # train, the convergence harness and bench_update take their steps
    # through `optim.step`, so perfbench's step layers see them too
    for name in ("srcd_step", "srgd_step"):
        spy(optim, name)

    def step_calls():
        steps = [name for name in calls if name.endswith("_step")]
        calls.clear()
        return steps

    calls.clear()
    tiny = {"preset": "custom", "d": 8, "batch": 2, "copy_len": 2, "lag": 4,
            "iterations": 3}
    for name, kind in optim.OPTIMIZERS.items():
        cli.run_training(cli.parse_config(None, {**tiny, "optimizer": name}))
        assert step_calls() == ["srgd_step" if kind is None else "srcd_step"] * 3
    cli.run_convergence(cli.parse_config(None, {"conv_d": 4, "x_dim": 2, "iterations": 3}), 0)
    # the harness's partials too: one all_partials for its one block
    assert calls.count("all_partials") == 1
    assert step_calls() == ["srcd_step"] * 3
    for phase in ("update", "backward_update"):
        for name, want in (("srcd-gs", "srcd_step"), ("srgd", "srgd_step")):
            analysis.bench_update(name, 8, phase=phase, batch=2)
            assert step_calls() == [want] * 35
