import importlib.util
import math
import pkgutil
import sys
from pathlib import Path

import pytest

import orthocd
from orthocd import manifold, optim

MODULES = ["orthocd"] + [f"orthocd.{m.name}" for m in pkgutil.iter_modules(orthocd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a name left in __all__ after its definition is deleted breaks
    # `from orthocd.<module> import *` and misleads readers
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_readme_quick_start_runs(capsys):
    # the README's python block runs against the public API as it is
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))


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


def test_benchmark_layers_are_reached_through_module_attributes(monkeypatch):
    # perfbench times a layer by swapping its module attribute, so a step
    # that reaches the function any other way leaves that layer at 0:
    # each call below must pass through the name perfbench wraps
    calls = []

    def spy(name):
        real = getattr(manifold, name)
        monkeypatch.setattr(manifold, name,
                            lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs))

    for name in ("all_partials", "partial_derivative", "givens_update", "matrix_expm"):
        spy(name)
    problem = optim.SyntheticProblem.make(8, (2, 2), seed=0)
    x, w = problem.init(0)
    _, _, grads = problem.evaluate(x, w)
    assert grads.skew is None  # a G bundle, as the probes hand
    assert calls == ["all_partials"]
    schedule = optim.StepSchedule("fixed", 1e-2)
    calls.clear()
    optim.srcd_step(problem.state(schedule, optim.SelectionRule("uniform")), grads)
    assert calls == ["partial_derivative", "givens_update"]
    calls.clear()
    optim.srgd_step(problem.state(schedule), grads)
    assert calls == ["matrix_expm"]
