import importlib
import math
import pkgutil
from pathlib import Path

import pytest

import orthocd

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
