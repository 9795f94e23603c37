import importlib
import pkgutil

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
