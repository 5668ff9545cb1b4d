"""Package-level checks: every module's public names are real."""
import importlib
import pkgutil

import pytest

import revreact

MODULES = sorted(m.name for m in pkgutil.iter_modules(revreact.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"revreact.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"revreact.{name}.__all__ names {missing}"
    namespace = {}
    exec(f"from revreact.{name} import *", namespace)
