"""Package-level checks: every module's public names are real, and every
name a module imports is used."""
import ast
import importlib
import pathlib
import pkgutil

import pytest

import revreact

MODULES = sorted(m.name for m in pkgutil.iter_modules(revreact.__path__))
SOURCES = sorted(pathlib.Path(revreact.__path__[0]).glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"revreact.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"revreact.{name}.__all__ names {missing}"
    namespace = {}
    exec(f"from revreact.{name} import *", namespace)


def unused_imports(source: str) -> list:
    """The names that the module source imports and neither uses nor lists
    in __all__; a dotted import binds, and is used through, its first part."""
    tree = ast.parse(source)
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses (line, name): {unused}"


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\nimport os.path\nimport math as m\n"
              "from x import a, b\n__all__ = ['b']\nprint(os.sep)\n")
    assert unused_imports(source) == [(3, "m"), (4, "a")]
