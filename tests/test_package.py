"""Package-level checks: every module's public names are real, every name
a module imports is used, every parameter of a function is read, every
function is named outside the tests, the modules import one another
without a cycle,
each except clause of the package catches one error class, each of which
is raised, and a run loads no transform library."""
import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

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


def unread_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter of each function and
    method of the module source, *args and **kwargs included, that no
    name in the function's body, nested functions included, reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {name.id for statement in node.body for name in ast.walk(statement)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            unread += [(node.lineno, node.name, param.arg) for param in params
                       if param is not None and param.arg not in read]
    return sorted(unread)


#: (module, function, parameter) left unread on purpose, with the reason
UNREAD_PARAMETERS = {
    ("verify", "_suite_diffusion", "rng"):
        "run_property_suites passes every suite the one shared generator",
    ("cli", "build_initial", "bench_args"):
        "bench/run.py passes the grid and box that cfg.grid now carries",
}


def test_every_parameter_is_read():
    unread = [(path.stem, function, param)
              for path in SOURCES for _, function, param in unread_parameters(path.read_text())]
    assert sorted(unread) == sorted(UNREAD_PARAMETERS), \
        f"parameters that their function never reads: {unread}"


def test_an_unread_parameter_is_found():
    source = ("def f(a, /, b, *args, c, d=1, **kwargs):\n    return a + c + kwargs['x']\n"
              "class K:\n    def m(self, planted):\n        def inner():\n"
              "            return self\n        planted = 1\n        return inner\n")
    assert unread_parameters(source) == [(1, "f", "args"), (1, "f", "b"), (1, "f", "d"),
                                         (4, "m", "planted")]


def unreferenced_functions(sources: dict, others: list) -> list:
    """(module, line, name) of each function and method, nested ones
    included and dunders aside, that a module of sources (name -> source)
    defines and that no source of sources or others names: as a variable
    or a call, as an attribute, or in an import."""
    defined, named = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.append((module, node.lineno, node.name))
    for source in [*sources.values(), *others]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
    return sorted(d for d in defined if d[2] not in named)


def test_every_function_is_referenced_outside_the_tests():
    # a function that only tests call is a path the program never runs
    bench = sorted((pathlib.Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
    unreferenced = unreferenced_functions({path.stem: path.read_text() for path in SOURCES},
                                          [path.read_text() for path in bench])
    assert not unreferenced, f"functions that src and bench never name: {unreferenced}"


def test_an_unreferenced_function_is_found():
    source = ("def called():\n    pass\n\ndef planted():\n    pass\n\n"
              "class K:\n    def __init__(self):\n        self.go()\n"
              "    def go(self):\n        called()\n    def stale(self):\n        pass\n\n"
              "def benched():\n    pass\n\ndef imported():\n    pass\n")
    others = ["import m\nm.benched()\n", "from m import imported as alias\n"]
    assert unreferenced_functions({"m": source}, others) == [("m", 4, "planted"),
                                                             ("m", 12, "stale")]
    assert unreferenced_functions({"m": source}, []) == [
        ("m", 4, "planted"), ("m", 12, "stale"), ("m", 15, "benched"), ("m", 18, "imported")]


def package_imports(sources: dict) -> dict:
    """The package modules that each module of sources (name -> source)
    imports anywhere in it, function bodies included, by a relative import
    (`from .m import x`, `from . import m`) or an absolute one (`from
    revreact.m import x`, `from revreact import m`, `import revreact.m`)."""
    graph = {}
    for module, source in sources.items():
        graph[module] = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                dotted = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = f"revreact.{node.module or ''}".rstrip(".") if node.level else node.module
                dotted = ([f"{base}.{alias.name}" for alias in node.names]
                          if base == "revreact" else [base])
            else:
                continue
            graph[module].update(name.split(".")[1] for name in dotted
                                 if name.startswith("revreact."))
    return graph


def import_cycle(graph: dict) -> list:
    """One cycle [m, ..., m] of the import graph (module -> modules it
    imports), or [] where the imports form none."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done or module not in graph:
            return []
        path.append(module)
        for imported in sorted(graph[module]):
            if cycle := visit(imported):
                return cycle
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        if cycle := visit(module):
            return cycle
    return []


def test_the_modules_import_one_another_without_a_cycle():
    graph = package_imports({path.stem: path.read_text() for path in SOURCES})
    assert graph["model"] >= {"grid"} and "model" not in graph["grid"]
    assert import_cycle(graph) == [], "the package's imports form a cycle"


def test_an_import_cycle_is_found():
    sources = {"a": "from .b import x\nimport numpy\n",
               "b": "def f():\n    from . import c, errors\n",
               "c": "import revreact.a\n", "errors": "from revreact.b import y\n"}
    graph = package_imports(sources)
    assert graph == {"a": {"b"}, "b": {"c", "errors"}, "c": {"a"}, "errors": {"b"}}
    assert import_cycle(graph) == ["a", "b", "c", "a"]
    del sources["c"]
    assert import_cycle(package_imports(sources)) == ["b", "errors", "b"]
    assert import_cycle(package_imports({"a": "from .b import x\n", "b": ""})) == []


def error_classes(source: str) -> list:
    """The classes that the module source defines at its top level, in order."""
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]


def _last_name(node):
    """The name that a Name or an attribute chain ends in; None for any other node."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def error_contract_faults(errors_source: str, sources: dict) -> list:
    """Where the modules sources (name -> source) split an outcome over the
    classes of the errors module errors_source: (module, line) of each
    except clause naming two or more of its classes, then ("errors", name)
    of each class that no module raises, but for RevReactError and a
    private base."""
    classes = error_classes(errors_source)
    faults, raised = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if len({_last_name(t) for t in caught} & set(classes)) >= 2:
                    faults.append((module, node.lineno))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                raised.add(_last_name(exc.func if isinstance(exc, ast.Call) else exc))
    return faults + [("errors", name) for name in classes
                     if name not in raised and name != "RevReactError"
                     and not name.startswith("_")]


def test_each_outcome_has_one_error_class():
    sources = {path.stem: path.read_text() for path in SOURCES}
    faults = error_contract_faults(sources["errors"], sources)
    assert not faults, f"except clauses naming several error classes, or unraised classes: {faults}"


def test_a_split_outcome_is_found():
    errors = ("class RevReactError(Exception): pass\nclass _Base(RevReactError): pass\n"
              "class A(_Base): pass\nclass B(RevReactError): pass\nclass C(_Base): pass\n")
    source = ("from . import errors\nfrom .errors import A\ntry:\n    raise A('x')\n"
              "except (A, errors.B):\n    raise errors.B\nexcept (A, OSError):\n    pass\n")
    assert error_contract_faults(errors, {"m": source}) == [("m", 5), ("errors", "C")]


def test_a_run_loads_neither_scipy_nor_numpy_fft(tmp_path):
    # the heat kernels are summed directly, and numpy.fft is loaded only for
    # an axis longer than KERNEL_MAX_CELLS (numpy before 2.0 loads it itself)
    code = textwrap.dedent(f"""
        import sys
        import numpy
        numpy_loaded = set(sys.modules)
        from revreact import cli, verify
        cfg = cli.parse_config(
            "dim=1\\ncells=32\\nlengths=1.0\\nd_a=1.0\\nd_b=0.0\\nd_c=0.5\\n"
            "init=cosine_bump 0.5\\ndt=0.001\\nt_end=0.1\\nrecord_every=10\\n"
            "out_dir={tmp_path}\\nseed=1\\n")
        assert cli.cmd_run(cfg) == 0
        print([m for m in sys.modules if m.startswith("scipy")
               or m.startswith("numpy.fft") and m not in numpy_loaded])
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(revreact.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "timeseries.csv").exists()
