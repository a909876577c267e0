import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import pwfn

MODULES = sorted(m.name for m in pkgutil.iter_modules(pwfn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_api(name):
    mod = importlib.import_module(f"pwfn.{name}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported)
    # every listed name resolves, so a deleted type cannot linger in __all__
    assert [n for n in exported if not hasattr(mod, n)] == []
    # every public function and class the module defines is listed
    defined = [n for n, obj in vars(mod).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__]
    assert [n for n in defined if n not in exported] == []


def _benchmark_tracer():
    """benchmark/tracer.py, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("pwfn_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    # The benchmark's tracer wraps these names by getattr; a deleted or
    # renamed one would break every traced run.
    tracer = _benchmark_tracer()
    missing = []
    for module, attr in tracer.FUNCTIONS:
        mod = importlib.import_module(f"pwfn.{module}")
        owner, _, member = attr.rpartition(".")
        if owner:
            found = member in vars(getattr(mod, owner, object))
        else:
            found = hasattr(mod, attr)
        if not found:
            missing.append((module, attr))
    assert missing == []


def test_tracer_installs_on_pwfn_and_restores_it():
    # A traced benchmark run wraps every name at Tracer.install and puts
    # each binding back at uninstall; both run here on the package itself.
    tracer = _benchmark_tracer()
    modules = {name: importlib.import_module(f"pwfn.{name}")
               for name in MODULES}
    owners = list(modules.values()) + [
        getattr(modules[module], attr.split(".")[0])
        for module, attr in tracer.FUNCTIONS if "." in attr]
    before = [dict(vars(owner)) for owner in owners]
    traced = tracer.Tracer()
    traced.install(modules)
    try:
        for module, attr in tracer.FUNCTIONS:
            owner, _, member = attr.rpartition(".")
            host = getattr(modules[module], owner) if owner else modules[module]
            assert hasattr(vars(host)[member], "__wrapped__"), attr
    finally:
        traced.uninstall()
    for owner, saved in zip(owners, before):
        assert all(vars(owner)[key] is value for key, value in saved.items())


def _unused_imports(source):
    """Names a module imports but never reads; names in __all__ count as
    read.  Attribute chains read their base name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {name: _unused_imports(
        (Path(pwfn.__path__[0]) / f"{name}.py").read_text(encoding="utf-8"))
        for name in MODULES}
    assert {name: found for name, found in unused.items() if found} == {}
    # the check itself sees a name left behind after its last use went
    assert _unused_imports("from .fieldcore import CYCLIC, cross\n"
                           "x = CYCLIC\n") == [(1, "cross")]


FULL_TABLES = {"k_grid", "k_grid_diff", "coords"}


def _full_table_calls(source):
    """(line, name) of every call of a full lattice table accessor."""
    return sorted((node.lineno, node.func.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in FULL_TABLES)


def test_no_module_reads_a_full_lattice_table():
    # The library reads wave vectors and coordinates as axis arrays
    # (GridSpec.k_lines, k_diff_lines, coord_lines); the (3, nx, ny, nz)
    # tables are for callers outside the package.
    calls = {name: _full_table_calls(
        (Path(pwfn.__path__[0]) / f"{name}.py").read_text(encoding="utf-8"))
        for name in MODULES}
    assert {name: found for name, found in calls.items() if found} == {}
    # the check itself sees such a call
    assert _full_table_calls("x = spec.coords()[0]\ny = self.k_grid_diff()\n"
                             ) == [(1, "coords"), (2, "k_grid_diff")]
