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


def test_every_traced_name_resolves():
    # The benchmark's tracer wraps these names by getattr; a deleted or
    # renamed one would break every traced run.
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("pwfn_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
