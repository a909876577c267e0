import importlib
import inspect
import pkgutil

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
