import importlib
import pkgutil

import pytest

import shiftimpute

MODULES = sorted(m.name for m in pkgutil.iter_modules(shiftimpute.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a class renamed or deleted must leave no stale entry in ``__all__``
    module = importlib.import_module(f"shiftimpute.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
