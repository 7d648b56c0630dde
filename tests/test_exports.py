import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import shiftimpute

MODULES = sorted(m.name for m in pkgutil.iter_modules(shiftimpute.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a class renamed or deleted must leave no stale entry in ``__all__``
    module = importlib.import_module(f"shiftimpute.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_perfbench_trace_point_resolves():
    # perfbench's traced runs wrap these names where the program looks them
    # up; a deleted or renamed one would break ``--trace 1``
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = [(module, attr) for module, attr, _, _ in tracing.TRACE_POINTS]
    points.append(("shiftimpute.benchmark", "_run_cell"))
    assert [(module, attr) for module, attr in points
            if not hasattr(importlib.import_module(module), attr)] == []
