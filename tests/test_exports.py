import importlib
import importlib.util
import json
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import shiftimpute
import shiftimpute.benchmark as bench
from shiftimpute.benchmark import DatasetSource, ExperimentGrid
from shiftimpute.cli import main
from shiftimpute.data import save_masked_csv
from shiftimpute.masking import MarSpec, apply_mar_mask
from shiftimpute.regressors import MlpSpec

MODULES = sorted(m.name for m in pkgutil.iter_modules(shiftimpute.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a class renamed or deleted must leave no stale entry in ``__all__``
    module = importlib.import_module(f"shiftimpute.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def perfbench_trace_points():
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACE_POINTS


def test_every_perfbench_trace_point_resolves():
    # perfbench's traced runs wrap these names where the program looks them
    # up; a deleted or renamed one would break ``--trace 1``
    points = [(module, attr) for module, attr, _, _ in perfbench_trace_points()]
    points.append(("shiftimpute.benchmark", "_run_cell"))
    assert [(module, attr) for module, attr in points
            if not hasattr(importlib.import_module(module), attr)] == []


# the points the program no longer calls: ``shiftimpute impute`` reads and
# writes through ``load_masked_fields`` and ``save_filled_csv``, so a traced
# run reads 0 for ``data.load_s`` and ``data.save_s`` until perfbench wraps
# those names instead
KNOWN_UNCALLED = {"shiftimpute.cli.load_masked_csv", "shiftimpute.cli.save_csv"}


def test_every_perfbench_trace_point_is_called(tmp_path, monkeypatch):
    # a point that resolves but is never called reads 0 in a traced run, so
    # a refactor could zero a per-layer metric without any error. Each point
    # is wrapped where the program looks it up, as the tracer wraps it, and
    # the work of perfbench's workloads runs once, small: a one-cell ridge
    # grid, a one-cell 1-epoch MLP grid, their summary and one weighted
    # ``shiftimpute impute --diagnostics`` call
    calls = Counter()
    for module_name, attr, _, _ in perfbench_trace_points():
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def counted(*args, _key=f"{module_name}.{attr}", _fn=original, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    source = DatasetSource(n=200, d=6)
    for models in (("ridge",), ("mlp",)):
        grid = ExperimentGrid(dataset=source, seeds=(0,), alphas=(3.0,),
                              n_sweeps=2, models=models, mlp=MlpSpec(epochs=1))
        result = bench.run_benchmark(grid)
        assert result.ok and len(result.records) == 2
        bench.build_summary(result)
    data = bench.make_benchmark_dataset(200, 6, seed=0)
    spec = MarSpec((3, 4), ((0, 1), (0, 1)), alpha=3.0,
                   target_missing_rate=0.3, seed=1)
    masked, _ = apply_mar_mask(data, spec)
    save_masked_csv(masked, tmp_path / "in.csv")
    (tmp_path / "config.json").write_text(json.dumps({"n_sweeps": 2}))
    assert main(["impute", "--input", str(tmp_path / "in.csv"),
                 "--output", str(tmp_path / "out.csv"),
                 "--config", str(tmp_path / "config.json"),
                 "--diagnostics", str(tmp_path / "diag.json")]) == 0
    points = {f"{module}.{attr}" for module, attr, _, _ in perfbench_trace_points()}
    assert points - set(calls) == KNOWN_UNCALLED
