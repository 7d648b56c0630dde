"""Tests of the benchmark itself: inputs, tracing, metric names, checks."""

import importlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
import shiftimpute.benchmark as sb
from shiftimpute.regressors import ForestSpec, MlpSpec

ROOT = Path(__file__).resolve().parents[2]


def tiny(name):
    return replace(workloads.WORKLOADS[name], n=400, seeds_per_unit=1,
                   forest=ForestSpec(n_trees=1, max_depth=3),
                   mlp=MlpSpec(epochs=2), csvs=3)


def tiny_inputs(name, seed, path):
    path.mkdir(parents=True, exist_ok=True)
    return workloads.prepare(tiny(name), seed, path)


def test_inputs_are_deterministic_in_the_seed(tmp_path):
    seeds = {seed: [workloads.slot_seed(seed, slot) for slot in range(4)]
             for seed in (5, 6)}
    assert seeds[5][:2] == seeds[6][:2] == [0, 1]       # the reference slots
    assert seeds[5] == [workloads.slot_seed(5, slot) for slot in range(4)]
    assert seeds[5][2:] != seeds[6][2:]
    same = [tiny_inputs("cli-impute", 5, tmp_path / d) for d in ("a", "b")]
    other = tiny_inputs("cli-impute", 6, tmp_path / "c")
    files = [[p.read_bytes() for p, _ in i.csvs] for i in (*same, other)]
    assert files[0] == files[1]
    assert files[2][0] == files[0][0]      # the reference CSVs are seed-free
    assert files[2][1] == files[0][1]
    assert files[2][2] != files[0][2]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [name for name in workloads.WORKLOADS
                      if name not in workloads.UNLISTED]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_smoke_run_passes_the_checks(name, tmp_path):
    inputs = tiny_inputs(name, 3, tmp_path)
    tally = workloads.Tally()
    with workloads.checked_outputs():
        workloads.run_loop(inputs, 0, tally)
        workloads.check_run(inputs, tally, workloads.quality_ratios(tally)[0])
    assert tally.failed == 0, tally.problems
    assert tally.attempted == len(tally.calls) > 0
    metrics = run.end_to_end(workloads, tally, 0.5)
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in metrics.values())


def test_changed_observed_cell_is_a_failure(tmp_path, monkeypatch):
    real = sb.impute

    def corrupting(ds, cfg):
        result = real(ds, cfg)
        row, col = np.argwhere(ds.mask.observed)[0]
        result.completed[row, col] += 1e-9
        return result

    monkeypatch.setattr(sb, "impute", corrupting)
    inputs = tiny_inputs("forest-cell", 3, tmp_path)
    tally = workloads.Tally()
    with workloads.checked_outputs():
        workloads.run_unit(inputs, 0, tally)
    assert tally.failed == tally.attempted == 2
    assert all("observed cells changed" in p for p in tally.problems)


def _call_sites():
    return [(importlib.import_module(m), attr) for m, attr, *_ in tracing.TRACE_POINTS] \
        + [(sb, "_run_cell")]


def test_traced_run_restores_every_wrapper(tmp_path):
    originals = [getattr(module, attr) for module, attr in _call_sites()]
    inputs = tiny_inputs("ridge-grid", 3, tmp_path)
    tracer = tracing.Tracer()
    tally = workloads.Tally()
    with tracing.installed(tracer, tmp_path), workloads.checked_outputs():
        workloads.run_loop(inputs, 0, tally)
    assert [getattr(m, a) for m, a in _call_sites()] == originals
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer(), tmp_path):
            raise RuntimeError("boom")
    assert [getattr(m, a) for m, a in _call_sites()] == originals

    cells = sum(c for c, _ in tally.units)
    metrics = tracing.layer_metrics(tracer, cells, 1.0, 0.0)
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    assert metrics["masking.calls"]["value"] == 1.0
    assert metrics["propensity.fits"]["value"] == 20.0     # 4 columns x 5 sweeps
    assert metrics["engine.column_steps"]["value"] == 40.0
    assert 0.0 < metrics["regressors.useful_predict_frac"]["value"] < 1.0
    total, covered = tracing.impute_accounting(tracer.spans)
    assert covered == pytest.approx(total, rel=1e-9)


def test_traced_pool_workers_report_their_layers(tmp_path):
    inputs = tiny_inputs("ridge-grid-j2", 3, tmp_path / "in")
    tracer = tracing.Tracer()
    tally = workloads.Tally()
    with tracing.installed(tracer, tmp_path), workloads.checked_outputs():
        workloads.run_unit(inputs, 0, tally)
    assert tally.failed == 0, tally.problems
    assert not list(tmp_path.glob("worker-*"))
    cells = sum(c for c, _ in tally.units)
    metrics = tracing.layer_metrics(tracer, cells, 1.0, 0.0)
    assert metrics["masking.calls"]["value"] == 1.0
    assert metrics["propensity.fits"]["value"] == 20.0
    assert metrics["engine.column_steps"]["value"] == 40.0
    assert metrics["metrics.eval_s"]["value"] > 0.0
    spans = tracer.spans
    runs = [i for i, s in enumerate(spans) if s[0] == "benchmark.run"]
    imputes = [s for s in spans if s[0] == "engine.impute"]
    assert len(imputes) == 2 * cells
    assert all(s[3] in runs for s in imputes)
    total, covered = tracing.impute_accounting(spans)
    assert covered == pytest.approx(total, rel=1e-9)


def test_self_time_subtracts_what_children_cover():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 3.0, 6.0, 0],
             ["d", 2.0, 3.0, 1]]
    assert tracing.self_times(spans) == [5.0, 2.0, 3.0, 1.0]
