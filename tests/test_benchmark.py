import numpy as np
import pytest

import shiftimpute.benchmark as bench
from shiftimpute.benchmark import (
    DatasetSource,
    ExperimentGrid,
    build_summary,
    make_benchmark_dataset,
    records_to_csv,
    run_benchmark,
    summarize_alpha_profile,
)
from shiftimpute.engine import ImputationConfig
from shiftimpute.regressors import RegressorSpec


def small_grid(**kwargs):
    defaults = dict(
        dataset=DatasetSource(kind="synthetic", n=400, d=6, seed=0),
        seeds=(0, 1, 2),
        alphas=(0.0, 2.0),
        n_missing_cols=2,
        n_predictors=2,
        n_sweeps=2,
    )
    defaults.update(kwargs)
    return ExperimentGrid(**defaults)


class TestDataset:
    def test_shape_and_determinism(self):
        a = make_benchmark_dataset(200, 8, 3)
        b = make_benchmark_dataset(200, 8, 3)
        assert a.values.shape == (200, 8)
        np.testing.assert_array_equal(a.values, b.values)

    def test_columns_standardized_scale(self):
        m = make_benchmark_dataset(2000, 10, 0)
        stds = m.values.std(axis=0)
        assert np.all(stds > 0.5) and np.all(stds < 2.0)


class TestRunBenchmark:
    def test_pairing_contract_single_cell(self, monkeypatch):
        calls = []
        original = bench.apply_mar_mask

        def counting(data, spec):
            calls.append(spec)
            return original(data, spec)

        monkeypatch.setattr(bench, "apply_mar_mask", counting)
        grid = small_grid(seeds=(0,), alphas=(0.0,))
        res = run_benchmark(grid)
        assert len(calls) == 1  # one mask shared by the weighted/unweighted pair
        assert len(res.records) == 2
        weighted = {r.weighted for r in res.records}
        assert weighted == {True, False}

    def test_record_count_and_order(self):
        grid = small_grid()
        res = run_benchmark(grid)
        assert len(res.records) == 3 * 2 * 2  # seeds x alphas x pair
        keys = [(r.seed, r.alpha, r.weighted) for r in res.records]
        expected = [(s, a, w) for s in (0, 1, 2) for a in (0.0, 2.0)
                    for w in (True, False)]
        assert keys == expected
        assert res.ok

    def test_layout_shared_across_alphas(self, monkeypatch):
        seen = {}
        original = bench.select_random_spec

        def record(data, n_missing_cols, n_predictors, seed):
            spec = original(data, n_missing_cols, n_predictors, seed)
            seen.setdefault(seed, set()).add(
                (spec.missing_cols, spec.predictor_sets)
            )
            return spec

        monkeypatch.setattr(bench, "select_random_spec", record)
        run_benchmark(small_grid())
        # one column/predictor layout per seed, reused for every alpha
        assert all(len(layouts) == 1 for layouts in seen.values())

    def test_rerun_identical(self):
        grid = small_grid()
        a = run_benchmark(grid)
        b = run_benchmark(grid)
        assert [(r.rmse, r.wasserstein) for r in a.records] == \
               [(r.rmse, r.wasserstein) for r in b.records]

    def test_jobs_do_not_change_results(self):
        grid = small_grid()
        seq = run_benchmark(grid, jobs=1)
        par = run_benchmark(grid, jobs=2)
        assert [(r.seed, r.alpha, r.model, r.weighted, r.rmse, r.wasserstein)
                for r in seq.records] == \
               [(r.seed, r.alpha, r.model, r.weighted, r.rmse, r.wasserstein)
                for r in par.records]

    def test_failures_recorded_not_raised(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(bench, "impute", boom)
        res = run_benchmark(small_grid(seeds=(0,), alphas=(0.0,)))
        assert not res.ok
        assert len(res.failures) == 2
        assert "synthetic failure" in res.failures[0].message

    def test_csv_row_count_is_grid_size_minus_failures(self, tmp_path, monkeypatch):
        original = bench.impute
        calls = []

        def flaky(ds, cfg):
            calls.append(cfg)
            if len(calls) == 3:  # fail exactly one run
                raise RuntimeError("one bad cell")
            return original(ds, cfg)

        monkeypatch.setattr(bench, "impute", flaky)
        grid = small_grid()
        res = run_benchmark(grid)
        expected = len(grid.seeds) * len(grid.alphas) * 2 * len(grid.models)
        assert len(res.records) == expected - len(res.failures)
        path = tmp_path / "r.csv"
        records_to_csv(res.records, path)
        assert len(path.read_text().splitlines()) == 1 + len(res.records)


class TestCsv:
    def test_round_trip_bytes(self, tmp_path):
        grid = small_grid(seeds=(0, 1), alphas=(1.0,))
        res = run_benchmark(grid)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        records_to_csv(res.records, p1)
        records_to_csv(run_benchmark(grid).records, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "seed,alpha,model,weighted,rmse,wasserstein"


class TestSummaries:
    def test_alpha_profile_needs_two_alphas(self):
        res = run_benchmark(small_grid(alphas=(1.0,)))
        with pytest.raises(ValueError, match="2 alphas"):
            summarize_alpha_profile(res.records)

    def test_single_seed_profile_is_raw_ratio(self):
        res = run_benchmark(small_grid(seeds=(4,)))
        profile = summarize_alpha_profile(res.records)
        by_key = {(r.alpha, r.weighted): r.rmse for r in res.records}
        for row in profile:
            expected = by_key[(row["alpha"], True)] / by_key[(row["alpha"], False)]
            assert row["rmse_ratio_mean"] == pytest.approx(expected)
            assert row["n_pairs"] == 1

    def test_summary_structure(self):
        res = run_benchmark(small_grid())
        summary = build_summary(res)
        assert summary["n_records"] == len(res.records)
        model = summary["per_model"]["ridge"]
        assert model["n_pairs"] == 6
        assert model["rmse_ratio_mean"] > 0
        assert len(model["alpha_profile"]) == 2
        assert summary["wall_time_ms"]["total"] > 0


class TestGridConfig:
    def test_json_round_trip(self):
        grid = small_grid()
        assert ExperimentGrid.from_dict(grid.to_dict()) == grid

    def test_seed_count_shorthand(self):
        grid = ExperimentGrid.from_dict({"seeds": 5})
        assert grid.seeds == (0, 1, 2, 3, 4)
        assert ExperimentGrid(seeds=5) == grid

    def test_python_seeds_must_be_integers(self):
        # a float seed was truncated before (1.5 -> 1); numpy integers pass
        with pytest.raises(TypeError):
            ExperimentGrid(seeds=(0, 1.5))
        grid = ExperimentGrid(seeds=(np.int64(0), np.int32(1)))
        assert grid.seeds == (0, 1) and type(grid.seeds[1]) is int

    def test_dataset_header_flag_must_be_boolean(self):
        with pytest.raises(ValueError, match="DatasetSource.has_header"):
            ExperimentGrid.from_dict({"dataset": {"kind": "csv", "path": "t.csv",
                                                  "has_header": "false"}})

    @pytest.mark.parametrize("config, message", [
        ({"seeds": [0, 1.5]}, "ExperimentGrid.seeds[1] must be a JSON integer, got 1.5"),
        ({"alphas": [0, "1"]}, "ExperimentGrid.alphas[1] must be a JSON number, got '1'"),
        ({"models": ["ridge", 5]},
         "ExperimentGrid.models[1] must be a JSON string, got 5"),
        ({"dataset": {"path": ["t.csv"]}},
         "DatasetSource.path must not be a JSON array, got ['t.csv']"),
    ])
    def test_mistyped_grid_rejected(self, config, message):
        with pytest.raises(ValueError) as info:
            ExperimentGrid.from_dict(config)
        assert str(info.value) == message

    @pytest.mark.parametrize("name, values", [
        ("seeds", (0, 1, 0)), ("alphas", (1.0, 1.0)), ("models", ("ridge", "ridge")),
    ])
    def test_duplicate_values_rejected(self, name, values):
        # a repeated alpha would write duplicate rows and pair them as one
        with pytest.raises(ValueError, match=f"duplicate {name}"):
            small_grid(**{name: values})

    @pytest.mark.parametrize("setting, message", [
        ({"n_sweeps": 0}, "n_sweeps must be >= 1"),
        ({"ridge_lambda": -1.0}, "ridge_lambda must be nonnegative"),
    ])
    def test_run_settings_checked_up_front(self, setting, message):
        # rejected when the grid is built, before any cell is masked
        with pytest.raises(ValueError, match=message):
            small_grid(**setting)

    def test_imputation_config_carries_the_grid_settings(self):
        grid = small_grid(ridge_lambda=0.5, clip_epsilon=0.02, propensity_l2=0.1)
        cfg = grid.imputation_config("mlp", False, 7)
        assert cfg == ImputationConfig(
            regressor=RegressorSpec(kind="mlp", ridge_lambda=0.5,
                                    forest=grid.forest, mlp=grid.mlp),
            weighted=False, n_sweeps=2, clip_epsilon=0.02, propensity_l2=0.1,
            seed=7)

    def test_paired_design_is_implicit(self):
        # weighted/unweighted twins are generated per model kind, so any
        # grid is a paired design by construction
        res = run_benchmark(small_grid(seeds=(0,), alphas=(0.0,)))
        assert sorted(r.weighted for r in res.records) == [False, True]

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model kind"):
            ExperimentGrid(models=("boosting",))
