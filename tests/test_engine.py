import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftimpute.engine as engine_mod
from shiftimpute.benchmark import ExperimentGrid, make_benchmark_dataset
from shiftimpute.data import (DataMatrix, MaskMatrix, MaskedDataset,
                              load_masked_csv, save_csv)
from shiftimpute.engine import (
    ImputationConfig,
    impute,
    initial_impute,
    visitation_order,
)
from shiftimpute.masking import MarSpec, apply_mar_mask, select_random_spec
from shiftimpute.metrics import rmse_masked, wilcoxon_signed_rank
from shiftimpute.propensity import WeightVector
from shiftimpute.regressors import (ForestSpec, MlpSpec, RegressorSpec,
                                    fit_weighted_ridge, predict)

DATA = Path(__file__).parent / "data"


def make_masked(values, observed):
    values = np.asarray(values, float)
    return MaskedDataset(
        DataMatrix(values, tuple(f"c{j}" for j in range(values.shape[1]))),
        MaskMatrix(np.asarray(observed, bool)),
    )


def ridge_config(**kwargs):
    lam = kwargs.pop("ridge_lambda", 1e-8)
    return ImputationConfig(regressor=RegressorSpec(kind="ridge", ridge_lambda=lam),
                            **kwargs)


class TestInitialImpute:
    def test_mean_of_observed(self):
        ds = make_masked([[1.0, 0.0], [5.0, 0.0], [3.0, 0.0]],
                         [[1, 1], [0, 1], [1, 1]])
        assert initial_impute(ds)[1, 0] == pytest.approx(2.0)

    def test_no_missing_is_identity(self):
        ds = make_masked([[1.0, 2.0], [3.0, 4.0]], np.ones((2, 2)))
        out = initial_impute(ds)
        np.testing.assert_array_equal(out, ds.data.values)
        assert out is not ds.data.values

    def test_single_observation_mean(self):
        ds = make_masked([[0.0, 1.0], [5.0, 2.0]], [[0, 1], [1, 1]])
        assert initial_impute(ds)[0, 0] == pytest.approx(5.0)


class TestVisitationOrder:
    def test_sorted_by_missing_count(self):
        observed = np.ones((20, 4), dtype=bool)
        observed[:10, 1] = False
        observed[:5, 3] = False
        ds = make_masked(np.zeros((20, 4)), observed)
        assert visitation_order(ds, "ascending_missing_count") == [3, 1]

    def test_tie_breaks_by_index(self):
        observed = np.ones((10, 5), dtype=bool)
        observed[:5, 2] = False
        observed[5:, 4] = False
        ds = make_masked(np.zeros((10, 5)), observed)
        assert visitation_order(ds, "ascending_missing_count") == [2, 4]

    def test_explicit_order_passthrough(self):
        observed = np.ones((10, 5), dtype=bool)
        observed[:5, 2] = False
        observed[5:, 4] = False
        ds = make_masked(np.zeros((10, 5)), observed)
        assert visitation_order(ds, (4, 2)) == [4, 2]

    def test_invalid_explicit_order(self):
        observed = np.ones((10, 3), dtype=bool)
        observed[0, 1] = False
        ds = make_masked(np.zeros((10, 3)), observed)
        with pytest.raises(ValueError, match="permutation"):
            visitation_order(ds, (1, 2))


def linear_pair_dataset(n=800, seed=0, alpha=1.0):
    """x2 = 2*x1 exactly, with MAR missingness planted in x2."""
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    data = DataMatrix(np.column_stack([x1, 2.0 * x1]), ("x1", "x2"))
    spec = MarSpec((1,), ((0,),), alpha=alpha, target_missing_rate=0.3,
                   seed=seed + 1)
    return apply_mar_mask(data, spec)


class TestImpute:
    def test_no_missing_data(self):
        ds = make_masked([[1.0, 2.0], [3.0, 4.0]], np.ones((2, 2)))
        result = impute(ds, ridge_config())
        np.testing.assert_array_equal(result.completed, ds.data.values)
        assert result.per_sweep == ()

    @pytest.mark.parametrize("weighted", [True, False])
    def test_noiseless_linear_recovery(self, weighted):
        ds, _ = linear_pair_dataset(seed=3)
        result = impute(ds, ridge_config(weighted=weighted, n_sweeps=2))
        truth = 2.0 * ds.data.values[:, 0]
        miss = ~ds.mask.observed[:, 1]
        np.testing.assert_allclose(result.completed[miss, 1], truth[miss],
                                   atol=1e-6)

    def test_observed_cells_bitwise_immutable(self):
        ds, _ = linear_pair_dataset(seed=4)
        result = impute(ds, ridge_config(weighted=True, n_sweeps=4))
        obs = ds.mask.observed
        assert np.array_equal(result.completed[obs], ds.data.values[obs])

    def test_deterministic_bytes(self):
        ds, _ = linear_pair_dataset(seed=5)
        cfg = ridge_config(weighted=True, n_sweeps=3, seed=42)
        a = impute(ds, cfg)
        b = impute(ds, cfg)
        assert a.completed.tobytes() == b.completed.tobytes()

    def test_unweighted_equals_forced_unit_weights(self, monkeypatch):
        ds, _ = linear_pair_dataset(seed=6, alpha=2.0)
        cfg_unweighted = ridge_config(weighted=False, n_sweeps=3, seed=1)
        baseline = impute(ds, cfg_unweighted)

        def unit_weights(design, obs_col, **kwargs):
            return WeightVector(np.ones(int(np.asarray(obs_col).sum())), None)

        monkeypatch.setattr(engine_mod, "weights_for_column", unit_weights)
        forced = impute(ds, ridge_config(weighted=True, n_sweeps=3, seed=1))
        assert forced.completed.tobytes() == baseline.completed.tobytes()

    def test_curved_truth_shifted_mask_weighting_wins_majority(self):
        # curved truth + linear imputer + missingness at large x1:
        # the weighted fit targets the missing region and wins most seeds
        wins = 0
        for seed in range(35):
            rng = np.random.default_rng(100 + seed)
            n = 1200
            x1 = rng.normal(size=n)
            x2 = x1 + 0.8 * (x1 ** 2 - 1.0) + 0.3 * rng.standard_normal(n)
            data = DataMatrix(np.column_stack([x1, x2]), ("x1", "x2"))
            spec = MarSpec((1,), ((0,),), alpha=-3.0, target_missing_rate=0.3,
                           seed=seed)
            ds, _ = apply_mar_mask(data, spec)
            cfg_w = ridge_config(ridge_lambda=1e-6, weighted=True, seed=seed)
            cfg_u = ridge_config(ridge_lambda=1e-6, weighted=False, seed=seed)
            rmse_w = rmse_masked(data, impute(ds, cfg_w).completed, ds.mask)
            rmse_u = rmse_masked(data, impute(ds, cfg_u).completed, ds.mask)
            wins += rmse_w < rmse_u
        assert wins > 35 / 2

    def test_mcar_modes_statistically_indistinguishable(self):
        rng = np.random.default_rng(7)
        n = 800
        base = np.column_stack([
            rng.normal(size=n),
            rng.normal(size=n),
            rng.normal(size=n),
        ])
        y = base @ np.array([1.0, -0.5, 0.3]) + 0.5 * rng.standard_normal(n)
        data = DataMatrix(np.column_stack([base, y]), ("a", "b", "c", "t"))
        diffs_w, diffs_u = [], []
        for seed in range(35):
            spec = MarSpec((3,), ((0, 1, 2),), alpha=0.0,
                           target_missing_rate=0.3, seed=seed)
            ds, _ = apply_mar_mask(data, spec)
            cfg_w = ridge_config(ridge_lambda=1e-6, weighted=True, seed=seed)
            cfg_u = ridge_config(ridge_lambda=1e-6, weighted=False, seed=seed)
            diffs_w.append(rmse_masked(data, impute(ds, cfg_w).completed, ds.mask))
            diffs_u.append(rmse_masked(data, impute(ds, cfg_u).completed, ds.mask))
        test = wilcoxon_signed_rank(np.array(diffs_w), np.array(diffs_u))
        assert test.p_value > 0.05

    def test_monotone_refinement_on_linear_synthetic(self):
        rng = np.random.default_rng(8)
        n = 1500
        base = rng.normal(size=(n, 3))
        y = base @ np.array([1.2, -0.7, 0.4]) + 0.4 * rng.standard_normal(n)
        data = DataMatrix(np.column_stack([base, y]), ("a", "b", "c", "t"))
        spec = MarSpec((3,), ((0, 1),), alpha=2.0, target_missing_rate=0.3, seed=9)
        ds, _ = apply_mar_mask(data, spec)
        initial_rmse = rmse_masked(data, initial_impute(ds), ds.mask)
        final = impute(ds, ridge_config(ridge_lambda=1e-6, n_sweeps=3))
        assert rmse_masked(data, final.completed, ds.mask) <= initial_rmse

    def test_failure_carries_column_and_sweep_context(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=200)
        values = np.column_stack([x, x, x + 1.0])  # duplicate predictors
        data = DataMatrix(values, ("a", "b", "t"))
        spec = MarSpec((2,), ((0,),), alpha=0.0, target_missing_rate=0.3, seed=11)
        ds, _ = apply_mar_mask(data, spec)
        cfg = ridge_config(ridge_lambda=0.0, weighted=False)
        with pytest.raises(RuntimeError, match="column 2 failed at sweep 0"):
            impute(ds, cfg)

    def test_diagnostics_shape_and_finiteness(self):
        ds, _ = linear_pair_dataset(seed=12)
        result = impute(ds, ridge_config(weighted=True, n_sweeps=2))
        assert len(result.per_sweep) == 2
        for sweep in result.per_sweep:
            (col,) = sweep.columns
            assert col.column == 1
            assert np.isfinite(col.train_weighted_mse)
            assert np.isfinite(col.mean_abs_update)
            n_obs = int(ds.mask.observed[:, 1].sum())
            assert 0 < col.effective_sample_size <= n_obs + 1e-9


def paper_cell(weighted=True, seed=0, alpha=3.0):
    """One cell of the paper's grid: n=5000, d=10, 4 masked columns, ridge."""
    grid = ExperimentGrid()
    data = make_benchmark_dataset(5000, 10, seed=0)
    layout = select_random_spec(data, grid.n_missing_cols, grid.n_predictors,
                                seed=seed)
    spec = replace(layout, alpha=alpha, target_missing_rate=grid.missing_rate,
                   seed=seed + 1)
    ds, _ = apply_mar_mask(data, spec)
    return ds, grid.imputation_config("ridge", weighted, seed)


class TestColumnStepState:
    def test_warm_started_sweeps_take_fewer_iterations(self):
        ds, cfg = paper_cell()
        result = impute(ds, cfg)
        iters = [[c.propensity_n_iter for c in s.columns] for s in result.per_sweep]
        assert np.mean(iters[1:]) < np.mean(iters[0])
        assert all(c.propensity_converged is True
                   for s in result.per_sweep for c in s.columns)

    def test_unweighted_steps_record_no_fit(self):
        ds, cfg = paper_cell(weighted=False)
        for sweep in impute(ds, cfg).per_sweep:
            for col in sweep.columns:
                assert col.propensity_n_iter == 0
                assert col.propensity_converged is None

    def test_result_records_the_last_sweeps_weights(self, monkeypatch):
        ds, cfg = paper_cell()
        original = engine_mod._column_step
        fitted = {}

        def recording_step(*args):
            diag, wv = original(*args)
            fitted[args[3]] = wv
            return diag, wv

        monkeypatch.setattr(engine_mod, "_column_step", recording_step)
        result = impute(ds, cfg)
        assert sorted(result.weights) == ds.missing_columns()
        for i, wv in result.weights.items():
            assert wv is fitted[i]
            assert wv.propensity is not None
            assert wv.weights.size == int(ds.mask.observed[:, i].sum())
        assert impute(ds, replace(cfg, weighted=False)).weights == {}

    def test_cached_scalings_track_the_completion(self, monkeypatch):
        ds, cfg = paper_cell()
        original = engine_mod._column_step
        steps = []

        def checked_step(*args):
            out = original(*args)
            completed, scalings = args[2], args[6]

            def fresh(block):
                std = block.std(axis=0)
                return block.mean(axis=0), np.where(std > 0, std, 1.0)

            cached = [scalings.all_rows] + [scalings.by_target[t]
                                            for t in scalings.obs_rows]
            expected = [fresh(completed)] + [fresh(completed[rows])
                                             for rows in scalings.obs_rows.values()]
            for (mean, scale), (fresh_mean, fresh_scale) in zip(cached, expected):
                np.testing.assert_allclose(mean, fresh_mean, rtol=0, atol=1e-12)
                np.testing.assert_allclose(scale, fresh_scale, rtol=0, atol=1e-12)
            steps.append(args[3])
            return out

        monkeypatch.setattr(engine_mod, "_column_step", checked_step)
        impute(ds, cfg)
        assert len(steps) == cfg.n_sweeps * len(ds.missing_columns())

    def test_warm_state_does_not_leak_between_calls(self):
        ds, cfg = paper_cell()
        other, _ = paper_cell(seed=1)
        first = impute(ds, cfg)
        impute(other, cfg)
        second = impute(ds, cfg)
        assert first.completed.tobytes() == second.completed.tobytes()
        assert first.per_sweep == second.per_sweep

    def test_fewer_rows_than_columns(self):
        # 4 rows, 8 columns: the penalized propensity fit is well posed
        rng = np.random.default_rng(17)
        observed = np.ones((4, 8), dtype=bool)
        observed[1, 0] = observed[2, 5] = False
        ds = make_masked(rng.normal(size=(4, 8)), observed)
        result = impute(ds, ridge_config(ridge_lambda=1e-3))
        assert np.all(np.isfinite(result.completed))
        for sweep in result.per_sweep:
            for col in sweep.columns:
                assert col.propensity_converged is True
                assert np.isfinite(col.effective_sample_size)


class TestRidgeGolden:
    # ridge_masked.csv is make_benchmark_dataset(200, 6, seed=7) under
    # MarSpec((1, 5), ((0, 2), (2, 3)), alpha=3.0, target_missing_rate=0.3,
    # seed=8). The completions and per-sweep diagnostics were written by an
    # earlier engine that allocated every step's arrays afresh; BLAS rounding
    # depends on memory order, so a workspace of another layout shows here.

    @pytest.mark.parametrize("tag, weighted", [("weighted", True),
                                               ("unweighted", False)])
    def test_completion_and_diagnostics_reproduce_golden_bytes(
            self, tag, weighted, tmp_path):
        ds = load_masked_csv(DATA / "ridge_masked.csv")
        cfg = ImputationConfig(regressor=RegressorSpec(kind="ridge"),
                               weighted=weighted, n_sweeps=3, seed=5)
        result = impute(ds, cfg)
        out = tmp_path / "complete.csv"
        save_csv(DataMatrix(result.completed, ds.data.column_names), out)
        assert out.read_bytes() == (DATA / f"ridge_{tag}_complete.csv").read_bytes()
        per_sweep = json.dumps([s.to_dict() for s in result.per_sweep], indent=2)
        assert per_sweep + "\n" == (DATA / f"ridge_{tag}_per_sweep.json").read_text()


class TestImputeProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30),
           d=st.integers(2, 5), rate=st.sampled_from([0.0, 0.1, 0.4]),
           weighted=st.booleans())
    def test_observed_cells_kept_and_reruns_equal(self, seed, n, d, rate, weighted):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, d))
        observed = rng.random((n, d)) >= rate
        observed[:, 0] = observed[0] = True  # no empty row or column
        ds = make_masked(values, observed)
        cfg = ridge_config(weighted=weighted, n_sweeps=2, ridge_lambda=1e-3)
        first, second = impute(ds, cfg), impute(ds, cfg)
        assert first.completed.tobytes() == second.completed.tobytes()
        assert first.completed[observed].tobytes() == values[observed].tobytes()
        if observed.all():
            assert first.completed.tobytes() == values.tobytes()
            assert first.completed is not ds.data.values
            assert first.per_sweep == ()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30),
           d=st.integers(2, 5), weighted=st.booleans())
    def test_results_outlive_the_next_call(self, seed, n, d, weighted):
        # a call's workspace is its own: the next call on a table of the same
        # shape leaves this call's results alone and hands back new arrays
        rng = np.random.default_rng(seed)
        tables = []
        for _ in range(2):
            observed = rng.random((n, d)) >= 0.3
            observed[:, 0] = observed[0] = True  # no empty row or column
            observed[1, d - 1] = False           # something to impute
            tables.append(make_masked(rng.normal(size=(n, d)), observed))
        cfg = ridge_config(weighted=weighted, n_sweeps=2, ridge_lambda=1e-3)

        def arrays(result):
            return [result.completed] + [a for i in sorted(result.weights)
                                         for a in (result.weights[i].weights,
                                                   result.weights[i].propensity
                                                   .coefficients)]

        first = impute(tables[0], cfg)
        kept = [a.tobytes() for a in arrays(first)]
        second = impute(tables[1], cfg)
        assert [a.tobytes() for a in arrays(first)] == kept
        assert len(kept) == (1 + 2 * len(tables[0].missing_columns())
                             if weighted else 1)
        assert not any(np.shares_memory(a, b)
                       for a in arrays(first) for b in arrays(second))


class TestSingleColumnSweeps:
    # linear_pair_dataset has missing cells in column 1 only, so each sweep
    # of impute is one column step on that column

    def test_unit_weights_match_plain_least_squares(self):
        ds, _ = linear_pair_dataset(seed=13)
        result = impute(ds, ridge_config(weighted=False, n_sweeps=1))
        obs = ds.mask.observed[:, 1]
        x = initial_impute(ds)[:, [0]]
        x_std = (x - x[obs].mean()) / x[obs].std()
        ols = fit_weighted_ridge(x_std[obs], ds.data.values[obs, 1],
                                 np.ones(int(obs.sum())), 1e-8)
        np.testing.assert_allclose(result.completed[~obs, 1],
                                   predict(ols, x_std[~obs]), atol=1e-9)

    def test_step_never_touches_observed_cells(self):
        ds, _ = linear_pair_dataset(seed=14)
        result = impute(ds, ridge_config(weighted=True, n_sweeps=1))
        obs = ds.mask.observed
        assert np.array_equal(result.completed[obs], ds.data.values[obs])

    def test_repeated_step_is_a_fixed_point(self):
        ds, _ = linear_pair_dataset(seed=15)
        once = impute(ds, ridge_config(weighted=False, n_sweeps=1)).completed
        twice = impute(ds, ridge_config(weighted=False, n_sweeps=2)).completed
        assert np.max(np.abs(twice - once)) < 1e-8


class TestMlpImpute:
    def test_completion_reproduces_golden_bytes(self, tmp_path):
        # mlp_complete.csv (the weighted completion) was written by save_csv
        # from what the earlier per-batch-gather training loop made of
        # mlp_masked.csv; the unweighted completion and both runs' per-sweep
        # diagnostics by a later loop that allocated its epoch arrays afresh
        # and took train_weighted_mse from a separate forward pass. Columns 1
        # and 3 have 26 and 28 observed rows, so every epoch ends on a
        # partial batch.
        ds = load_masked_csv(DATA / "mlp_masked.csv")
        for tag, weighted, completion in (
                ("weighted", True, "mlp_complete.csv"),
                ("unweighted", False, "mlp_unweighted_complete.csv")):
            cfg = ImputationConfig(
                regressor=RegressorSpec(kind="mlp", mlp=MlpSpec(
                    hidden_units=5, learning_rate=0.05, epochs=3, batch_size=8)),
                weighted=weighted, n_sweeps=2, seed=11)
            result = impute(ds, cfg)
            out = tmp_path / f"{tag}.csv"
            save_csv(DataMatrix(result.completed, ds.data.column_names), out)
            assert out.read_bytes() == (DATA / completion).read_bytes(), tag
            per_sweep = json.dumps([s.to_dict() for s in result.per_sweep],
                                   indent=2)
            assert per_sweep + "\n" == (
                DATA / f"mlp_{tag}_per_sweep.json").read_text(), tag

    def test_divergence_names_column_sweep_and_epoch(self):
        # the message, loss included, was recorded from the earlier training
        # loop on this input; the epoch and loss depend on every update
        rng = np.random.default_rng(21)
        x1 = rng.normal(size=60)
        data = DataMatrix(np.column_stack([x1, 2.0 * x1]), ("x1", "x2"))
        ds, _ = apply_mar_mask(data, MarSpec((1,), ((0,),), alpha=1.0,
                                             target_missing_rate=0.3, seed=22))
        cfg = ImputationConfig(
            regressor=RegressorSpec(kind="mlp", mlp=MlpSpec(
                hidden_units=4, learning_rate=0.4, epochs=30, batch_size=8)),
            n_sweeps=3, seed=3)
        with pytest.raises(RuntimeError) as info:
            impute(ds, cfg)
        assert str(info.value) == (
            "column 1 failed at sweep 0: MLP diverged at epoch 6: "
            "loss=7789557134508.799 (learning_rate=0.4)")


class TestConfig:
    def test_json_round_trip(self):
        cfg = ImputationConfig(regressor=RegressorSpec(kind="mlp"),
                               weighted=False, n_sweeps=2, visitation=(3, 1),
                               clip_epsilon=0.01, propensity_l2=1e-3, seed=5)
        assert ImputationConfig.from_dict(cfg.to_dict()) == cfg

    def test_sweep_count_validated(self):
        with pytest.raises(ValueError):
            ImputationConfig(n_sweeps=0)

    def test_visitation_validated(self):
        # the one check of the policy name; visitation_order trusts it
        with pytest.raises(ValueError, match="unknown visitation policy 'random'"):
            ImputationConfig(visitation="random")
        # a float column was truncated before (5.7 -> 5); numpy integers pass
        with pytest.raises(TypeError):
            ImputationConfig(visitation=(5.7, 3))
        cfg = ImputationConfig(visitation=(np.int64(5), 3))
        assert cfg.visitation == (5, 3) and type(cfg.visitation[0]) is int

    def test_json_integer_reads_as_float_field(self):
        cfg = ImputationConfig.from_dict({"propensity_l2": 0,
                                          "regressor": {"ridge_lambda": 1}})
        assert type(cfg.propensity_l2) is float
        assert type(cfg.regressor.ridge_lambda) is float

    @pytest.mark.parametrize("config, message", [
        ({"n_sweep": 3}, "unknown ImputationConfig keys: n_sweep"),
        ({"regressor": {"knd": "mlp"}}, "unknown RegressorSpec keys: knd"),
        ({"weighted": "false"},
         "ImputationConfig.weighted must be a JSON boolean, got 'false'"),
        ({"regressor": {"forest": {"bootstrap": "false"}}},
         "ForestSpec.bootstrap must be a JSON boolean, got 'false'"),
        ({"n_sweeps": 2.5}, "ImputationConfig.n_sweeps must be a JSON integer, got 2.5"),
        ({"n_sweeps": 2.0}, "ImputationConfig.n_sweeps must be a JSON integer, got 2.0"),
        ({"n_sweeps": True}, "ImputationConfig.n_sweeps must be a JSON integer, got True"),
        ({"clip_epsilon": "0.1"},
         "ImputationConfig.clip_epsilon must be a JSON number, got '0.1'"),
        ({"regressor": 5}, "ImputationConfig.regressor must be a JSON object, got 5"),
        ({"visitation": [5.7, 3]},
         "ImputationConfig.visitation[0] must be a JSON integer, got 5.7"),
        ({"visitation": [3, True]},
         "ImputationConfig.visitation[1] must be a JSON integer, got True"),
        ({"regressor": {"kind": 1}}, "RegressorSpec.kind must be a JSON string, got 1"),
        # each fit's seed derives from the top-level seed, not a per-model one
        ({"regressor": {"forest": {"seed": 7}}}, "unknown ForestSpec keys: seed"),
        ({"regressor": {"mlp": {"seed": 7}}}, "unknown MlpSpec keys: seed"),
    ])
    def test_misread_config_rejected(self, config, message):
        with pytest.raises(ValueError) as info:
            ImputationConfig.from_dict(config)
        assert str(info.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda: RegressorSpec(ridge_lambda=float("nan")),
         "ridge_lambda must be nonnegative and finite, got nan"),
        (lambda: RegressorSpec(ridge_lambda=float("inf")),
         "ridge_lambda must be nonnegative and finite, got inf"),
        (lambda: MlpSpec(learning_rate=float("nan")),
         "learning_rate must be positive and finite, got nan"),
        (lambda: ForestSpec(min_leaf_weight=float("nan")),
         "min_leaf_weight must be positive and finite, got nan"),
        (lambda: ImputationConfig(clip_epsilon=0.7),
         "clip_epsilon must be in (0, 0.5), got 0.7"),
        (lambda: ImputationConfig(clip_epsilon=0.0),
         "clip_epsilon must be in (0, 0.5), got 0.0"),
        (lambda: ImputationConfig(propensity_l2=float("inf")),
         "propensity_l2 must be nonnegative and finite, got inf"),
    ])
    def test_setting_out_of_range_rejected_when_built(self, build, message):
        # before the run: a weighted and an unweighted run reject it alike
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
