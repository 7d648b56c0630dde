import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiftimpute.engine as engine_mod
from oracles import reference_fit_propensity, reference_standardize
from shiftimpute.benchmark import (DatasetSource, ExperimentGrid,
                                  make_benchmark_dataset)
from shiftimpute.data import (DataMatrix, MaskMatrix, MaskedDataset,
                              load_masked_csv, save_csv)
from shiftimpute.engine import (
    ImputationConfig,
    impute,
    initial_impute,
    visitation_order,
)
from shiftimpute.masking import MarSpec, apply_mar_mask, select_random_spec, sigmoid
from shiftimpute.metrics import rmse_masked, wilcoxon_signed_rank
from shiftimpute.propensity import (GRADIENT_TOL, WeightVector,
                                   weights_from_propensity)
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

    def test_non_finite_imputation_names_column_sweep_and_row(self, monkeypatch):
        ds, _ = linear_pair_dataset(seed=13)
        original, calls = engine_mod.predict, []

        def nan_in_sweep_1(model, x):
            preds = original(model, x)
            calls.append(None)
            if len(calls) == 2:  # one target column: the second call is sweep 1
                preds[2] = np.nan
            return preds

        monkeypatch.setattr(engine_mod, "predict", nan_in_sweep_1)
        row = np.flatnonzero(~ds.mask.observed[:, 1])[2]
        with pytest.raises(RuntimeError, match=f"^column 1 failed at sweep 1: "
                                               f"non-finite imputation at row {row}$"):
            impute(ds, ridge_config(n_sweeps=3))

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


class TestPlantedMechanismRecovery:
    # The mechanism is logistic in the sum of fully observed predictors,
    # each standardized over all rows; the propensity design standardizes
    # over the target's observed rows instead, so a fitted coefficient
    # times the column's std over all rows over its std over the observed
    # rows (both on the completion) is the coefficient in the mechanism's
    # basis, the intercept absorbing the shift. Unpenalized, the fitted
    # propensity of the last sweep is well specified: alpha on the planted
    # predictors, 0 elsewhere. Seeds 0 and 3 read 2.67-3.21 on the planted
    # predictors, at most 0.40 in absolute value on the others and weight
    # correlations 0.98-0.999; the last sweep's fits stop below the
    # propensity tolerance like every other, at a gradient of at most
    # 9.3e-4.

    @pytest.mark.parametrize("seed", [0, 3])
    def test_unpenalized_fit_recovers_alpha(self, seed):
        alpha = 3.0
        grid = ExperimentGrid()
        data = make_benchmark_dataset(5000, 10, seed=0)
        layout = select_random_spec(data, grid.n_missing_cols,
                                    grid.n_predictors, seed=seed)
        spec = replace(layout, alpha=alpha,
                       target_missing_rate=grid.missing_rate, seed=seed + 1)
        ds, mechanism = apply_mar_mask(data, spec)
        cfg = replace(grid.imputation_config("ridge", True, seed),
                      propensity_l2=0.0)
        result = impute(ds, cfg)
        for k, (i, planted) in enumerate(zip(spec.missing_cols,
                                             spec.predictor_sets)):
            model = result.weights[i].propensity
            assert model.gradient < GRADIENT_TOL
            others = [j for j in range(ds.data.n_cols) if j != i]
            x = result.completed
            obs = ds.mask.observed[:, i]
            coef = {j: c * x[:, j].std() / x[obs, j].std()
                    for j, c in zip(others, model.coefficients)}
            for j in others:
                if j in planted:
                    assert abs(coef[j] - alpha) < 0.5, (i, j, coef[j])
                else:
                    assert abs(coef[j]) < 0.5, (i, j, coef[j])
            true_odds = mechanism.true_weight_ratios(k)[ds.mask.observed[:, i]]
            assert np.corrcoef(result.weights[i].weights, true_odds)[0, 1] > 0.95


class TestColumnStepState:
    # the weighted paper cell's Newton steps as measured, the sum of
    # n_iter - 1 over its step records (every fit converges, so its last
    # check takes no step): 16 in sweep 0 and 7 after
    PAPER_CELL_NEWTON_STEPS = 23

    def test_warm_started_sweeps_take_fewer_iterations(self):
        # sweep 0 fits from zero and each later step from the column's last
        # model, all until the gradient falls below the propensity tolerance;
        # a warm start already below it takes no Newton step
        ds, cfg = paper_cell()
        result = impute(ds, cfg)
        first, *warm = result.per_sweep
        cold = {c.column: c.propensity_n_iter for c in first.columns}
        for sweep in result.per_sweep:
            for c in sweep.columns:
                assert c.propensity_converged is True
                assert c.propensity_gradient < GRADIENT_TOL
        for sweep in warm:
            assert all(c.propensity_n_iter < cold[c.column]
                       for c in sweep.columns)
        assert any(c.propensity_n_iter == 1 for c in warm[-1].columns)

    def test_paper_cell_takes_at_most_its_measured_newton_steps(self):
        # a count, not a timing: it repeats exactly, so a change that makes
        # the IRLS take more steps fails here
        ds, cfg = paper_cell()
        result = impute(ds, cfg)
        steps = sum(c.propensity_n_iter - 1 for sweep in result.per_sweep
                    for c in sweep.columns)
        assert steps <= self.PAPER_CELL_NEWTON_STEPS

    def test_every_step_is_the_reference_fit_from_its_start(self, monkeypatch):
        # each step's model is the reference IRLS from the same start (zero
        # in sweep 0, else the column's previous model) stopped at the
        # propensity tolerance, bit for bit, and its weights come from that
        # model's probabilities
        original = engine_mod.weights_for_column
        steps = []

        def recording(design, obs_col, **kwargs):
            wv = original(design, obs_col, **kwargs)
            # BLAS rounding follows the memory layout: copy it as it is
            steps.append((design.copy(order="K"), obs_col.copy(), kwargs, wv))
            return wv

        monkeypatch.setattr(engine_mod, "weights_for_column", recording)
        ds, cfg = paper_cell()
        impute(ds, cfg)
        n_cols = len(ds.missing_columns())
        assert len(steps) == cfg.n_sweeps * n_cols
        for k, (design, obs_col, kwargs, wv) in enumerate(steps):
            assert (kwargs["init"] is None) == (k < n_cols)
            coef, intercept, converged, n_iter = reference_fit_propensity(
                design, obs_col.astype(float), kwargs["l2"], kwargs["init"])
            model = wv.propensity
            assert np.array_equal(model.coefficients, coef)
            assert model.intercept == intercept
            assert (model.converged, model.n_iter) == (converged, n_iter)
            eta = sigmoid(design @ np.append(coef, intercept))
            assert np.array_equal(
                wv.weights,
                weights_from_propensity(eta[obs_col], kwargs["clip_epsilon"]))

    def test_one_newton_scratch_per_weighted_call(self, monkeypatch):
        # every weighted step's fit gets its call's one d x n buffer; an
        # unweighted call allocates none
        original = engine_mod.weights_for_column
        scratches, built = [], []

        def recording(design, obs_col, **kwargs):
            scratches.append(kwargs["scratch"])
            return original(design, obs_col, **kwargs)

        class RecordingWorkspace(engine_mod._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(engine_mod, "weights_for_column", recording)
        monkeypatch.setattr(engine_mod, "_Workspace", RecordingWorkspace)
        ds, cfg = paper_cell()
        impute(ds, cfg)
        impute(ds, replace(cfg, weighted=False))
        weighted, unweighted = built
        assert len(scratches) == cfg.n_sweeps * len(ds.missing_columns())
        assert all(s is weighted.scratch for s in scratches)
        assert all(weighted.scratch.shape == design.T.shape
                   for _, _, design in weighted.views.values())
        assert unweighted.scratch is None

    def test_unweighted_steps_record_no_fit(self):
        ds, cfg = paper_cell(weighted=False)
        for sweep in impute(ds, cfg).per_sweep:
            for col in sweep.columns:
                assert col.propensity_n_iter == 0
                assert col.propensity_converged is None
                assert col.propensity_gradient is None

    def test_result_records_the_last_sweeps_weights(self, monkeypatch):
        ds, cfg = paper_cell()
        original = engine_mod._column_step
        fitted = {}

        def recording_step(*args):
            diag, wv = original(*args)
            fitted[args[1]] = wv
            return diag, wv

        monkeypatch.setattr(engine_mod, "_column_step", recording_step)
        result = impute(ds, cfg)
        assert sorted(result.weights) == ds.missing_columns()
        for i, wv in result.weights.items():
            assert wv is fitted[i]
            assert wv.propensity is not None
            assert wv.weights.size == int(ds.mask.observed[:, i].sum())
        assert impute(ds, replace(cfg, weighted=False)).weights == {}

    def test_fits_see_the_completion_standardized_over_observed_rows(
            self, monkeypatch):
        # every fit and predict gets, bit for bit, the other columns of the
        # completion before its step, each standardized over the target's
        # observed rows, weighted or not. Each step standardizes once: its
        # own block's predictor rows at the target's first step, then only
        # the rows of the other columns the run imputes, since the rest
        # still hold those same bits. A weighted step's propensity design is
        # those same predictors in the step's row order (observed rows
        # first), in the same memory, with a ones column, and its labels are
        # the observedness in that order
        original_step = engine_mod._column_step
        original_fit, original_predict, original_weights, original_std = (
            engine_mod.fit_regressor, engine_mod.predict,
            engine_mod.weights_for_column, engine_mod._standardize)
        expected = {}
        steps, fits, designs, standardized = [], [], [], []

        def checked_step(*args):
            completed, i, workspace = args[0], args[1], args[4]
            observed = expected["observed"]
            obs, miss = (np.flatnonzero(observed[:, i]),
                         np.flatnonzero(~observed[:, i]))
            rows = np.concatenate([obs, miss])
            assert np.array_equal(workspace.rows[i], rows)
            z = reference_standardize(np.delete(completed, i, axis=1), obs)
            expected["train"], expected["miss"] = z[obs], z[miss]
            expected["design"] = np.column_stack([z[rows], np.ones(len(rows))])
            expected["labels"] = observed[rows, i]
            buffer = expected["buffer"] = workspace.gathered[workspace.block[i]]
            standardized.clear()
            out = original_step(*args)
            [x] = standardized
            if i in steps:
                assert x.shape == (len(expected["imputed"]) - 1, buffer.shape[1])
            else:
                assert x.ctypes.data == buffer.ctypes.data
                assert x.shape == buffer.shape
            steps.append(i)
            return out

        def counted_standardize(x, n_stat):
            standardized.append(x)
            return original_std(x, n_stat)

        def checked_weights(design, labels, *args, **kwargs):
            assert np.array_equal(design, expected["design"])
            assert np.array_equal(labels, expected["labels"])
            assert np.shares_memory(design, expected["buffer"])
            designs.append(1)
            return original_weights(design, labels, *args, **kwargs)

        def checked_fit(spec, x_train, *args):
            assert np.array_equal(x_train, expected["train"])
            assert np.shares_memory(x_train, expected["buffer"])
            fits.append(spec)
            return original_fit(spec, x_train, *args)

        def checked_predict(model, x):
            assert np.array_equal(x, expected["miss"])
            return original_predict(model, x)

        monkeypatch.setattr(engine_mod, "_column_step", checked_step)
        monkeypatch.setattr(engine_mod, "_standardize", counted_standardize)
        monkeypatch.setattr(engine_mod, "fit_regressor", checked_fit)
        monkeypatch.setattr(engine_mod, "predict", checked_predict)
        monkeypatch.setattr(engine_mod, "weights_for_column", checked_weights)
        for weighted in (True, False):
            ds, cfg = paper_cell(weighted=weighted)
            expected["observed"] = ds.mask.observed
            expected["imputed"] = ds.missing_columns()
            for record in (steps, fits, designs):
                record.clear()
            impute(ds, cfg)
            assert len(steps) == len(fits) == (
                cfg.n_sweeps * len(ds.missing_columns()))
            assert len(designs) == (len(steps) if weighted else 0)

    def test_a_fit_cannot_write_into_its_predictors(self, monkeypatch):
        # a block's rows of fully observed columns outlive the step, so the
        # fits, predict and the propensity fit get read-only views: a fit
        # that writes fails its step instead of corrupting a later one
        ds, cfg = paper_cell()
        original = engine_mod.fit_regressor
        seen = []

        def writing_fit(spec, x_train, *args):
            seen.append(x_train)
            x_train[0, 0] = 0.0
            return original(spec, x_train, *args)

        monkeypatch.setattr(engine_mod, "fit_regressor", writing_fit)
        with pytest.raises(RuntimeError,
                           match="column .* failed at sweep 0: .*read-only"):
            impute(ds, cfg)
        assert len(seen) == 1

    def test_step_arrays_are_read_only_views(self, monkeypatch):
        seen = []
        for name in ("fit_regressor", "predict", "weights_for_column"):
            original = getattr(engine_mod, name)

            def recording(*args, _original=original, **kwargs):
                seen.append(next(a for a in args if isinstance(a, np.ndarray)
                                 and a.ndim == 2))
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine_mod, name, recording)
        ds, cfg = paper_cell()
        impute(ds, cfg)
        assert len(seen) == 3 * cfg.n_sweeps * len(ds.missing_columns())
        assert not any(x.flags.writeable for x in seen)

    def test_only_seeded_fits_derive_a_seed(self, monkeypatch):
        ds, cfg = paper_cell(weighted=False)
        cfg = replace(cfg, n_sweeps=1)
        derived = []
        original = engine_mod.derive_seed
        monkeypatch.setattr(engine_mod, "derive_seed",
                            lambda *args: derived.append(args) or original(*args))
        impute(ds, cfg)
        assert derived == []
        tiny = RegressorSpec(kind="forest", forest=ForestSpec(n_trees=1, max_depth=1))
        impute(ds, replace(cfg, regressor=tiny))
        assert len(derived) == len(ds.missing_columns())

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
                assert col.propensity_gradient < GRADIENT_TOL
                assert np.isfinite(col.effective_sample_size)


class TestRidgeGolden:
    # ridge_masked.csv is make_benchmark_dataset(200, 6, seed=7) under
    # MarSpec((1, 5), ((0, 2), (2, 3)), alpha=3.0, target_missing_rate=0.3,
    # seed=8). The completions and per-sweep diagnostics were written by the
    # engine with column-major buffers and block-form ridge normal equations
    # solved through the inverse of their Cholesky factor, the weighted ones
    # with weights from the propensity fit's last pass, every propensity fit
    # stopped at the propensity tolerance and a propensity design that is
    # the predictor buffer itself, rows in the step's order (observed rows
    # first) and standardized over the observed rows; BLAS rounding depends
    # on memory order and on how a system is formed, so a change to either
    # shows here.

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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 30),
           d=st.integers(2, 5), rate=st.sampled_from([0.1, 0.4]),
           kinds=st.lists(st.sampled_from(["normal", "tied", "constant"]),
                          min_size=5, max_size=5),
           weighted=st.booleans(), all_incomplete=st.booleans(),
           extra_blocks=st.integers(0, 3))
    @example(seed=3, n=12, d=5, rate=0.4, kinds=["normal"] * 5, weighted=True,
             all_incomplete=True, extra_blocks=3)
    @example(seed=4, n=20, d=5, rate=0.4, kinds=["normal", "tied", "constant",
                                                  "normal", "tied"],
             weighted=False, all_incomplete=False, extra_blocks=1)
    def test_kept_rows_give_the_bytes_of_full_refills(
            self, seed, n, d, rate, kinds, weighted, all_incomplete,
            extra_blocks):
        # a target that keeps its block refills only the rows of imputed
        # columns; the same run with every step refilling its whole block
        # (a budget of 0) gives the same bytes, and so does a budget that
        # gives only some targets a block of their own
        rng = np.random.default_rng(seed)
        columns = {"normal": lambda: rng.normal(size=n),
                   "tied": lambda: rng.integers(0, 3, size=n) * 0.5,
                   "constant": lambda: np.full(n, rng.normal())}
        values = np.column_stack([columns[kind]() for kind in kinds[:d]])
        observed = rng.random((n, d)) >= rate
        observed[0] = True           # no empty column
        observed[1, d - 1] = False   # something to impute
        if all_incomplete:
            # column j misses row h(j) = 1 + j % (n - 1), and an empty row r
            # gets column 0 or, if r = h(0), column 1 back
            observed[1 + np.arange(d) % (n - 1), np.arange(d)] = False
            empty = np.flatnonzero(~observed.any(axis=1))
            observed[empty, (empty == 1).astype(int)] = True
        else:
            observed[:, 0] = True    # no empty row, a column to keep
        ds = make_masked(values, observed)
        cfg = ridge_config(weighted=weighted, n_sweeps=3, ridge_lambda=1e-3)
        block_bytes = 8 * d * n
        built = []

        class RecordingWorkspace(engine_mod._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        def run(budget):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine_mod, "_Workspace", RecordingWorkspace)
                if budget is not None:
                    mp.setattr(engine_mod, "BLOCK_BUDGET_BYTES", budget)
                result = impute(ds, cfg)
            return (result.completed.tobytes(),
                    json.dumps([s.to_dict() for s in result.per_sweep]))

        kept = run(None)
        assert run(extra_blocks * block_bytes) == kept
        assert run(0) == kept
        n_targets = len(ds.missing_columns())
        blocks = [len(work.holder) for work in built]
        if n_targets == d:
            assert blocks == [1, 1, 1]
        else:
            assert blocks == [n_targets, 1 + min(n_targets - 1, extra_blocks), 1]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 80),
           d=st.integers(2, 5), alpha=st.sampled_from([0.0, 1.5, 3.0]),
           weighted=st.booleans())
    def test_row_permutation_permutes_the_completion(self, seed, n, d, alpha,
                                                     weighted):
        # permuting the rows only reorders every sum the run takes, so the
        # completion moves by rounding: at most 1.3e-10 over 4000 such
        # unit-scale tables (30-80 rows), held here to 1e-8
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, d))
        # missing more often where column 0 is large: a shift to correct
        p_missing = 1.0 / (1.0 + np.exp(-alpha * values[:, :1] - 1.0))
        observed = rng.random((n, d)) >= p_missing
        observed[:, 0] = observed[0] = True  # no empty row or column
        observed[1, d - 1] = False           # something to impute
        perm = rng.permutation(n)
        cfg = ridge_config(weighted=weighted, n_sweeps=3, ridge_lambda=1e-3)
        completed = impute(make_masked(values, observed), cfg).completed
        values, observed = values[perm], observed[perm]
        permuted = impute(make_masked(values, observed), cfg).completed
        assert permuted[observed].tobytes() == values[observed].tobytes()
        np.testing.assert_allclose(permuted, completed[perm], rtol=0, atol=1e-8)


    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 60),
           d=st.integers(2, 5), alpha=st.sampled_from([0.0, 1.5, 3.0]),
           kinds=st.lists(st.sampled_from(["normal", "tied", "constant"]),
                          min_size=5, max_size=5),
           weighted=st.booleans(), n_sweeps=st.integers(1, 4))
    def test_every_steps_diagnostics_are_finite(self, seed, n, d, alpha, kinds,
                                                weighted, n_sweeps):
        rng = np.random.default_rng(seed)
        columns = {"normal": lambda: rng.normal(size=n),
                   "tied": lambda: rng.integers(0, 3, size=n) * 0.5,
                   "constant": lambda: np.full(n, rng.normal())}
        values = np.column_stack([columns[kind]() for kind in kinds[:d]])
        p_missing = 1.0 / (1.0 + np.exp(-alpha * rng.normal(size=(n, 1)) - 1.0))
        observed = rng.random((n, d)) >= p_missing
        observed[:, 0] = observed[0] = True  # no empty row or column
        observed[1, d - 1] = False           # something to impute
        cfg = ridge_config(weighted=weighted, n_sweeps=n_sweeps, ridge_lambda=1e-3)
        result = impute(make_masked(values, observed), cfg)
        assert len(result.per_sweep) == n_sweeps
        for sweep in result.per_sweep:
            for c in sweep.columns:
                assert np.isfinite(c.train_weighted_mse)
                assert np.isfinite(c.mean_abs_update)
                assert np.isfinite(c.effective_sample_size)
                if weighted:
                    assert np.isfinite(c.propensity_gradient)
                else:
                    assert c.propensity_gradient is None

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 400),
           d=st.integers(2, 5), rate=st.sampled_from([0.1, 0.3, 0.6]),
           l2=st.sampled_from([1e-3, 0.05]), n_sweeps=st.integers(1, 4))
    def test_every_propensity_fit_converges_below_the_tolerance(
            self, seed, n, d, rate, l2, n_sweeps):
        # every weighted step's fit, cold in sweep 0 and warm after, stops
        # below the propensity tolerance, and the result carries the model of
        # each column's last step with the gradient and count it recorded
        rng = np.random.default_rng(seed)
        observed = rng.random((n, d)) >= rate
        observed[:, 0] = True                # no empty row
        observed[:2, 1:] = [[True], [False]]  # both label classes
        ds = make_masked(rng.normal(size=(n, d)), observed)
        cfg = ridge_config(n_sweeps=n_sweeps, ridge_lambda=1e-3,
                           propensity_l2=l2)
        result = impute(ds, cfg)
        for sweep in result.per_sweep:
            for c in sweep.columns:
                assert c.propensity_converged is True
                assert c.propensity_gradient < GRADIENT_TOL
        last = {c.column: c for c in result.per_sweep[-1].columns}
        assert sorted(result.weights) == sorted(last) == ds.missing_columns()
        for i, wv in result.weights.items():
            model = wv.propensity
            assert model.converged is True
            assert model.gradient == last[i].propensity_gradient
            assert model.n_iter == last[i].propensity_n_iter


class TestWorkspacePredictors:
    # long rows exercise numpy's summation past its 8,192-element buffer;
    # constant and tied columns the division-safe scale; a large offset the
    # rounding of the mean
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 20_000),
           d=st.integers(2, 5), frac_obs=st.floats(0.0, 1.0),
           kinds=st.lists(st.sampled_from(["normal", "constant", "tied",
                                           "offset"]), min_size=5, max_size=5))
    @example(seed=0, n=9, d=3, frac_obs=0.0, kinds=["normal"] * 5)
    @example(seed=1, n=20_001, d=4, frac_obs=0.9,
             kinds=["normal", "tied", "offset", "constant", "normal"])
    def test_predictors_match_per_column_statistics(self, seed, n, d, frac_obs,
                                                    kinds):
        rng = np.random.default_rng(seed)
        columns = {"normal": lambda: rng.normal(size=n),
                   "constant": lambda: np.full(n, rng.normal()),
                   "tied": lambda: rng.integers(0, 3, size=n) * 0.1,
                   "offset": lambda: 1e6 + rng.normal(size=n)}
        completed = np.asfortranarray(
            np.column_stack([columns[kind]() for kind in kinds[:d]]))
        n_obs = min(max(1, round(frac_obs * n)), n - 1)  # n_obs 1 .. n - 1
        observed = np.zeros((n, d), bool)
        observed[rng.permutation(n)[:n_obs], 0] = True
        obs, miss = np.flatnonzero(observed[:, 0]), np.flatnonzero(~observed[:, 0])
        work = engine_mod._Workspace(completed, observed, [0], weighted=True)
        rows = np.concatenate([obs, miss])
        assert np.array_equal(work.rows[0], rows)
        assert np.array_equal(work.labels[0], observed[rows, 0])
        x_train, x_miss, design = work.predictors(completed, 0)
        z = reference_standardize(completed[:, 1:], obs)
        assert np.array_equal(x_train, z[obs])
        assert np.array_equal(x_miss, z[miss])
        # the propensity design is the same buffer with a ones column
        assert np.shares_memory(design, x_train)
        assert np.shares_memory(design, x_miss)
        assert np.array_equal(design,
                              np.column_stack([z[rows], np.ones(n)]))
        # the Newton scratch has the layout of the design's transpose, apart
        assert work.scratch.shape == design.T.shape
        assert work.scratch.strides == design.T.strides
        assert not np.shares_memory(work.scratch, design)


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
        # and took train_weighted_mse from a separate forward pass. The
        # weighted files were rewritten when propensity fits after sweep 0
        # became one warm Newton step, when the propensity design took the
        # step's row order, observed rows first, when every propensity fit
        # came to stop at the propensity tolerance, and when the design
        # became the predictor buffer, standardized over the observed rows,
        # and when the MLP came to hold its parameters in one flat vector
        # with the hidden bias folded in and to scale each batch by
        # 2 w / sum(w); the unweighted files stayed byte-identical through
        # all five, the last because unit weights make 2 w / sum(w) exact.
        # All four stayed byte-identical when the epoch loss became the
        # running loss of the epoch's batches and train_weighted_mse came
        # from weighted_mse, as for every model.
        # Columns 1 and 3 have 26 and 28 observed rows, so every epoch ends
        # on a partial batch.
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
        # the message, loss included, was recorded with weights taken from
        # the last pass of a propensity fit stopped at the propensity
        # tolerance, on the predictor buffer (rows in the step's order,
        # observed rows first, standardized over the observed rows), and an
        # MLP step on one flat parameter vector with the hidden bias folded
        # in, whose epoch loss is the running loss of the epoch's batches;
        # the epoch and loss depend on every update, so the last bits of the
        # weights and of the step's rounding show in the loss
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
            "loss=74992277350.23079 (learning_rate=0.4)")

    def test_divergence_in_the_last_epoch_is_not_returned(self):
        # at learning rate 0.5 the running loss of the last epoch, 3, stays
        # under the limit, but the returned model's training MSE does not:
        # the step raises what the full-data loss of epoch 3 raised when the
        # fit still made a pass over all rows after every epoch
        rng = np.random.default_rng(21)
        x1 = rng.normal(size=60)
        data = DataMatrix(np.column_stack([x1, 2.0 * x1]), ("x1", "x2"))
        ds, _ = apply_mar_mask(data, MarSpec((1,), ((0,),), alpha=1.0,
                                             target_missing_rate=0.3, seed=22))
        cfg = ImputationConfig(
            regressor=RegressorSpec(kind="mlp", mlp=MlpSpec(
                hidden_units=4, learning_rate=0.5, epochs=3, batch_size=8)),
            n_sweeps=3, seed=3)
        with pytest.raises(RuntimeError) as info:
            impute(ds, cfg)
        assert str(info.value) == (
            "column 1 failed at sweep 0: MLP diverged at epoch 3: "
            "loss=13624090308.873396 (learning_rate=0.5)")


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

    @pytest.mark.parametrize("config, error, message", [
        ({"n_sweep": 3}, ValueError, "unknown ImputationConfig keys: n_sweep"),
        ({"regressor": {"knd": "mlp"}}, ValueError, "unknown RegressorSpec keys: knd"),
        ({"weighted": "false"}, TypeError,
         "ImputationConfig.weighted must be a JSON boolean, got 'false'"),
        ({"regressor": {"forest": {"bootstrap": "false"}}}, TypeError,
         "ForestSpec.bootstrap must be a JSON boolean, got 'false'"),
        ({"n_sweeps": 2.5}, TypeError,
         "ImputationConfig.n_sweeps must be a JSON integer, got 2.5"),
        ({"n_sweeps": 2.0}, TypeError,
         "ImputationConfig.n_sweeps must be a JSON integer, got 2.0"),
        ({"n_sweeps": True}, TypeError,
         "ImputationConfig.n_sweeps must be a JSON integer, got True"),
        ({"clip_epsilon": "0.1"}, TypeError,
         "ImputationConfig.clip_epsilon must be a JSON number, got '0.1'"),
        ({"regressor": 5}, TypeError,
         "ImputationConfig.regressor must be a JSON object, got 5"),
        ({"visitation": [5.7, 3]}, TypeError,
         "ImputationConfig.visitation[0] must be a JSON integer, got 5.7"),
        ({"visitation": [3, True]}, TypeError,
         "ImputationConfig.visitation[1] must be a JSON integer, got True"),
        ({"regressor": {"kind": 1}}, TypeError,
         "RegressorSpec.kind must be a JSON string, got 1"),
        # each fit's seed derives from the top-level seed, not a per-model one
        ({"regressor": {"forest": {"seed": 7}}}, ValueError,
         "unknown ForestSpec keys: seed"),
        ({"regressor": {"mlp": {"seed": 7}}}, ValueError, "unknown MlpSpec keys: seed"),
    ])
    def test_misread_config_rejected(self, config, error, message):
        with pytest.raises(error) as info:
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

    @pytest.mark.parametrize("build, message", [
        (lambda: ImputationConfig(seed=-1), "seed must be nonnegative, got -1"),
        (lambda: ImputationConfig.from_dict({"seed": -1}),
         "seed must be nonnegative, got -1"),
        (lambda: MarSpec((0,), ((1,),), 1.0, 0.3, seed=-5),
         "seed must be nonnegative, got -5"),
        (lambda: DatasetSource(seed=-2), "seed must be nonnegative, got -2"),
        (lambda: ExperimentGrid(seeds=(0, -1)), "seeds must be nonnegative, got -1"),
        (lambda: ExperimentGrid.from_dict({"seeds": [3, -4]}),
         "seeds must be nonnegative, got -4"),
    ])
    def test_negative_seed_rejected_when_built(self, build, message):
        # numpy's generators take no negative seed: fail here, not cell by
        # cell or column by column inside a run
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("record, name, value, kind", [
        (ImputationConfig, "n_sweeps", 2.5, "integer"),
        (ImputationConfig, "n_sweeps", True, "integer"),
        (ImputationConfig, "seed", 1.5, "integer"),
        (ImputationConfig, "weighted", "no", "boolean"),
        (ImputationConfig, "weighted", 1, "boolean"),
        (MlpSpec, "epochs", 1.5, "integer"),
        (MlpSpec, "hidden_units", np.float64(4.0), "integer"),
        (MlpSpec, "batch_size", "64", "integer"),
        (ForestSpec, "n_trees", 2.5, "integer"),
        (ForestSpec, "max_depth", 3.0, "integer"),
        (ForestSpec, "bootstrap", 0, "boolean"),
        (ExperimentGrid, "n_missing_cols", 2.0, "integer"),
        (ExperimentGrid, "n_predictors", False, "integer"),
        (ExperimentGrid, "n_sweeps", 2.5, "integer"),
        (DatasetSource, "n", 100.0, "integer"),
        (DatasetSource, "d", None, "integer"),
        (DatasetSource, "seed", 0.5, "integer"),
        (DatasetSource, "has_header", "yes", "boolean"),
        (MarSpec, "seed", 1.5, "integer"),
    ])
    def test_scalar_type_checked_when_built(self, record, name, value, kind):
        # a Python caller gets what a config file gets: no float truncated,
        # no truthy value read as a bool; numpy scalars of the right kind pass
        required = {"missing_cols": (0,), "predictor_sets": ((1,),),
                    "alpha": 1.0, "target_missing_rate": 0.3, "seed": 0}
        base = required if record is MarSpec else {}
        with pytest.raises(TypeError) as info:
            record(**{**base, name: value})
        assert str(info.value) == \
            f"{record.__name__}.{name} must be a JSON {kind}, got {value!r}"
        good = np.bool_(True) if kind == "boolean" else np.int64(3)
        built = record(**{**base, name: good})
        assert getattr(built, name) == good
        assert type(getattr(built, name)) is (bool if kind == "boolean" else int)
