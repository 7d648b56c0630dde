import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from oracles import cold_column_weights, standardize
from shiftimpute.data import DataMatrix
from shiftimpute.engine import initial_impute
from shiftimpute.masking import MarSpec, apply_mar_mask, sigmoid
from shiftimpute.propensity import (
    _penalized_nll,
    effective_sample_size,
    fit_propensity,
    WeightVector,
    weight_diagnostics,
    weights_for_column,
    weights_from_propensity,
)

DATA = Path(__file__).parent / "data"

# clip-then-formula hand oracle: eta=1e-9 clipped to 1e-3, (1 - 1e-3)/1e-3
CLIPPED_RAW_WEIGHT = 999.0


class TestFitPropensity:
    def test_pure_noise_labels(self):
        rng = np.random.default_rng(0)
        n = 4000
        x = rng.normal(size=(n, 3))
        r = rng.random(n) < 0.5
        model = fit_propensity(x, r.astype(float))
        assert model.converged
        bound = 4.0 / np.sqrt(n)
        assert np.all(np.abs(model.coefficients) < bound)
        assert abs(model.intercept) < bound

    def test_recovers_generator(self):
        # self-consistency: labels drawn from sigmoid(2x + 0.5)
        rng = np.random.default_rng(1)
        n = 20_000
        x = rng.normal(size=(n, 1))
        r = rng.random(n) < sigmoid(2.0 * x[:, 0] + 0.5)
        model = fit_propensity(x, r.astype(float), l2=1e-4)
        assert model.converged
        assert model.coefficients[0] == pytest.approx(2.0, abs=0.1)
        assert model.intercept == pytest.approx(0.5, abs=0.1)

    def test_separable_data_stays_finite(self):
        x = np.linspace(-1, 1, 40).reshape(-1, 1)
        r = (x[:, 0] > 0).astype(float)
        model = fit_propensity(x, r, l2=0.1)
        assert np.all(np.isfinite(model.coefficients))
        assert np.isfinite(model.intercept)

    def test_single_class_rejected(self):
        x = np.random.default_rng(2).normal(size=(50, 2))
        with pytest.raises(ValueError, match="both label classes"):
            fit_propensity(x, np.ones(50))

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(ValueError, match="n >= d"):
            fit_propensity(np.ones((3, 4)), np.array([1.0, 0.0, 1.0]), l2=0.0)

    def test_penalized_fit_allows_fewer_rows_than_columns(self):
        # 4 rows, 8 predictors: separable, but the L2 term keeps it well posed
        design = np.random.default_rng(9).normal(size=(4, 8))
        obs_col = np.array([True, False, True, True])
        wv = weights_for_column(design, obs_col)
        assert wv.propensity.converged
        assert np.all(np.isfinite(wv.propensity.coefficients))
        assert np.all(np.isfinite(wv.weights)) and wv.weights.shape == (3,)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0), st.floats(0.0, 2.0))
    def test_warm_start_reaches_cold_optimum(self, seed, shift, jitter):
        rng = np.random.default_rng(seed)
        n, p = 400, 3
        x = rng.normal(size=(n, p))
        r = (rng.random(n) < sigmoid(x @ rng.normal(size=p) + shift)).astype(float)
        assume(0 < r.sum() < n)
        cold = fit_propensity(x, r, l2=1e-3)
        start = replace(cold,
                        coefficients=cold.coefficients + jitter * rng.normal(size=p),
                        intercept=cold.intercept + jitter * rng.normal())
        warm = fit_propensity(x, r, l2=1e-3, init=start)
        assert cold.converged and warm.converged
        np.testing.assert_allclose(warm.coefficients, cold.coefficients,
                                   rtol=0, atol=1e-6)
        assert warm.intercept == pytest.approx(cold.intercept, abs=1e-6)

    def test_penalized_nll_matches_logaddexp(self):
        rng = np.random.default_rng(11)
        z = np.concatenate([[0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300],
                            rng.normal(scale=10.0, size=1000)])
        r = (rng.random(z.size) < 0.5).astype(float)
        coef = rng.normal(size=3)
        reference = np.mean(np.logaddexp(0.0, z) - r * z) + 0.5 * 0.1 * coef @ coef
        assert _penalized_nll(z, r, coef, 0.1) == pytest.approx(reference, rel=1e-14)

    def test_init_width_checked(self):
        x = np.random.default_rng(10).normal(size=(50, 2))
        r = np.arange(50) % 2.0
        with pytest.raises(ValueError, match="init has 3 coefficients"):
            fit_propensity(x, r, init=fit_propensity(np.hstack([x, x[:, :1]]), r))


class TestWeightsFromPropensity:
    def test_symmetric_propensity_gives_unit_weights(self):
        np.testing.assert_allclose(weights_from_propensity(np.full(10, 0.5)), 1.0)

    def test_constant_propensity_normalizes_to_one(self):
        w = weights_from_propensity(np.array([0.8, 0.8]))
        np.testing.assert_allclose(w, 1.0)

    def test_clipping_before_odds(self):
        # against an unclipped eta=0.5 row of odds 1, the clipped row keeps
        # its raw odds as the ratio
        w = weights_from_propensity(np.array([1e-9, 0.5]), clip_epsilon=1e-3)
        assert w[0] / w[1] == pytest.approx(CLIPPED_RAW_WEIGHT, abs=1e-9)

    def test_normalization_idempotent(self):
        rng = np.random.default_rng(3)
        eta = rng.uniform(0.05, 0.95, 200)
        once = weights_from_propensity(eta)
        twice = once / np.mean(once)
        np.testing.assert_allclose(once, twice, rtol=0, atol=1e-15)
        assert once.mean() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 1 - 1e-6))
    def test_clipping_monotone_in_eta(self, a, b):
        lo, hi = min(a, b), max(a, b)
        w = weights_from_propensity(np.array([lo, hi]))
        assert w[0] >= w[1]

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            weights_from_propensity(np.array([0.5]), clip_epsilon=0.7)


class TestWeightVector:
    @pytest.mark.parametrize("weights, message", [
        ([1.0, np.nan], "finite and nonnegative"),
        ([2.5, -0.5], "finite and nonnegative"),
        ([0.5, 0.5], "mean 1"),
    ])
    def test_checks(self, weights, message):
        with pytest.raises(ValueError, match=message):
            WeightVector(np.array(weights), None)


def _masked_gaussian(n, d, alpha, seed, missing_col=0, predictors=(1, 2)):
    rng = np.random.default_rng(seed)
    data = DataMatrix(rng.normal(size=(n, d)), tuple(f"c{j}" for j in range(d)))
    spec = MarSpec((missing_col,), (tuple(predictors),), alpha=alpha,
                   target_missing_rate=0.3, seed=seed + 1)
    return apply_mar_mask(data, spec)


class TestEstimateWeights:
    def test_mcar_weights_collapse_toward_one(self):
        ds, _ = _masked_gaussian(5000, 3, alpha=0.0, seed=4, predictors=(1,))
        wv = cold_column_weights(initial_impute(ds), ds.mask.observed, 0)
        assert wv.weights.mean() == pytest.approx(1.0, abs=1e-12)
        assert wv.weights.min() > 0.8
        assert wv.weights.max() < 1.25

    def test_mar_weights_track_true_ratios(self):
        ds, mech = _masked_gaussian(5000, 6, alpha=3.0, seed=5,
                                    predictors=(1, 2, 3))
        wv = cold_column_weights(initial_impute(ds), ds.mask.observed, 0)
        true_ratio = mech.true_weight_ratios(0)[ds.mask.observed[:, 0]]
        rho = spearmanr(wv.weights, true_ratio).statistic
        assert rho > 0.9

    def test_fully_observed_column_rejected(self):
        design = np.random.default_rng(6).normal(size=(50, 2))
        with pytest.raises(ValueError, match="both label classes"):
            weights_for_column(design, np.ones(50, dtype=bool))


class TestBayesRatioIdentity:
    def test_two_component_closed_form(self):
        # x | observed ~ N(0,1), x | missing ~ N(1,1): the true density ratio
        # p(x|miss)/p(x|obs) is exp(x - 0.5) and the true propensity is
        # logistic, so the classifier is well-specified.
        rng = np.random.default_rng(7)
        n = 50_000
        r = rng.random(n) < 0.55
        x = np.where(r, rng.normal(0.0, 1.0, n), rng.normal(1.0, 1.0, n))
        x_std = standardize(x.reshape(-1, 1))
        model = fit_propensity(x_std, r.astype(float), l2=1e-4)
        eta = model.predict_proba(x_std[r])
        est = weights_from_propensity(eta)
        true = np.exp(x[r] - 0.5)
        true /= true.mean()
        central = np.abs(x[r]) <= 3.0
        rel_err = np.abs(est[central] - true[central]) / true[central]
        assert rel_err.max() < 0.05

    def test_effective_sample_size(self):
        assert effective_sample_size(np.ones(10)) == pytest.approx(10.0)
        assert effective_sample_size(np.array([1.0, 0.0])) == pytest.approx(1.0)


class TestDiagnostics:
    def test_dump_structure(self):
        ds, _ = _masked_gaussian(600, 4, alpha=1.0, seed=8, predictors=(1, 2))
        dump = weight_diagnostics(
            {0: cold_column_weights(initial_impute(ds), ds.mask.observed, 0)})
        assert set(dump) == {"0"}
        entry = dump["0"]
        assert len(entry["coefficients"]) == 3
        assert len(entry["weight_histogram"]["counts"]) == 20
        assert len(entry["weight_histogram"]["edges"]) == 21
        n_obs = int(ds.mask.observed[:, 0].sum())
        assert 0 < entry["effective_sample_size"] <= n_obs + 1e-9
        assert sum(entry["weight_histogram"]["counts"]) == n_obs

    def test_dump_unchanged_on_fixed_input(self):
        # the expected file was written by an earlier implementation that fit
        # the models itself; cold fits on the same completion, formatted
        # here, must reproduce it byte for byte
        rng = np.random.default_rng(31)
        data = DataMatrix(rng.normal(size=(400, 5)), tuple(f"c{j}" for j in range(5)))
        spec = MarSpec((0, 3), ((1, 2), (2, 4)), alpha=2.0,
                       target_missing_rate=0.3, seed=32)
        ds = apply_mar_mask(data, spec)[0]
        completed = initial_impute(ds)
        # built in descending order: the dump sorts the columns itself
        weights = {i: cold_column_weights(completed, ds.mask.observed, i)
                   for i in reversed(ds.missing_columns())}
        text = json.dumps(weight_diagnostics(weights), indent=2) + "\n"
        assert text == (DATA / "weight_diagnostics.json").read_text()
