import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

import oracles
import shiftimpute.engine as engine_mod
from oracles import (cold_column_weights, reference_fit_propensity,
                     reference_weights_for_column, standardize, with_intercept)
from shiftimpute.benchmark import ExperimentGrid, run_benchmark
from shiftimpute.data import DataMatrix
from shiftimpute.engine import initial_impute
from shiftimpute import propensity
from shiftimpute.masking import MarSpec, apply_mar_mask, sigmoid
from shiftimpute.propensity import (
    PropensityModel,
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
# a stop far below the statistical one, for checks of the optimum itself and
# of the IRLS over many Newton steps
FULL_CONVERGENCE = 1e-8


class TestFitPropensity:
    def test_pure_noise_labels(self):
        rng = np.random.default_rng(0)
        n = 4000
        x = rng.normal(size=(n, 3))
        r = rng.random(n) < 0.5
        model = fit_propensity(with_intercept(x), r.astype(float))
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
        model = fit_propensity(with_intercept(x), r.astype(float), l2=1e-4)
        assert model.converged
        assert model.coefficients[0] == pytest.approx(2.0, abs=0.1)
        assert model.intercept == pytest.approx(0.5, abs=0.1)

    def test_separable_data_stays_finite(self):
        x = np.linspace(-1, 1, 40).reshape(-1, 1)
        r = (x[:, 0] > 0).astype(float)
        model = fit_propensity(with_intercept(x), r, l2=0.1)
        assert np.all(np.isfinite(model.coefficients))
        assert np.isfinite(model.intercept)

    def test_single_class_rejected(self):
        x = np.random.default_rng(2).normal(size=(50, 2))
        with pytest.raises(ValueError, match="both label classes"):
            fit_propensity(with_intercept(x), np.ones(50))

    @pytest.mark.parametrize("n, d", [(3, 4), (2, 2)])
    def test_needs_more_rows_than_columns(self, n, d):
        # d counts the predictors, not the design's ones column; with n == d
        # the d + 1 parameters would leave a singular Newton system
        x = np.random.default_rng(n).normal(size=(n, d))
        with pytest.raises(ValueError, match=r"^need n > d for an unpenalized "
                                             r"fit \(d predictors plus the "
                                             rf"intercept\), got n={n}, d={d}$"):
            fit_propensity(with_intercept(x), np.arange(n) % 2.0, l2=0.0)

    def test_singular_hessian_names_its_cause(self):
        # a constant predictor, standardized, is a zero column: unpenalized,
        # the Newton system is singular at the first step
        x = np.random.default_rng(13).normal(size=(400, 3))
        x[:, 1] = 0.0
        r = (np.arange(400) % 3 != 0).astype(float)
        message = (r"^singular propensity Hessian \(a constant or duplicated "
                   r"predictor\); use propensity_l2 > 0$")
        with pytest.raises(np.linalg.LinAlgError, match=message) as info:
            fit_propensity(with_intercept(x), r, l2=0.0)
        assert isinstance(info.value, ValueError)
        assert fit_propensity(with_intercept(x), r).converged

    def test_penalized_fit_allows_fewer_rows_than_columns(self):
        # 4 rows, 8 predictors: separable, but the L2 term keeps it well posed
        design = np.random.default_rng(9).normal(size=(4, 8))
        obs_col = np.array([True, False, True, True])
        wv = weights_for_column(with_intercept(design), obs_col)
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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propensity, "GRADIENT_TOL", FULL_CONVERGENCE)
            cold = fit_propensity(with_intercept(x), r, l2=1e-3)
            start = replace(
                cold, coefficients=cold.coefficients + jitter * rng.normal(size=p),
                intercept=cold.intercept + jitter * rng.normal())
            warm = fit_propensity(with_intercept(x), r, l2=1e-3, init=start)
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
        nll = _penalized_nll(z, np.exp(-np.abs(z)), r, coef, 0.1)
        assert nll == pytest.approx(reference, rel=1e-14)

    def test_init_width_checked(self):
        x = np.random.default_rng(10).normal(size=(50, 2))
        r = np.arange(50) % 2.0
        wider = fit_propensity(with_intercept(np.hstack([x, x[:, :1]])), r)
        with pytest.raises(ValueError, match="init has 3 coefficients, the "
                                             "design has 2 predictor columns"):
            fit_propensity(with_intercept(x), r, init=wider)

    @pytest.mark.parametrize("design", [
        np.random.default_rng(12).normal(size=(50, 3)),   # no ones column
        np.hstack([np.ones((50, 2)), np.full((50, 1), 2.0)]),
        np.ones((50, 0)),
    ])
    def test_design_without_trailing_ones_rejected(self, design):
        with pytest.raises(ValueError, match="last column must be all ones"):
            fit_propensity(design, np.arange(50) % 2.0)
        with pytest.raises(ValueError, match="last column must be all ones"):
            weights_for_column(design, np.arange(50) % 2 == 0)


def _propensity_case(n, p, l2, labels, start, layout, seed):
    """A design, labels and warm start for the fit; ``near_separable`` labels
    with a ``far`` start make the line search backtrack."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    score = x @ (3.0 * rng.normal(size=p))
    if labels == "near_separable":
        r = (score + 0.1 * rng.normal(size=n) > 0).astype(float)
    else:
        r = (rng.random(n) < sigmoid(0.3 * score + 0.5)).astype(float)
    order = {"C": np.ascontiguousarray, "F": np.asfortranarray}[layout]
    design = order(with_intercept(x))
    init = None
    if start == "near":
        coef, intercept, _, _ = reference_fit_propensity(design, r, l2)
        init = PropensityModel(coef + 0.3 * rng.normal(size=p),
                               intercept + 0.3 * rng.normal(), False, 0)
    elif start == "far":
        init = PropensityModel(10.0 * rng.normal(size=p),
                               10.0 * rng.normal(), False, 0)
    return design, r, init


class TestFitMatchesReferenceLoop:
    @pytest.fixture(autouse=True, scope="class")
    def fully_converged(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propensity, "GRADIENT_TOL", FULL_CONVERGENCE)
            yield

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 80),
        p=st.integers(1, 6),
        l2=st.sampled_from([0.0, 1e-4, 0.05, 1.0]),
        labels=st.sampled_from(["logistic", "near_separable"]),
        start=st.sampled_from(["cold", "near", "far"]),
        layout=st.sampled_from(["C", "F"]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n=4, p=8, l2=1e-4, labels="logistic", start="cold", layout="F",
             seed=0)   # fewer rows than predictors
    @example(n=60, p=3, l2=0.0, labels="near_separable", start="far",
             layout="F", seed=0)   # backtracks; see below
    @example(n=60, p=3, l2=0.05, labels="near_separable", start="far",
             layout="C", seed=1)   # backtracks; see below
    def test_fit_and_weights_are_bit_identical(self, n, p, l2, labels, start,
                                               layout, seed):
        # without a penalty, p + 1 parameters need more rows than that
        assume(l2 > 0 or n > p + 1)
        design, r, init = _propensity_case(n, p, l2, labels, start, layout, seed)
        assume(0 < r.sum() < n)
        try:
            coef, intercept, converged, n_iter = reference_fit_propensity(
                design, r, l2, init)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                fit_propensity(design, r, l2, init=init)
            return
        model = fit_propensity(design, r, l2, init=init)
        assert np.array_equal(model.coefficients, coef)
        assert model.intercept == intercept
        assert model.n_iter == n_iter
        assert model.converged == converged
        wv = weights_for_column(design, r == 1.0, l2, init=init)
        # the weights come from the probabilities of the fit's last pass, the
        # logits of every row at the returned parameters
        eta = sigmoid(design @ np.append(coef, intercept))
        assert np.array_equal(wv.weights, weights_from_propensity(eta[r == 1.0]))
        # the reference evaluates x @ coef + b on the observed rows instead,
        # which rounds differently in the last bits
        np.testing.assert_allclose(
            wv.weights,
            reference_weights_for_column(design, r == 1.0, l2, init=init),
            rtol=1e-12, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), scale=st.sampled_from([0.1, 3.0, 40.0]),
           l2=st.sampled_from([0.0, 1e-4, 0.05]), seed=st.integers(0, 2**31 - 1))
    def test_nll_and_logistic_are_bit_identical(self, n, scale, l2, seed):
        # the line search compares NLLs with a 1e-12 slack, so a last-bit
        # change in the NLL seldom reaches the fit; checked here directly
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=scale, size=n)
        r = (rng.random(n) < 0.5).astype(float)
        coef = rng.normal(size=3)
        e = np.exp(-np.abs(z))
        assert (_penalized_nll(z, e, r, coef, l2)
                == oracles._reference_penalized_nll(z, r, coef, l2))
        assert sigmoid(z, e=e).tobytes() == oracles._reference_sigmoid(z).tobytes()
        assert sigmoid(z).tobytes() == oracles._reference_sigmoid(z).tobytes()

    @pytest.mark.parametrize("l2, layout, seed", [(0.0, "F", 0), (0.05, "C", 1)])
    def test_near_separable_far_start_backtracks(self, monkeypatch, l2, layout,
                                                 seed):
        # the bit-identity examples above reach the halving search, which no
        # benchmark-grid fit does: a step the convexity certificate leaves
        # open whose full step raises the NLL
        calls, exps = [], []
        nll = oracles._reference_penalized_nll
        monkeypatch.setattr(oracles, "_reference_penalized_nll",
                            lambda *args: calls.append(1) or nll(*args))
        design, r, init = _propensity_case(60, 3, l2, "near_separable", "far",
                                           layout, seed)
        _, _, converged, n_iter = reference_fit_propensity(design, r, l2, init)
        # one call up front and one per Newton step when no step backtracks
        steps = n_iter - converged
        assert len(calls) > 1 + steps
        # the fit takes one exponential at its start and one per trial, so
        # more than one per step means a step was halved
        exp = np.exp
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "exp", lambda x: exps.append(1) or exp(x))
            fit_propensity(design, r, l2, init=init)
        assert len(exps) > 1 + steps

    def test_exhausted_line_search_keeps_the_current_fit(self):
        # almost every IRLS weight sits at its clip, so check 2's Newton step
        # is huge and each of its 31 trials raises the NLL: the fit stops
        # where it is, unconverged, with out and gradient of those parameters
        design, r, init = _propensity_case(60, 3, 0.05, "near_separable", "far",
                                           "C", 1)
        eta = np.empty(r.shape[0])
        model = fit_propensity(design, r, 0.05, init=init, out=eta)
        beta = np.append(model.coefficients, model.intercept)

        def nll(beta):
            z = design @ beta
            return _penalized_nll(z, np.exp(-np.abs(z)), r, beta[:-1], 0.05)

        assert not model.converged
        assert model.n_iter == 2
        assert nll(beta) <= nll(np.append(init.coefficients, init.intercept))
        z = design @ beta
        fitted, grad = propensity._probabilities_and_gradient(
            design, z, np.exp(-np.abs(z)), r, np.array([0.05] * 3 + [0.0]), beta)
        assert np.array_equal(eta, fitted)
        assert model.gradient == np.max(np.abs(grad)) > FULL_CONVERGENCE


class TestConvexityCertificate:
    # a Newton step whose trial gradient g satisfies g @ step >= 0 is taken
    # whole without evaluating the NLL: by convexity
    # NLL(beta) >= NLL(trial) + g @ (beta - trial), and beta - trial = step

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 80),
        p=st.integers(1, 6),
        l2=st.sampled_from([0.0, 1e-4, 0.05, 1.0]),
        labels=st.sampled_from(["logistic", "near_separable"]),
        start=st.sampled_from(["cold", "near", "far"]),
        layout=st.sampled_from(["C", "F"]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n=60, p=3, l2=0.05, labels="near_separable", start="far",
             layout="C", seed=1)   # backtracks
    def test_certified_step_does_not_raise_the_nll(self, n, p, l2, labels,
                                                   start, layout, seed):
        # along a path of full Newton steps, as the fit computes each piece
        assume(l2 > 0 or n > p + 1)
        design, r, init = _propensity_case(n, p, l2, labels, start, layout, seed)
        assume(0 < r.sum() < n)
        penalty = np.append(np.full(p, l2), 0.0)
        beta = (np.zeros(p + 1) if init is None
                else np.append(init.coefficients, init.intercept))

        def at(beta):
            z = design @ beta
            e = np.exp(-np.abs(z))
            eta, grad = propensity._probabilities_and_gradient(
                design, z, e, r, penalty, beta)
            return _penalized_nll(z, e, r, beta[:p], l2), eta, grad

        nll, eta, grad = at(beta)
        for _ in range(8):
            s = np.maximum(eta * (1.0 - eta), 1e-12)
            hess = (design.T * s) @ design / n + np.diag(penalty)
            try:
                step = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                return
            trial = beta - step
            trial_nll, eta, grad = at(trial)
            if grad @ step >= 0:
                assert trial_nll <= nll + 1e-12
            beta, nll = trial, trial_nll

    def test_cold_paper_cell_fit_evaluates_no_nll(self, monkeypatch):
        # the first weighted step of the grid's seed-11, alpha = 3 cell fits
        # from zero; every one of its Newton steps is certified
        first = []
        original = engine_mod.weights_for_column

        def recording(design, obs_col, **kwargs):
            if not first:
                first.append((design.copy(order="K"), obs_col.copy(),
                              kwargs["l2"]))
            return original(design, obs_col, **kwargs)

        monkeypatch.setattr(engine_mod, "weights_for_column", recording)
        assert not run_benchmark(ExperimentGrid(seeds=(11,),
                                                alphas=(3.0,))).failures
        design, obs_col, l2 = first[0]
        calls = []
        nll = propensity._penalized_nll
        monkeypatch.setattr(propensity, "_penalized_nll",
                            lambda *args: calls.append(1) or nll(*args))
        model = fit_propensity(design, obs_col.astype(float), l2)
        assert model.converged and model.n_iter > 2
        assert calls == []


class TestFittedProbabilities:
    # fit_propensity's ``out`` receives sigmoid(design @ [coef, intercept]),
    # which weights_for_column turns into weights without another pass

    def _case(self):
        design, r, _ = _propensity_case(200, 3, 1e-4, "logistic", "cold", "F", 4)
        return design, r

    def _expected(self, design, model):
        return sigmoid(design @ np.append(model.coefficients, model.intercept))

    def test_converged_fit_leaves_its_last_check(self):
        design, r = self._case()
        out = np.full(r.shape[0], np.nan)
        model = fit_propensity(design, r, out=out)
        assert model.converged
        assert out.tobytes() == self._expected(design, model).tobytes()

    @pytest.mark.parametrize("max_iter", [0, 1, 2])
    def test_nonconverged_fit_evaluates_its_final_parameters(
            self, monkeypatch, max_iter):
        monkeypatch.setattr(propensity, "MAX_ITER", max_iter)
        design, r = self._case()
        out = np.full(r.shape[0], np.nan)
        model = fit_propensity(design, r, out=out)
        assert not model.converged and model.n_iter == max_iter
        assert out.tobytes() == self._expected(design, model).tobytes()
        wv = weights_for_column(design, r == 1.0)
        assert np.array_equal(wv.weights, weights_from_propensity(out[r == 1.0]))

    @pytest.mark.parametrize("shape", [(199,), (201,), (200, 1), ()])
    def test_wrong_shape_rejected_before_fitting(self, monkeypatch, shape):
        calls = []
        # every Newton step forms its Hessian here
        monkeypatch.setattr(propensity, "weighted_gram",
                            lambda *args: calls.append(args))
        design, r = self._case()
        out = np.zeros(shape)
        with pytest.raises(ValueError, match=r"out must have shape \(200,\)"):
            fit_propensity(design, r, out=out)
        assert calls == []
        assert not out.any()


class TestCappedFit:
    # a fit stopped by ``MAX_ITER`` or by another ``GRADIENT_TOL`` is the
    # reference loop stopped alike, and the recorded gradient is
    # that of the returned parameters, from the probabilities left in ``out``

    @staticmethod
    def _recorded_gradient(design, r, l2, model, out):
        p = model.coefficients.shape[0]
        beta = np.append(model.coefficients, model.intercept)
        grad = design.T @ (out - r) / r.shape[0] + np.append(np.full(p, l2), 0.0) * beta
        return np.max(np.abs(grad))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 80),
        p=st.integers(1, 6),
        l2=st.sampled_from([0.0, 1e-4, 0.05, 1.0]),
        labels=st.sampled_from(["logistic", "near_separable"]),
        start=st.sampled_from(["near", "far"]),
        layout=st.sampled_from(["C", "F"]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n=60, p=3, l2=0.05, labels="near_separable", start="far",
             layout="C", seed=1)   # backtracks
    def test_one_step_is_the_capped_reference(self, n, p, l2, labels, start,
                                              layout, seed):
        assume(l2 > 0 or n > p + 1)
        design, r, init = _propensity_case(n, p, l2, labels, start, layout, seed)
        assume(0 < r.sum() < n)
        out = np.full(n, np.nan)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "MAX_ITER", 1)
            mp.setattr(propensity, "MAX_ITER", 1)
            try:
                coef, intercept, converged, n_iter = reference_fit_propensity(
                    design, r, l2, init)
            except np.linalg.LinAlgError:
                return
            model = fit_propensity(design, r, l2, init=init, out=out)
        assert np.array_equal(model.coefficients, coef)
        assert model.intercept == intercept
        assert model.converged == converged
        assert model.n_iter == n_iter == 1
        eta = oracles._reference_sigmoid(design @ np.append(coef, intercept))
        assert out.tobytes() == eta.tobytes()
        assert model.gradient == self._recorded_gradient(design, r, l2, model, out)
        # converged only when ``init`` passed the check; a step is not checked
        assert not converged or model.gradient < propensity.GRADIENT_TOL

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 80),
        p=st.integers(1, 6),
        l2=st.sampled_from([0.0, 1e-4, 0.05, 1.0]),
        labels=st.sampled_from(["logistic", "near_separable"]),
        start=st.sampled_from(["cold", "near", "far"]),
        tol=st.sampled_from([1e-1, 1e-3, 1e-5]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n=60, p=3, l2=0.05, labels="near_separable", start="far",
             tol=1e-3, seed=1)   # backtracks
    # at n = 20 the stop is the sampling-noise term, below a ``tol`` of 1e-1
    @example(n=20, p=1, l2=0.05, labels="logistic", start="near", tol=1e-1,
             seed=7)   # the start is below the stop: no step
    @example(n=20, p=1, l2=0.05, labels="logistic", start="cold", tol=1e-1,
             seed=0)   # zero is below the stop: no step
    def test_tolerance_stop_is_the_reference_stop(self, n, p, l2, labels,
                                                  start, tol, seed):
        assume(l2 > 0 or n > p + 1)
        design, r, init = _propensity_case(n, p, l2, labels, start, "F", seed)
        assume(0 < r.sum() < n)
        out = np.full(n, np.nan)
        exps, nlls = [], []
        exp, nll = np.exp, propensity._penalized_nll
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propensity, "GRADIENT_TOL", tol)
            try:
                coef, intercept, converged, n_iter = reference_fit_propensity(
                    design, r, l2, init)
            except np.linalg.LinAlgError:
                return
            mp.setattr(np, "exp", lambda x: exps.append(1) or exp(x))
            mp.setattr(propensity, "_penalized_nll",
                       lambda *args: nlls.append(1) or nll(*args))
            model = fit_propensity(design, r, l2, init=init, out=out)
        assert np.array_equal(model.coefficients, coef)
        assert model.intercept == intercept
        assert (model.converged, model.n_iter) == (converged, n_iter)
        eta = oracles._reference_sigmoid(design @ np.append(coef, intercept))
        assert out.tobytes() == eta.tobytes()
        assert model.gradient == self._recorded_gradient(design, r, l2, model, out)
        assert not converged or model.gradient < tol
        # one exponential per logit vector: the start's, then one per trial
        # of each Newton step, the first trial being the full step; NLLs
        # only for a step the convexity certificate does not settle, one at
        # its start and one per trial; a start below the stop takes no step
        # and returns its own parameters and probabilities
        steps = n_iter - converged
        halvings = len(exps) - 1 - steps
        uncertified, odd = divmod(len(nlls) - halvings, 2)
        assert halvings >= 0 and odd == 0 and 0 <= uncertified <= steps
        assert halvings == 0 or uncertified > 0
        if steps == 0:
            assert nlls == []
            start_beta = (np.zeros(p + 1) if init is None
                          else np.append(init.coefficients, init.intercept))
            assert np.array_equal(
                np.append(model.coefficients, model.intercept), start_beta)

    def test_converged_fit_records_its_last_check(self):
        design, r, _ = _propensity_case(200, 3, 1e-4, "logistic", "cold", "F", 4)
        out = np.empty(200)
        model = fit_propensity(design, r, 1e-4, out=out)
        assert model.converged and model.n_iter > 1
        assert model.gradient == self._recorded_gradient(design, r, 1e-4, model, out)
        assert model.gradient < propensity.GRADIENT_TOL
        # a fit not made by fit_propensity records none
        assert PropensityModel(model.coefficients, 0.0, False, 0).gradient is None

    def test_large_table_stops_inside_the_sampling_noise(self):
        # at n = 100,000 a quarter of the gradient's sampling noise
        # sqrt(rbar (1 - rbar) / n) is about 4e-4, below GRADIENT_TOL: that
        # is the stop, for the reference loop as for the fit
        n, l2 = 100_000, 1e-4
        design, r, _ = _propensity_case(n, 2, l2, "logistic", "cold", "F", 5)
        rbar = r.mean()
        stop = 0.25 * np.sqrt(rbar * (1.0 - rbar) / n)
        assert stop < 0.5 * propensity.GRADIENT_TOL
        out = np.empty(n)
        model = fit_propensity(design, r, l2, out=out)
        assert model.converged and model.gradient < stop
        coef, intercept, converged, n_iter = reference_fit_propensity(design, r, l2)
        assert np.array_equal(model.coefficients, coef)
        assert model.intercept == intercept
        assert (model.converged, model.n_iter) == (converged, n_iter)
        # a start between the two stops is not converged: it takes a step
        shift = 1.6 * stop / np.mean(out * (1.0 - out))
        start = replace(model, intercept=model.intercept + shift)
        at_start = np.empty(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propensity, "MAX_ITER", 0)
            unchecked = fit_propensity(design, r, l2, init=start, out=at_start)
        assert stop < self._recorded_gradient(
            design, r, l2, unchecked, at_start) < propensity.GRADIENT_TOL
        warm = fit_propensity(design, r, l2, init=start)
        assert warm.converged and warm.n_iter == 2 and warm.gradient < stop


class TestNewtonScratch:
    # ``scratch`` holds every Newton step's design.T * s; what it held before
    # never reaches a result, and it is checked like ``out``

    @staticmethod
    def _scratch(design):
        # full_like keeps the design's layout, so .T has design.T's
        return np.full_like(design, np.nan).T

    @staticmethod
    def _fit(design, r, l2, init, scratch):
        out = np.full(r.shape[0], np.nan)
        model = fit_propensity(design, r, l2, init=init, out=out, scratch=scratch)
        return model, out

    @pytest.mark.parametrize("case", [
        (200, 3, 1e-4, "logistic", "cold", "F", 4),
        (200, 3, 1e-4, "logistic", "near", "C", 5),
        (60, 3, 0.05, "near_separable", "far", "C", 1),   # backtracks
    ], ids=["cold", "warm", "backtracks"])
    def test_results_are_bit_identical_to_no_scratch(self, monkeypatch, case):
        design, r, init = _propensity_case(*case)
        l2 = case[2]
        calls = []
        nll = propensity._penalized_nll
        monkeypatch.setattr(propensity, "_penalized_nll",
                            lambda *args: calls.append(1) or nll(*args))
        plain, plain_out = self._fit(design, r, l2, init, None)
        steps = plain.n_iter - plain.converged
        assert steps > 0
        if case[4] == "far":  # halves: an unhalved step takes at most two NLLs
            assert len(calls) > 2 * steps
        scratch = self._scratch(design)
        model, out = self._fit(design, r, l2, init, scratch)
        assert model.coefficients.tobytes() == plain.coefficients.tobytes()
        assert model.intercept == plain.intercept
        assert (model.converged, model.n_iter) == (plain.converged, plain.n_iter)
        assert model.gradient == plain.gradient
        assert out.tobytes() == plain_out.tobytes()
        assert not np.isnan(scratch).any()  # the steps wrote into it
        wv = weights_for_column(design, r == 1.0, l2, init=init,
                                scratch=self._scratch(design))
        assert wv.weights.tobytes() == weights_for_column(
            design, r == 1.0, l2, init=init).weights.tobytes()

    @pytest.mark.parametrize("shape", [(4, 199), (200, 4), (3, 200), (4, 200, 1)])
    def test_wrong_shape_rejected_before_fitting(self, monkeypatch, shape):
        calls = []
        # every Newton step forms its Hessian here
        monkeypatch.setattr(propensity, "weighted_gram",
                            lambda *args: calls.append(args))
        design, r, _ = _propensity_case(200, 3, 1e-4, "logistic", "cold", "F", 4)
        scratch = np.zeros(shape)
        message = (r"scratch must have the design's transposed shape \(4, 200\), "
                   rf"got \({', '.join(map(str, shape))}\)")
        with pytest.raises(ValueError, match=message):
            fit_propensity(design, r, scratch=scratch)
        assert calls == []
        assert not scratch.any()

    def test_scratch_sharing_the_design_rejected(self):
        design, r, _ = _propensity_case(200, 3, 1e-4, "logistic", "cold", "F", 4)
        work = np.empty((5, 200))
        work[:4] = design.T
        # the design's own transpose, and rows overlapping it
        for scratch in (work[:4], work[1:]):
            with pytest.raises(ValueError, match="scratch must not share memory "
                                                 "with the design"):
                fit_propensity(work[:4].T, r, scratch=scratch)

    def test_warm_fit_allocates_no_design_sized_array(self):
        # with the scratch given, a fit's temporaries are n-vectors and
        # (d + 1)-sized; d = 29 keeps them far below one design
        n, p = 5000, 29
        design, r, init = _propensity_case(n, p, 1e-4, "logistic", "near", "F", 6)
        scratch = self._scratch(design)
        fit_propensity(design, r, init=init, scratch=scratch)
        tracemalloc.start()
        try:
            model = fit_propensity(design, r, init=init, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.n_iter > 1  # it took a Newton step
        assert peak < design.nbytes


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
            weights_for_column(with_intercept(design), np.ones(50, dtype=bool))


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
        model = fit_propensity(with_intercept(x_std), r.astype(float), l2=1e-4)
        eta = sigmoid(x_std[r] @ model.coefficients + model.intercept)
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
        assert set(entry) == {"coefficients", "intercept", "weight_histogram"}
        assert len(entry["coefficients"]) == 3
        assert len(entry["weight_histogram"]["counts"]) == 20
        assert len(entry["weight_histogram"]["edges"]) == 21
        n_obs = int(ds.mask.observed[:, 0].sum())
        assert sum(entry["weight_histogram"]["counts"]) == n_obs

    def test_dump_unchanged_on_fixed_input(self, monkeypatch):
        # the expected file was written with weights taken from the
        # propensity fit's last pass, then lost the convergence flag,
        # gradient and effective sample size the step records hold; cold
        # fits to full convergence on the same completion, formatted here,
        # must reproduce it byte for byte
        monkeypatch.setattr(propensity, "GRADIENT_TOL", FULL_CONVERGENCE)
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
