import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import shiftimpute.masking as masking
from oracles import full_table_scores, reference_calibrate_intercept, standardize
from shiftimpute.benchmark import ExperimentGrid, make_benchmark_dataset
from shiftimpute.data import DataMatrix
from shiftimpute.masking import (
    CALIBRATION_TOL,
    MarSpec,
    _column_scores,
    apply_mar_mask,
    calibrate_intercept,
    select_random_spec,
    sigmoid,
)

# closed-form logit oracle: mean sigmoid(b) = 0.7  =>  b = ln(0.7/0.3)
LOGIT_07 = math.log(7.0 / 3.0)


def gaussian_matrix(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return DataMatrix(rng.normal(size=(n, d)), tuple(f"c{j}" for j in range(d)))


def two_branch_sigmoid(z):
    """The mask-indexed formula: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert sigmoid(40.0) > 1 - 1e-15

    def test_ln3(self):
        # 1/(1 + exp(-ln 3)) = 3/4 by hand
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)

    def test_no_overflow_at_700(self):
        assert 0.0 < sigmoid(-700.0) < 1e-300
        assert sigmoid(700.0) == 1.0  # saturates without warnings/overflow

    def test_bitwise_equal_to_two_branch_formula(self):
        z = np.concatenate([
            [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300],
            np.random.default_rng(0).normal(size=2000),
            np.random.default_rng(1).normal(scale=30.0, size=2000),
        ])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = sigmoid(z)
        assert got.tobytes() == two_branch_sigmoid(z).tobytes()
        assert sigmoid(-0.0) == 0.5

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-700, 700, allow_nan=False))
    def test_symmetry(self, z):
        assert sigmoid(-z) == pytest.approx(1.0 - sigmoid(z), abs=1e-15)


class TestCalibrateIntercept:
    def test_zero_scores_target_03(self):
        beta = calibrate_intercept(np.zeros(100), 0.3)
        assert beta == pytest.approx(LOGIT_07, abs=1e-4)

    def test_zero_scores_target_05(self):
        assert calibrate_intercept(np.zeros(50), 0.5) == pytest.approx(0.0, abs=1e-4)

    def test_two_point_scores_vs_grid_oracle(self):
        scores = np.array([-1.0, 1.0])
        beta = calibrate_intercept(scores, 0.3)
        # dense grid search oracle over the same interval
        grid = np.linspace(-50, 50, 2_000_001)
        rates = 1.0 - 0.5 * (sigmoid(-1.0 + grid) + sigmoid(1.0 + grid))
        oracle = grid[np.argmin(np.abs(rates - 0.3))]
        assert beta == pytest.approx(oracle, abs=1e-4)
        achieved = float(np.mean(1.0 - sigmoid(scores + beta)))
        assert abs(achieved - 0.3) <= 1e-4

    def test_rate_tolerance_contract(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(0, 2, 500)
        for target in (0.05, 0.3, 0.7, 0.95):
            beta = calibrate_intercept(scores, target)
            achieved = float(np.mean(1.0 - sigmoid(scores + beta)))
            assert abs(achieved - target) <= 1e-4

    def test_non_bracketing_reported(self):
        with pytest.raises(ValueError, match="bracket"):
            calibrate_intercept(np.full(10, 1e6), 0.3)

    def test_target_range_validated(self):
        with pytest.raises(ValueError):
            calibrate_intercept(np.zeros(5), 0.999)


def calibration_outcome(calibrate, scores, target_rate):
    """The intercept, or the message of the ValueError raised instead."""
    try:
        return "intercept", calibrate(scores, target_rate)
    except ValueError as exc:
        return "error", str(exc)


def rate_gap(scores, target_rate, b):
    return float(np.mean(1.0 - sigmoid(scores + b))) - target_rate


def generated_scores(n, kind, spread, offset, seed):
    rng = np.random.default_rng(seed)
    if kind == "normal":
        s = rng.normal(size=n)
    elif kind == "tied":
        s = np.round(rng.normal(size=n))
    elif kind == "constant":
        s = np.ones(n)
    else:  # two-point
        s = rng.choice([-1.0, 1.0], size=n)
    return spread * s + offset


def paper_layout_scores():
    """The seed-11 alpha=3 cell of the default grid: its data and scores."""
    grid = ExperimentGrid()
    data = make_benchmark_dataset()
    layout = select_random_spec(data, grid.n_missing_cols, grid.n_predictors,
                                seed=11)
    spec = MarSpec(layout.missing_cols, layout.predictor_sets, 3.0,
                   grid.missing_rate, 0)
    return _column_scores(data, spec), grid.missing_rate


def calibration_contract(scores, rate):
    """Assert the calibration's contract against the bisection oracle: the
    same ValueError whenever the oracle raises, else an intercept within the
    tolerance whose ``out`` is ``sigmoid(scores + b)`` bit for bit."""
    expected = calibration_outcome(reference_calibrate_intercept, scores, rate)
    p = np.full(scores.shape, np.nan)
    got = calibration_outcome(
        lambda s, r: calibrate_intercept(s, r, out=p), scores, rate)
    if expected[0] == "error":
        assert got == expected
        return
    kind, b = got
    assert kind == "intercept" and -50.0 <= b <= 50.0
    assert abs(rate_gap(scores, rate, b)) <= CALIBRATION_TOL
    assert np.array_equal(p, sigmoid(scores + b))


def counting_sigmoid(monkeypatch, calls):
    """Have masking and the oracle append each ``sigmoid`` argument to
    ``calls``: one rate evaluation per call."""
    def recorded(z, **kwargs):
        calls.append(np.array(z, dtype=float))
        return sigmoid(z, **kwargs)

    monkeypatch.setattr(masking, "sigmoid", recorded)
    monkeypatch.setattr(oracles, "sigmoid", recorded)


class TestCalibrationContract:
    """The Newton solve meets the tolerance wherever the plain bisection,
    kept in ``oracles``, does, and raises its message wherever it raises."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5000),
           st.sampled_from(["normal", "tied", "constant", "two-point"]),
           st.floats(-3.0, 3.0), st.floats(-5.0, 5.0),
           st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
           st.integers(0, 2**32 - 1))
    def test_against_the_oracle(self, n, kind, log_spread, offset, rate, seed):
        # spreads up to 1e3, where p(1 - p) underflows on most rows
        calibration_contract(
            generated_scores(n, kind, 10.0 ** log_spread, offset, seed), rate)

    @pytest.mark.parametrize("scores, rate", [
        (np.zeros(1), 0.3), (np.zeros(100), 0.3), (np.zeros(50), 0.5),
        (np.zeros(7), 0.0101), (np.zeros(7), 0.9899),
        (np.full(10, 1e6), 0.3), (np.full(10, -1e6), 0.3),  # cannot bracket
        (np.array([-60.0, 0.0]), 0.4999),  # rate(50) just above the target
        (np.array([-1e3, 1e3]), 0.3), (np.array([-1e3, 1e3]), 0.5),
        (np.array([-40.0, 40.0]), 0.5),  # a flat rate over most of [-50, 50]
        (np.array([60.0, -1.0]), 0.3), (np.array([-45.0, 3.0, 3.0]), 0.2),
        # the scores' sum overflows
        (np.array([1.7e308, 1.7e308]), 0.3),
        (np.array([1.7e308, 1.7e308, -1.7e308, 0.0]), 0.4),
        (np.array([-1.7e308, -1.7e308, 1.7e308, 1.7e308, 1.0]), 0.5),
    ])
    def test_edge_cases_against_the_oracle(self, scores, rate):
        calibration_contract(scores, rate)

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 5, 30])
    def test_iteration_cap_returns_the_last_iterate(self, monkeypatch, max_iter):
        # capped, the solve returns the intercept its uncapped run evaluates
        # next (after the two bracket checks), or the same answer if that run
        # needs no more evaluations
        scores, rate = paper_layout_scores()
        cases = [(scores[:, k], rate) for k in range(scores.shape[1])]
        cases += [(np.zeros(20), 0.3), (np.array([-45.0, 3.0, 3.0]), 0.2)]
        calls = []
        counting_sigmoid(monkeypatch, calls)
        runs = []
        for s, r in cases:
            calls.clear()
            runs.append((s, r, calibrate_intercept(s, r), calls[2:]))
        monkeypatch.setattr(masking, "CALIBRATION_MAX_ITER", max_iter)
        for s, r, uncapped, iterates in runs:
            p = np.empty_like(s)
            b = calibrate_intercept(s, r, out=p)
            assert -50.0 <= b <= 50.0
            assert np.array_equal(p, sigmoid(s + b))
            if max_iter < len(iterates):
                assert np.array_equal(s + b, iterates[max_iter])
            else:
                assert b == uncapped

    def test_paper_cell_evaluates_the_rate_half_as_often(self, monkeypatch):
        calls = []
        counting_sigmoid(monkeypatch, calls)
        scores, rate = paper_layout_scores()
        for k in range(scores.shape[1]):
            calls.clear()
            calibrate_intercept(scores[:, k], rate)
            solved = len(calls)
            calls.clear()
            reference_calibrate_intercept(scores[:, k], rate)
            assert 2 * solved <= len(calls), (solved, len(calls))

    def test_default_grid_evaluates_the_rate_six_times(self, monkeypatch):
        # seeds 0-9 x 7 alphas x 4 planted columns, bracket checks included
        calls = []
        counting_sigmoid(monkeypatch, calls)
        grid = ExperimentGrid()
        data = make_benchmark_dataset()
        calibrations = 0
        for seed in range(10):
            layout = select_random_spec(data, grid.n_missing_cols,
                                        grid.n_predictors, seed=seed)
            for alpha in grid.alphas:
                spec = MarSpec(layout.missing_cols, layout.predictor_sets,
                               alpha, grid.missing_rate, seed)
                scores = _column_scores(data, spec)
                for k in range(scores.shape[1]):
                    calibrate_intercept(scores[:, k], grid.missing_rate)
                    calibrations += 1
        assert calibrations == 280
        assert len(calls) / calibrations <= 6.0, len(calls) / calibrations


class TestCalibratedProbabilities:
    """The mask's probabilities come from the calibration: its last rate
    evaluation's when that met the tolerance at the returned intercept,
    computed at the intercept only when the solve ran out."""

    @pytest.mark.parametrize("max_iter", [None, 2])
    @pytest.mark.parametrize("seed", range(10))
    def test_probabilities_at_the_returned_intercept(self, monkeypatch, seed,
                                                     max_iter):
        if max_iter is not None:
            monkeypatch.setattr(masking, "CALIBRATION_MAX_ITER", max_iter)
        grid = ExperimentGrid()
        data = make_benchmark_dataset()
        layout = select_random_spec(data, grid.n_missing_cols, grid.n_predictors,
                                    seed=seed)
        met = []
        for alpha in grid.alphas:
            spec = MarSpec(layout.missing_cols, layout.predictor_sets, alpha,
                           grid.missing_rate, seed)
            scores = _column_scores(data, spec)
            for k in range(scores.shape[1]):
                p = np.full(scores.shape[0], np.nan)
                beta = calibrate_intercept(scores[:, k], grid.missing_rate, out=p)
                assert np.array_equal(p, sigmoid(scores[:, k] + beta))
                met.append(abs(np.mean(1.0 - p) - grid.missing_rate)
                           <= CALIBRATION_TOL)
            if max_iter is None:
                _, mech = apply_mar_mask(data, spec)
                expected = sigmoid(scores + np.array(mech.intercepts))
                assert np.array_equal(mech.probabilities,
                                      np.clip(expected, masking.PROB_FLOOR,
                                              1.0 - masking.PROB_FLOOR))
        # uncapped, every column meets the tolerance; capped, some run out
        assert all(met) == (max_iter is None)


class TestColumnScores:
    """Standardizing only the predictors gives the full-table form's bits."""

    @pytest.mark.parametrize("seed", range(10))
    def test_grid_layouts(self, seed):
        grid = ExperimentGrid()
        data = make_benchmark_dataset()
        layout = select_random_spec(data, grid.n_missing_cols, grid.n_predictors,
                                    seed=seed)
        for alpha in grid.alphas:
            spec = MarSpec(layout.missing_cols, layout.predictor_sets, alpha,
                           grid.missing_rate, 0)
            assert np.array_equal(_column_scores(data, spec),
                                  full_table_scores(data.values, spec))

    def test_constant_predictor_columns(self):
        values = gaussian_matrix(300, 6, seed=8).values
        values[:, 2] = 4.5
        values[:, 4] = 0.0
        data = DataMatrix(values, tuple(f"c{j}" for j in range(6)))
        spec = MarSpec((0, 1), ((2, 3, 4), (4,)), 2.0, 0.3, 0)
        scores = _column_scores(data, spec)
        assert np.array_equal(scores, full_table_scores(values, spec))
        assert np.array_equal(scores[:, 1], np.zeros(300))

    def test_empty_predictor_sets_at_alpha_zero(self):
        data = gaussian_matrix(50, 4, seed=9)
        for predictor_sets in (((), ()), ((2,), ()), ((), (3, 2))):
            spec = MarSpec((0, 1), predictor_sets, 0.0, 0.3, 0)
            scores = _column_scores(data, spec)
            assert np.array_equal(scores, full_table_scores(data.values, spec))
            assert not scores.any()


class TestApplyMarMask:
    def test_mcar_rate(self):
        data = gaussian_matrix(10_000, 5, seed=1)
        spec = MarSpec((0,), ((1, 2),), alpha=0.0, target_missing_rate=0.3, seed=5)
        ds, mech = apply_mar_mask(data, spec)
        rate = float((~ds.mask.observed[:, 0]).mean())
        assert abs(rate - 0.3) < 0.015
        np.testing.assert_allclose(mech.probabilities, 0.7, atol=1e-6)

    def test_alpha3_rate_and_monotonicity(self):
        data = gaussian_matrix(10_000, 5, seed=2)
        spec = MarSpec((0,), ((1, 2),), alpha=3.0, target_missing_rate=0.3, seed=6)
        ds, mech = apply_mar_mask(data, spec)
        rate = float((~ds.mask.observed[:, 0]).mean())
        assert abs(rate - 0.3) < 0.015
        # missingness probability decreases in the predictor sum for alpha > 0
        scaled = standardize(data.values)
        order = np.argsort(scaled[:, [1, 2]].sum(axis=1))
        p_missing = 1.0 - mech.probabilities[order, 0]
        assert np.all(np.diff(p_missing) <= 1e-12)
        miss = ~ds.mask.observed[:, 0]
        low, high = miss[order[:2000]].mean(), miss[order[-2000:]].mean()
        assert low > high  # empirically concentrated at low predictor sums

    def test_determinism(self):
        data = gaussian_matrix(500, 4, seed=3)
        spec = MarSpec((1,), ((0,),), alpha=1.0, target_missing_rate=0.25, seed=11)
        a, _ = apply_mar_mask(data, spec)
        b, _ = apply_mar_mask(data, spec)
        np.testing.assert_array_equal(a.mask.observed, b.mask.observed)

    def test_mcar_with_empty_predictors_allowed(self):
        data = gaussian_matrix(2000, 3, seed=4)
        spec = MarSpec((2,), ((),), alpha=0.0, target_missing_rate=0.4, seed=12)
        ds, _ = apply_mar_mask(data, spec)
        assert abs(float((~ds.mask.observed[:, 2]).mean()) - 0.4) < 0.04

    def test_constant_predictor_adds_nothing_to_the_score(self):
        # a constant column standardizes to zeros, not NaN, so the mechanism
        # is exactly that of the remaining predictor
        values = gaussian_matrix(2000, 3, seed=7).values
        values[:, 1] = 4.5
        data = DataMatrix(values, ("a", "b", "c"))
        with_constant = MarSpec((0,), ((1, 2),), alpha=3.0,
                                target_missing_rate=0.3, seed=14)
        without = MarSpec((0,), ((2,),), alpha=3.0, target_missing_rate=0.3, seed=14)
        ds_a, mech_a = apply_mar_mask(data, with_constant)
        ds_b, mech_b = apply_mar_mask(data, without)
        assert np.array_equal(mech_a.probabilities, mech_b.probabilities)
        assert np.array_equal(ds_a.mask.observed, ds_b.mask.observed)

    def test_empty_predictors_with_shift_rejected(self):
        data = gaussian_matrix(100, 3, seed=4)
        spec = MarSpec((2,), ((),), alpha=1.0, target_missing_rate=0.4, seed=12)
        with pytest.raises(ValueError, match="no predictors"):
            apply_mar_mask(data, spec)

    def test_probabilities_stay_inside_open_interval(self):
        data = gaussian_matrix(5000, 6, seed=5)
        spec = MarSpec((0, 1), ((2, 3, 4, 5), (2, 3)), alpha=3.0,
                       target_missing_rate=0.3, seed=13)
        _, mech = apply_mar_mask(data, spec)
        assert (mech.probabilities > 1e-12 - 1e-18).all()
        assert (mech.probabilities < 1 - 1e-12 + 1e-18).all()

    def test_degenerate_mask_resampled_or_rejected(self):
        data = gaussian_matrix(2, 3, seed=6)
        resampled = rejected = False
        for seed in range(300):
            spec = MarSpec((0,), ((1,),), alpha=0.0,
                           target_missing_rate=0.9, seed=seed)
            first = np.random.default_rng(seed).random(2) < 0.9
            try:
                ds, _ = apply_mar_mask(data, spec)
            except ValueError as exc:
                assert "degenerate mask for columns [0]" in str(exc)
                rejected = True
                continue
            col = ds.mask.observed[:, 0]
            assert col.any() and not col.all()
            if first.all():  # first draw was fully missing yet we recovered
                resampled = True
        assert resampled and rejected


class TestCalibrationMonteCarlo:
    def test_rate_within_001_across_alphas(self):
        # mean realized rate over 35 seeds per alpha, n >= 1000
        data = gaussian_matrix(2000, 6, seed=9)
        for alpha in range(-3, 4):
            rates = []
            for seed in range(35):
                spec = MarSpec((0, 1), ((2, 3), (4,)), alpha=float(alpha),
                               target_missing_rate=0.3, seed=seed)
                ds, _ = apply_mar_mask(data, spec)
                rates.append(float((~ds.mask.observed[:, [0, 1]]).mean()))
            assert abs(np.mean(rates) - 0.3) <= 0.01, f"alpha={alpha}"

    def test_mcar_uncorrelated_with_predictors(self):
        n = 4000
        data = gaussian_matrix(n, 5, seed=10)
        spec = MarSpec((0,), ((1, 2, 3),), alpha=0.0,
                       target_missing_rate=0.3, seed=21)
        ds, _ = apply_mar_mask(data, spec)
        miss = (~ds.mask.observed[:, 0]).astype(float)
        for j in (1, 2, 3):
            corr = np.corrcoef(miss, data.values[:, j])[0, 1]
            assert abs(corr) <= 3.0 / math.sqrt(n)


class TestSelectRandomSpec:
    def test_valid_disjoint_spec_on_ten_columns(self):
        data = gaussian_matrix(50, 10, seed=11)
        spec = select_random_spec(data, 4, 4, seed=123)
        assert len(spec.missing_cols) == 4
        missing = set(spec.missing_cols)
        for cols in spec.predictor_sets:
            assert len(cols) == 4
            assert missing.isdisjoint(cols)

    def test_too_small_dimension_rejected(self):
        data = gaussian_matrix(10, 3, seed=12)
        with pytest.raises(ValueError):
            select_random_spec(data, 4, 2, seed=0)

    def test_seeds_give_distinct_specs(self):
        data = gaussian_matrix(10, 10, seed=13)
        specs = {
            (select_random_spec(data, 4, 4, seed=s).missing_cols,
             select_random_spec(data, 4, 4, seed=s).predictor_sets)
            for s in range(100)
        }
        assert len(specs) >= 95

    def test_reproducible(self):
        data = gaussian_matrix(10, 10, seed=14)
        a = select_random_spec(data, 3, 2, seed=77)
        b = select_random_spec(data, 3, 2, seed=77)
        assert a == b


class TestMarSpecInvariants:
    def test_predictors_cannot_overlap_missing(self):
        with pytest.raises(ValueError, match="intersect"):
            MarSpec((0, 1), ((1,), (2,)), 1.0, 0.3, 0)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            MarSpec((0,), ((1,),), 1.0, 1.0, 0)

    def test_json_round_trip(self):
        spec = MarSpec((0, 2), ((1,), (3, 4)), -2.0, 0.25, 9)
        assert MarSpec.from_dict(spec.to_dict()) == spec

    def test_json_predictor_sets_must_hold_integers(self):
        d = MarSpec((0, 2), ((1,), (3, 4)), -2.0, 0.25, 9).to_dict()
        d["predictor_sets"] = [[1], [3, 4.5]]
        with pytest.raises(TypeError) as info:
            MarSpec.from_dict(d)
        assert str(info.value) == \
            "MarSpec.predictor_sets[1][1] must be a JSON integer, got 4.5"

    def test_python_columns_must_be_integers(self):
        # a float column was truncated before (1.9 -> 1); numpy integers pass
        with pytest.raises(TypeError):
            MarSpec((1.9,), ((0.2,),), 1.0, 0.3, 0)
        with pytest.raises(TypeError):
            MarSpec((1,), ((0.2,),), 1.0, 0.3, 0)
        spec = MarSpec((np.int64(1),), ((np.int32(0),),), 1.0, 0.3, 0)
        assert spec == MarSpec((1,), ((0,),), 1.0, 0.3, 0)
        assert type(spec.missing_cols[0]) is int
