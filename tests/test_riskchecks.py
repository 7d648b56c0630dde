import numpy as np
import pytest

from oracles import oracle_imputer
from shiftimpute.masking import MarSpec
from shiftimpute.riskchecks import (
    SyntheticSpec,
    check_linear_fit_ignores_indicators,
    check_risk_decomposition,
    check_weighting_identity,
    constant_imputer,
    decomposition_spec,
    draw_synthetic,
    indicator_regression,
    observed_mean_imputer,
    indicator_spec,
    run_all_checks,
    weighting_spec,
)


class TestSynthetic:
    def test_draw_shapes_and_determinism(self):
        spec = weighting_spec(n=100_000, seed=1)
        data_a, ds_a, mech_a = draw_synthetic(spec)
        data_b, _, _ = draw_synthetic(spec)
        assert data_a.values.shape == (100_000, 2)
        np.testing.assert_array_equal(data_a.values, data_b.values)
        assert mech_a.probabilities.shape == (100_000, 1)

    def test_offset_gives_independent_draw(self):
        spec = weighting_spec(n=100_000, seed=2)
        data_a, _, _ = draw_synthetic(spec, offset=0)
        data_b, _, _ = draw_synthetic(spec, offset=1)
        assert not np.array_equal(data_a.values, data_b.values)

    def test_coefficient_shape_validated(self):
        mech = MarSpec((1,), ((0,),), 1.0, 0.3, 0)
        with pytest.raises(ValueError, match="coefficients"):
            SyntheticSpec(1000, 2, np.ones((2, 2)), 0.5, mech, 0)


class TestRiskDecomposition:
    def test_single_coordinate(self):
        mech = MarSpec((1,), ((0,),), alpha=1.0, target_missing_rate=0.3, seed=3)
        spec = SyntheticSpec(150_000, 2, np.array([[1.0]]), 0.5, mech, 3)
        lhs, rhs = check_risk_decomposition(spec, constant_imputer(0.0))
        assert abs(lhs - rhs) / lhs < 0.02

    def test_two_coordinates_mean_imputer(self):
        lhs, rhs = check_risk_decomposition(decomposition_spec(),
                                            constant_imputer(0.0))
        assert abs(lhs - rhs) / lhs < 0.02

    def test_oracle_imputer_zeroes_both_sides(self):
        lhs, rhs = check_risk_decomposition(decomposition_spec(),
                                            oracle_imputer())
        assert lhs == 0.0 and rhs == 0.0

    def test_small_sample_rejected(self):
        spec = weighting_spec(n=1000)
        with pytest.raises(ValueError, match="1e5"):
            check_risk_decomposition(spec, constant_imputer(0.0))


class TestWeightingIdentity:
    def test_mcar_weights_are_exactly_one(self):
        spec = weighting_spec(alpha=0.0, n=150_000, seed=4)
        _, ds, mech = draw_synthetic(spec)
        np.testing.assert_allclose(mech.probabilities, mech.probabilities[0, 0])
        missing_risk, weighted = check_weighting_identity(
            spec, observed_mean_imputer()
        )
        assert abs(missing_risk - weighted) / missing_risk < 0.03

    def test_alpha2_identity_holds_with_oracle_weights(self):
        missing_risk, weighted = check_weighting_identity(
            weighting_spec(), observed_mean_imputer()
        )
        assert abs(missing_risk - weighted) / missing_risk < 0.03

    def test_alpha2_ablation_shows_the_bias(self):
        missing_risk, unweighted = check_weighting_identity(
            weighting_spec(), observed_mean_imputer(), use_oracle_weights=False
        )
        assert abs(missing_risk - unweighted) / missing_risk > 0.10

    def test_degenerate_overlap_rejected(self):
        spec = weighting_spec(alpha=6.0)
        with pytest.raises(ValueError, match="overlap"):
            check_weighting_identity(spec, observed_mean_imputer())


class TestIndicatorRegression:
    def test_mar_indicator_coefficients_vanish(self):
        assert check_linear_fit_ignores_indicators(indicator_spec()) < 0.02

    def test_mcar_indicator_coefficients_vanish(self):
        assert check_linear_fit_ignores_indicators(indicator_spec(alpha=0.0)) < 0.02

    def test_mnar_control_runs_without_mar_guarantee(self):
        # missingness driven by the target column itself: out of assumption,
        # the regression still runs but no bound is claimed (or expected)
        rng = np.random.default_rng(5)
        n = 60_000
        x = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(n, 2))
        y = 1.2 * x[:, 0] + 0.5 * rng.standard_normal(n)
        from shiftimpute.masking import sigmoid
        miss_y = rng.random(n) < (1.0 - sigmoid(2.0 * y))
        other_ind = (rng.random(n) < sigmoid(1.5 * y)).astype(float)
        rows = miss_y
        coefs = indicator_regression(y[rows], x[rows], other_ind[rows])
        assert np.all(np.isfinite(coefs))

    def test_collinear_indicators_rejected(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(500, 2))
        y = rng.normal(size=500)
        with pytest.raises(ValueError, match="constant"):
            indicator_regression(y, x, np.ones(500))
        dup = rng.integers(0, 2, 500).astype(float)
        with pytest.raises(ValueError, match="collinear"):
            indicator_regression(y, x, np.column_stack([dup, dup]))

    def test_single_planted_column_rejected(self):
        with pytest.raises(ValueError, match="two planted"):
            check_linear_fit_ignores_indicators(weighting_spec(n=60_000))


class TestSuite:
    def test_run_all_checks_passes(self):
        results = run_all_checks()
        assert len(results) == 4
        for entry in results:
            assert entry["passed"], entry
