import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from shiftimpute.data import DataMatrix, MaskMatrix
from shiftimpute.metrics import (
    _average_ranks,
    evaluate_imputation,
    rmse_masked,
    wasserstein_1d,
    wasserstein_marginal_sum,
    wilcoxon_signed_rank,
)

# hand arithmetic oracle: sqrt((3^2 + 4^2)/2)
RMSE_3_4 = 3.5355339059327378


def exact_wilcoxon_p(x, y):
    """Enumeration oracle: exact two-sided p over all 2^n sign assignments."""
    diffs = np.asarray(x, float) - np.asarray(y, float)
    diffs = diffs[diffs != 0]
    n = diffs.size
    order = np.argsort(np.abs(diffs), kind="stable")
    ranks = np.empty(n)
    sorted_abs = np.abs(diffs)[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    w_plus = float(ranks[diffs > 0].sum())
    signs = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    dist = signs @ ranks
    p_low = float((dist <= w_plus + 1e-9).mean())
    p_high = float((dist >= w_plus - 1e-9).mean())
    return min(1.0, 2.0 * min(p_low, p_high))


class TestRmseMasked:
    def _mask(self, observed):
        return MaskMatrix(np.asarray(observed, bool))

    def test_perfect_imputation(self):
        truth = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = self._mask([[True, False], [True, True]])
        assert rmse_masked(truth, truth.copy(), mask) == 0.0

    def test_single_cell_unit_error(self):
        truth = np.array([[1.0, 2.0], [3.0, 4.0]])
        imputed = truth.copy()
        imputed[0, 1] += 1.0
        mask = self._mask([[True, False], [True, True]])
        assert rmse_masked(truth, imputed, mask) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        truth = np.zeros((2, 2))
        imputed = np.array([[0.0, 3.0], [4.0, 0.0]])
        mask = self._mask([[True, False], [False, True]])
        assert rmse_masked(truth, imputed, mask) == pytest.approx(RMSE_3_4, abs=1e-12)

    def test_empty_mask_rejected(self):
        truth = np.zeros((2, 2))
        with pytest.raises(ValueError, match="no masked cells"):
            rmse_masked(truth, truth, self._mask(np.ones((2, 2))))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        truth = rng.normal(size=(20, 3))
        imputed = truth + rng.normal(size=(20, 3))
        observed = rng.random((20, 3)) < 0.5
        observed[:, 0] = True
        observed[0] = True
        mask = self._mask(observed)
        perm = rng.permutation(20)
        assert rmse_masked(truth, imputed, mask) == pytest.approx(
            rmse_masked(truth[perm], imputed[perm],
                        self._mask(observed[perm])), abs=1e-13
        )


class TestWasserstein1d:
    def test_identical_samples(self):
        a = np.array([3.0, 1.0, 2.0])
        assert wasserstein_1d(a, a[::-1]) == 0.0

    def test_translation(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=50)
        assert wasserstein_1d(a, a + 2.5) == pytest.approx(2.5, abs=1e-12)

    def test_sorted_coupling_hand_oracle(self):
        assert wasserstein_1d(np.array([0.0, 1.0]),
                              np.array([0.0, 2.0])) == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sizes differ"):
            wasserstein_1d(np.ones(3), np.ones(4))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 10**6))
    def test_metric_axioms(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=(3, n)) * 5
        dab = wasserstein_1d(a, b)
        assert dab >= 0
        assert dab == pytest.approx(wasserstein_1d(b, a), abs=1e-12)
        assert wasserstein_1d(a, a) <= 1e-12
        assert dab <= wasserstein_1d(a, c) + wasserstein_1d(c, b) + 1e-12


class TestWassersteinMarginalSum:
    def test_identical(self):
        rng = np.random.default_rng(2)
        truth = rng.normal(size=(30, 4))
        total, per_col = wasserstein_marginal_sum(truth, truth.copy())
        assert total == 0.0
        assert per_col == (0.0, 0.0, 0.0, 0.0)

    def test_single_column_additivity(self):
        rng = np.random.default_rng(3)
        truth = rng.normal(size=(30, 4))
        imputed = truth.copy()
        imputed[:, 3] += rng.normal(size=30)
        total, per_col = wasserstein_marginal_sum(truth, imputed)
        assert total == pytest.approx(per_col[3])
        assert per_col[0] == per_col[1] == per_col[2] == 0.0

    def test_translation_additivity(self):
        rng = np.random.default_rng(4)
        truth = rng.normal(size=(30, 2))
        imputed = truth + 1.0
        total, _ = wasserstein_marginal_sum(truth, imputed)
        assert total == pytest.approx(2.0, abs=1e-12)

    def test_sum_matches_components(self):
        rng = np.random.default_rng(5)
        truth = rng.normal(size=(25, 3))
        imputed = truth + rng.normal(size=(25, 3))
        total, per_col = wasserstein_marginal_sum(truth, imputed)
        assert total == pytest.approx(sum(per_col), abs=1e-12)


class TestWilcoxon:
    def test_all_zero_diffs_rejected(self):
        x = np.arange(12.0)
        with pytest.raises(ValueError, match="no nonzero"):
            wilcoxon_signed_rank(x, x)

    def test_all_positive_diffs(self):
        x = np.arange(1.0, 16.0)
        y = np.zeros(15)
        result = wilcoxon_signed_rank(x, y)
        assert result.statistic == 0.0  # W- = 0
        assert result.p_value < 0.001
        assert exact_wilcoxon_p(x, y) < 0.001
        assert abs(result.p_value - exact_wilcoxon_p(x, y)) < 0.02

    def test_antisymmetric_diffs(self):
        mags = np.arange(1.0, 7.0)
        diffs = np.concatenate([mags, -mags])
        result = wilcoxon_signed_rank(diffs, np.zeros(12))
        assert result.p_value == pytest.approx(1.0, abs=0.02)

    def test_sign_flip_symmetry(self):
        rng = np.random.default_rng(6)
        d = rng.normal(size=20)
        a = wilcoxon_signed_rank(d, np.zeros(20))
        b = wilcoxon_signed_rank(-d, np.zeros(20))
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)
        assert a.statistic == pytest.approx(b.statistic)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            wilcoxon_signed_rank(np.arange(5.0), np.zeros(5))

    def test_zero_diffs_dropped_and_counted(self):
        x = np.concatenate([np.arange(1.0, 13.0), np.zeros(3)])
        y = np.zeros(15)
        result = wilcoxon_signed_rank(x, y)
        assert result.n_pairs == 12
        assert result.n_zero_diffs == 3

    def test_monotone_transform_invariance(self):
        # any affine map with positive slope preserves signs and |diff| ranks
        rng = np.random.default_rng(7)
        x = rng.normal(size=15)
        y = rng.normal(size=15)
        base = wilcoxon_signed_rank(x, y)
        for scale, shift in [(2.0, 0.0), (0.5, 3.0), (10.0, -1.0)]:
            mapped = wilcoxon_signed_rank(scale * x + shift, scale * y + shift)
            assert mapped.p_value == pytest.approx(base.p_value, abs=1e-12)

    @pytest.mark.parametrize("n", range(10, 16))
    def test_normal_approximation_tracks_exact_enumeration(self, n):
        # continuous differences, the domain the test actually sees
        rng = np.random.default_rng(n)
        for _ in range(40):
            diffs = rng.normal(size=n) + 0.5 * rng.normal()
            diffs[diffs == 0] = 1.0
            x, y = diffs, np.zeros(n)
            approx = wilcoxon_signed_rank(x, y).p_value
            exact = exact_wilcoxon_p(x, y)
            assert abs(approx - exact) < 0.02

    @pytest.mark.parametrize("n", range(10, 16))
    def test_tie_correction_keeps_approximation_usable(self, n):
        # integer magnitudes force heavy ties; the normal approximation is
        # coarser there, so only a looser envelope is asserted
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            diffs = rng.integers(-6, 7, size=n).astype(float)
            diffs[diffs == 0] = 1.0
            approx = wilcoxon_signed_rank(diffs, np.zeros(n)).p_value
            exact = exact_wilcoxon_p(diffs, np.zeros(n))
            assert abs(approx - exact) < 0.08


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=60),
       st.sampled_from([1.0, 0.1, 0.37]))
def test_average_ranks_equal_rankdata_with_tie_groups(values, scale):
    # tie-heavy magnitudes; average ranks are half-integers, so exact
    v = np.array(values) * scale
    ranks, counts = _average_ranks(v)
    assert np.array_equal(ranks, rankdata(v, method="average"))
    assert np.array_equal(counts, np.unique(ranks, return_counts=True)[1])


class TestEvaluate:
    def test_bundle_consistency(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(40, 3))
        truth = DataMatrix(values, ("a", "b", "c"))
        observed = rng.random((40, 3)) < 0.6
        observed[:, 2] = True
        observed[0] = True
        mask = MaskMatrix(observed)
        imputed = values.copy()
        imputed[~observed] += 1.0
        report = evaluate_imputation(truth, imputed, mask)
        assert report.rmse == pytest.approx(1.0)
        assert report.wasserstein == pytest.approx(sum(report.per_column_wasserstein), abs=1e-12)
        assert report.masked_cell_count == int((~observed).sum())
