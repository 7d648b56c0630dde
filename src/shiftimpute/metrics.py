"""Imputation quality metrics and the paired signed-rank comparison.

RMSE is computed over deliberately hidden cells only, on the original data
scale. Distributional accuracy is the sum over columns of the 1-D Wasserstein
distance between the true and imputed column samples (full columns, observed
entries included on both sides). Paired method comparisons use a two-sided
Wilcoxon signed-rank test with tie-corrected normal approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, JsonRecord, MaskMatrix

__all__ = [
    "MetricsReport",
    "WilcoxonResult",
    "rmse_masked",
    "wasserstein_1d",
    "wasserstein_marginal_sum",
    "wilcoxon_signed_rank",
    "evaluate_imputation",
]


@dataclass(frozen=True)
class MetricsReport(JsonRecord):
    rmse: float
    wasserstein: float
    per_column_wasserstein: tuple[float, ...]
    masked_cell_count: int


@dataclass(frozen=True)
class WilcoxonResult(JsonRecord):
    statistic: float
    z_score: float
    p_value: float
    n_pairs: int
    n_zero_diffs: int


def rmse_masked(truth: DataMatrix | np.ndarray, imputed: np.ndarray,
                mask: MaskMatrix) -> float:
    """Root mean squared error over the masked cells only."""
    truth_values = truth.values if isinstance(truth, DataMatrix) else np.asarray(truth, float)
    imputed = np.asarray(imputed, dtype=float)
    hidden = ~mask.observed
    count = int(hidden.sum())
    if count == 0:
        raise ValueError("no masked cells to score")
    diff = truth_values[hidden] - imputed[hidden]
    return float(np.sqrt((diff * diff).mean()))


def wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """Exact 1-Wasserstein distance between two equal-size empirical samples.

    For equal sample sizes this is the mean absolute difference of the sorted
    samples (the optimal coupling pairs order statistics).
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")
    if a.size != b.size:
        raise ValueError(f"sample sizes differ: {a.size} vs {b.size}")
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def wasserstein_marginal_sum(truth: DataMatrix | np.ndarray, imputed: np.ndarray):
    """Per-column W1 over full columns and their sum; returns (sum, vector)."""
    truth_values = truth.values if isinstance(truth, DataMatrix) else np.asarray(truth, float)
    imputed = np.asarray(imputed, dtype=float)
    if truth_values.shape != imputed.shape:
        raise ValueError("shape mismatch between truth and imputed")
    per_column = tuple(
        wasserstein_1d(truth_values[:, j], imputed[:, j])
        for j in range(truth_values.shape[1])
    )
    return float(sum(per_column)), per_column


def _average_ranks(values: np.ndarray):
    """1-based ranks, tied values sharing their mean rank, and the size of
    each tie group in ascending value order."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a group of c values ending at rank e holds ranks e-c+1..e, mean e-(c-1)/2
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group], counts


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def wilcoxon_signed_rank(x: np.ndarray, y: np.ndarray) -> WilcoxonResult:
    """Two-sided paired Wilcoxon signed-rank test.

    Zero differences are dropped (at least 10 nonzero pairs required), tied
    absolute differences get average ranks, and the p-value uses the normal
    approximation with tie-corrected variance and continuity correction. The
    statistic is min(W+, W-).
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("paired vectors must have equal length")
    diffs = x - y
    nonzero = diffs != 0.0
    n_zero = int((~nonzero).sum())
    diffs = diffs[nonzero]
    n = diffs.size
    if n == 0:
        raise ValueError("no nonzero pairs")
    if n < 10:
        raise ValueError(f"need at least 10 nonzero pairs, got {n}")
    ranks, tie_counts = _average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    statistic = min(w_plus, w_minus)
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction on the variance
    variance -= float(((tie_counts ** 3 - tie_counts) / 48.0).sum())
    numerator = statistic - mean
    if numerator != 0.0:
        numerator -= 0.5 * math.copysign(1.0, numerator)  # continuity correction
    z = numerator / math.sqrt(variance)
    p = min(1.0, 2.0 * min(_normal_cdf(z), 1.0 - _normal_cdf(z)))
    return WilcoxonResult(statistic, z, p, n, n_zero)


def evaluate_imputation(truth: DataMatrix, imputed: np.ndarray,
                        mask: MaskMatrix) -> MetricsReport:
    """Bundle masked-cell RMSE and the marginal Wasserstein sum."""
    total, per_column = wasserstein_marginal_sum(truth, imputed)
    return MetricsReport(
        rmse=rmse_masked(truth, imputed, mask),
        wasserstein=total,
        per_column_wasserstein=per_column,
        masked_cell_count=int((~mask.observed).sum()),
    )
