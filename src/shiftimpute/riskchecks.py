"""Monte-Carlo verification of the risk identities the weighting relies on.

These checks live outside the imputation path. Each one builds a synthetic
dataset whose generating mechanism is fully known (bounded uniform predictors,
Gaussian-noise linear targets, logistic missingness), so the exact mechanism
weights and the exact conditional means are available, and estimates both
sides of an identity:

- risk decomposition: the total masked-cell risk equals the sum over columns
  of p(missing) times the per-column conditional risk (two independent draws,
  one per side, so the comparison is not a tautology);
- weighting identity: the missing-side risk of a column equals the
  mechanism-weighted observed-side risk (and visibly does not without the
  weights);
- indicator irrelevance: a linear fit on the missing side puts (near-)zero
  coefficients on the other columns' missingness indicators under MAR.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import DataMatrix, MaskedDataset
from .masking import CalibratedMechanism, MarSpec, apply_mar_mask
from .regressors import fit_weighted_ridge

__all__ = [
    "SyntheticSpec",
    "draw_synthetic",
    "constant_imputer",
    "observed_mean_imputer",
    "check_risk_decomposition",
    "check_weighting_identity",
    "check_linear_fit_ignores_indicators",
    "indicator_regression",
    "run_all_checks",
]

HALF_WIDTH = np.sqrt(3.0)  # uniform(-HALF_WIDTH, HALF_WIDTH) has variance 1
OVERLAP_LO = 0.01
OVERLAP_HI = 0.99


@dataclass(frozen=True)
class SyntheticSpec:
    """A fully known generating process: features, targets, and missingness.

    Columns not named in ``mechanism.missing_cols`` are iid uniform with unit
    variance (bounded support keeps every true propensity inside the overlap
    band). Each missing column k is ``coefficients[k] @ observed_columns``
    plus centered Gaussian noise of scale ``noise_scale``, so the optimal
    imputation map is linear and known.
    """

    n: int
    d: int
    coefficients: np.ndarray  # (n_missing_cols, n_observed_cols)
    noise_scale: float
    mechanism: MarSpec
    seed: int

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "coefficients", coeffs)
        n_missing = len(self.mechanism.missing_cols)
        n_observed = self.d - n_missing
        if coeffs.shape != (n_missing, n_observed):
            raise ValueError(
                f"coefficients must be ({n_missing}, {n_observed}), got {coeffs.shape}"
            )
        if self.noise_scale <= 0:
            raise ValueError("noise_scale must be positive")

    @property
    def observed_cols(self) -> tuple[int, ...]:
        missing = set(self.mechanism.missing_cols)
        return tuple(j for j in range(self.d) if j not in missing)


def draw_synthetic(spec: SyntheticSpec, offset: int = 0):
    """One seeded draw; returns (truth, masked dataset, calibrated mechanism).

    ``offset`` selects independent replicates of the same process. Feature and
    mask randomness come from disjoint spawned streams: reusing one stream for
    both would correlate the mask with the data and silently break MCAR.
    """
    feature_seed, mask_seed = np.random.SeedSequence([spec.seed, offset]).spawn(2)
    rng = np.random.default_rng(feature_seed)
    obs_cols = list(spec.observed_cols)
    values = np.empty((spec.n, spec.d))
    base = rng.uniform(-HALF_WIDTH, HALF_WIDTH, size=(spec.n, len(obs_cols)))
    values[:, obs_cols] = base
    for k, col in enumerate(spec.mechanism.missing_cols):
        values[:, col] = base @ spec.coefficients[k] \
            + spec.noise_scale * rng.standard_normal(spec.n)
    data = DataMatrix(values, tuple(f"col{j}" for j in range(spec.d)))
    mech_spec = replace(spec.mechanism,
                        seed=int(mask_seed.generate_state(1)[0]))
    masked, mechanism = apply_mar_mask(data, mech_spec)
    return data, masked, mechanism


# An imputation map g takes (column, true values matrix, observedness mask)
# and returns one prediction per row; it must not read column i's values
# unless it is explicitly an oracle.

def constant_imputer(value: float):
    def g(i, values, observed):
        return np.full(values.shape[0], float(value))
    return g


def observed_mean_imputer():
    def g(i, values, observed):
        col_obs = observed[:, i]
        return np.full(values.shape[0], values[col_obs, i].mean())
    return g


def _masked_squared_errors(g, ds: MaskedDataset, i: int) -> np.ndarray:
    preds = g(i, ds.data.values, ds.mask.observed)
    return (preds - ds.data.values[:, i]) ** 2


def check_risk_decomposition(spec: SyntheticSpec, g):
    """Estimate both sides of the coordinatewise risk decomposition.

    The left side (total risk over all masked coordinates jointly) comes from
    one draw; the right side (sum over columns of p(missing) times the
    missing-side conditional risk) from an independent draw. Returns
    (lhs, rhs); the two agree to Monte-Carlo accuracy when the decomposition
    holds.
    """
    if spec.n < 10**5:
        raise ValueError("decomposition check needs n >= 1e5")
    _, ds_a, _ = draw_synthetic(spec, offset=0)
    _, ds_b, _ = draw_synthetic(spec, offset=1)

    lhs = 0.0
    for i in spec.mechanism.missing_cols:
        sq = _masked_squared_errors(g, ds_a, i)
        lhs += float(sq[~ds_a.mask.observed[:, i]].sum()) / spec.n

    rhs = 0.0
    for i in spec.mechanism.missing_cols:
        miss = ~ds_b.mask.observed[:, i]
        p_missing = miss.mean()
        sq = _masked_squared_errors(g, ds_b, i)
        rhs += float(p_missing) * float(sq[miss].mean())
    return lhs, rhs


def _oracle_weights(mechanism: CalibratedMechanism, k: int) -> np.ndarray:
    # density-ratio weights from the known mechanism: odds times prior odds
    p_observed = float(mechanism.probabilities[:, k].mean())
    return mechanism.true_weight_ratios(k) * (p_observed / (1.0 - p_observed))


def check_weighting_identity(spec: SyntheticSpec, g, use_oracle_weights: bool = True):
    """Missing-side risk vs (oracle-)weighted observed-side risk, first column.

    With the mechanism weights the two sides agree to Monte-Carlo accuracy;
    with ``use_oracle_weights=False`` the observed-side average is biased
    whenever the mechanism actually shifts the covariates. Rejects any spec
    whose true propensities leave (0.01, 0.99).
    """
    if spec.n < 10**5:
        raise ValueError("weighting-identity check needs n >= 1e5")
    _, ds, mechanism = draw_synthetic(spec, offset=0)
    probs = mechanism.probabilities
    if (probs <= OVERLAP_LO).any() or (probs >= OVERLAP_HI).any():
        raise ValueError(
            "degenerate overlap: a true propensity leaves "
            f"({OVERLAP_LO}, {OVERLAP_HI}); pick a tamer mechanism"
        )
    i = spec.mechanism.missing_cols[0]
    sq = _masked_squared_errors(g, ds, i)
    obs = ds.mask.observed[:, i]
    unobserved_risk = float(sq[~obs].mean())
    w = _oracle_weights(mechanism, 0)[obs] if use_oracle_weights else 1.0
    weighted_observed_risk = float((w * sq[obs]).mean())
    return unobserved_risk, weighted_observed_risk


def indicator_regression(y: np.ndarray, x_obs: np.ndarray,
                         indicators: np.ndarray):
    """Linear fit of y on [x_obs, indicators] with a 1e-6 ridge; returns the
    indicator coefficients.

    Raises on (near-)collinear indicators: each must vary and the centered
    indicator block must have full column rank.
    """
    indicators = np.asarray(indicators, dtype=float)
    if indicators.ndim == 1:
        indicators = indicators[:, None]
    centered = indicators - indicators.mean(axis=0)
    if (centered.std(axis=0) == 0).any():
        raise ValueError("an indicator is constant on the fitted rows")
    if np.linalg.matrix_rank(centered) < indicators.shape[1]:
        raise ValueError("indicators are collinear on the fitted rows")
    design = np.hstack([x_obs, indicators])
    model = fit_weighted_ridge(design, y, np.ones(len(y)), 1e-6)
    return model.coefficients[x_obs.shape[1]:]


def check_linear_fit_ignores_indicators(spec: SyntheticSpec) -> float:
    """Max |coefficient| on the other columns' missingness indicators.

    Fits the augmented linear model (fully observed columns plus the
    indicators of the other planted columns) on the rows where the first
    planted column is missing, against its true values. Under MAR the
    indicator coefficients vanish in population.
    """
    if spec.n < 5 * 10**4:
        raise ValueError("indicator check needs n >= 5e4")
    if len(spec.mechanism.missing_cols) < 2:
        raise ValueError("need at least two planted columns to form indicators")
    _, ds, _ = draw_synthetic(spec, offset=0)
    i = spec.mechanism.missing_cols[0]
    others = [c for c in spec.mechanism.missing_cols if c != i]
    rows = ~ds.mask.observed[:, i]
    y = ds.data.values[rows, i]
    x_obs = ds.data.values[np.ix_(rows, list(spec.observed_cols))]
    indicators = ds.mask.observed[np.ix_(rows, others)].astype(float)
    coefs = indicator_regression(y, x_obs, indicators)
    return float(np.max(np.abs(coefs)))


# ---------------------------------------------------------------------------
# Canonical specs and the runnable suite (verify CLI, acceptance)
# ---------------------------------------------------------------------------

def decomposition_spec(n: int = 200_000, seed: int = 11) -> SyntheticSpec:
    mechanism = MarSpec((1, 2), ((0,), (0,)), alpha=1.0,
                        target_missing_rate=0.3, seed=seed)
    return SyntheticSpec(n, 3, np.array([[1.2], [0.8]]), 0.5, mechanism, seed)


def weighting_spec(alpha: float = 2.0, n: int = 200_000, seed: int = 23) -> SyntheticSpec:
    # rate 0.5 centers the calibrated intercept near zero, keeping every true
    # propensity inside the (0.01, 0.99) overlap band even at alpha = 2
    mechanism = MarSpec((1,), ((0,),), alpha=alpha,
                        target_missing_rate=0.5, seed=seed)
    return SyntheticSpec(n, 2, np.array([[1.5]]), 0.6, mechanism, seed)


def indicator_spec(alpha: float = 3.0, n: int = 50_000, seed: int = 37) -> SyntheticSpec:
    mechanism = MarSpec((3, 4), ((0,), (1,)), alpha=alpha,
                        target_missing_rate=0.3, seed=seed)
    coeffs = np.array([[1.0, 0.5, 0.0], [0.0, 0.7, -0.4]])
    return SyntheticSpec(n, 5, coeffs, 0.5, mechanism, seed)


def run_all_checks() -> list[dict]:
    """Run the canonical identity suite; one pass/fail entry per check."""
    results = []

    lhs, rhs = check_risk_decomposition(decomposition_spec(), constant_imputer(0.0))
    gap = abs(lhs - rhs) / lhs
    results.append({
        "check": "risk_decomposition",
        "lhs": lhs, "rhs": rhs, "relative_gap": gap,
        "tolerance": 0.02, "passed": bool(gap < 0.02),
    })

    spec = weighting_spec()
    g = observed_mean_imputer()
    missing_risk, weighted = check_weighting_identity(spec, g)
    gap = abs(missing_risk - weighted) / missing_risk
    results.append({
        "check": "weighting_identity",
        "unobserved_risk": missing_risk, "weighted_observed_risk": weighted,
        "relative_gap": gap, "tolerance": 0.03, "passed": bool(gap < 0.03),
    })

    missing_risk, unweighted = check_weighting_identity(spec, g, use_oracle_weights=False)
    gap = abs(missing_risk - unweighted) / missing_risk
    results.append({
        "check": "weighting_identity_ablated",
        "unobserved_risk": missing_risk, "unweighted_observed_risk": unweighted,
        "relative_gap": gap, "minimum_gap": 0.10, "passed": bool(gap > 0.10),
    })

    max_coef = check_linear_fit_ignores_indicators(indicator_spec())
    results.append({
        "check": "indicators_ignored",
        "max_indicator_coefficient": max_coef,
        "tolerance": 0.02, "passed": bool(max_coef < 0.02),
    })
    return results
