"""Importance weights from a per-column observedness classifier.

For a target column, an L2-penalized logistic regression is fit on the
completed values of all other columns to estimate the probability that the
column is observed. The odds (1 - eta)/eta of the fitted propensity, clipped
and normalized to mean one, reweight the observed rows so that a conditional
model fit on them targets the missing-row distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .masking import sigmoid

__all__ = [
    "PropensityModel",
    "WeightVector",
    "fit_propensity",
    "weights_from_propensity",
    "weights_for_column",
    "effective_sample_size",
    "weight_diagnostics",
]

DEFAULT_L2 = 1e-4
DEFAULT_CLIP = 1e-3
GRADIENT_TOL = 1e-8
MAX_ITER = 100


@dataclass(frozen=True)
class PropensityModel:
    """Fitted logistic observedness model for one column."""

    coefficients: np.ndarray
    intercept: float
    converged: bool
    n_iter: int

    def __post_init__(self):
        if not (np.all(np.isfinite(self.coefficients))
                and np.isfinite(self.intercept)):
            raise ValueError("propensity fit produced non-finite parameters")

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return sigmoid(x @ self.coefficients + self.intercept)


@dataclass(frozen=True)
class WeightVector:
    """Mean-1 nonnegative importance weights over the observed rows of one
    column, and the fitted classifier ``propensity`` they came from."""

    weights: np.ndarray
    propensity: PropensityModel | None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not np.all(np.isfinite(w)) or (w < 0).any():
            raise ValueError("weights must be finite and nonnegative")
        if w.size and abs(w.mean() - 1.0) > 1e-12:
            raise ValueError("weights must have mean 1")


def _penalized_nll(z, r, coef, l2):
    # mean Bernoulli NLL from logits; log(1 + e^z) written so exp never overflows
    nll = np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - r * z)
    return nll + 0.5 * l2 * float(coef @ coef)


def fit_propensity(x: np.ndarray, r: np.ndarray, l2: float = DEFAULT_L2,
                   init: PropensityModel | None = None) -> PropensityModel:
    """Fit p(observed | x) by IRLS on the L2-penalized mean log-likelihood.

    The intercept is unpenalized. Converged when the max absolute gradient
    falls below 1e-8 within 100 iterations; otherwise the model is returned
    with ``converged=False`` rather than failing silently. IRLS starts from
    ``init``'s parameters when given (a fit on nearby data converges in fewer
    iterations), else from zero. With ``l2 > 0`` the objective is strictly
    convex in the coefficients, so fewer rows than columns is allowed.
    """
    x = np.asarray(x, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    n, p = x.shape
    if r.shape[0] != n:
        raise ValueError("label length mismatch")
    if n < p and l2 == 0:
        raise ValueError(f"need n >= d for an unpenalized fit, got n={n}, d={p}")
    if l2 < 0:
        raise ValueError("l2 must be nonnegative")
    ones = r.sum()
    if ones == 0 or ones == n:
        raise ValueError("both label classes must be present (column not imputable)")

    design = np.hstack([x, np.ones((n, 1))])
    penalty = np.append(np.full(p, l2), 0.0)
    if init is None:
        beta = np.zeros(p + 1)
    else:
        beta = np.append(init.coefficients, init.intercept)
        if beta.shape[0] != p + 1:
            raise ValueError(
                f"init has {beta.shape[0] - 1} coefficients, x has {p} columns")
    # reused for design.T * s each iteration, in the layout that product has
    scaled_t = np.empty_like(design).T
    z = design @ beta
    nll = _penalized_nll(z, r, beta[:p], l2)
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        eta = sigmoid(z)
        grad = design.T @ (eta - r) / n + penalty * beta
        if np.max(np.abs(grad)) < GRADIENT_TOL:
            converged = True
            break
        s = np.clip(eta * (1.0 - eta), 1e-12, None)
        hess = np.multiply(design.T, s, out=scaled_t) @ design / n + np.diag(penalty)
        step = np.linalg.solve(hess, grad)
        # backtrack if the Newton step overshoots (rare; separable-ish data)
        trial = beta - step
        z_trial = design @ trial
        trial_nll = _penalized_nll(z_trial, r, trial[:p], l2)
        shrink = 0
        while trial_nll > nll + 1e-12 and shrink < 30:
            step *= 0.5
            trial = beta - step
            z_trial = design @ trial
            trial_nll = _penalized_nll(z_trial, r, trial[:p], l2)
            shrink += 1
        beta, nll, z = trial, trial_nll, z_trial
    return PropensityModel(beta[:p].copy(), float(beta[p]), converged, it)


def weights_from_propensity(eta: np.ndarray,
                            clip_epsilon: float = DEFAULT_CLIP) -> np.ndarray:
    """Turn propensities into importance weights: clip, take odds, normalize.

    eta is clipped to [eps, 1 - eps], then w = (1 - eta)/eta, rescaled to
    mean 1 (the odds are only proportional to the true density ratio, so the
    scale is free).
    """
    eta = np.asarray(eta, dtype=float)
    if not 0.0 < clip_epsilon < 0.5:
        raise ValueError("clip_epsilon must be in (0, 0.5)")
    eta = np.clip(eta, clip_epsilon, 1.0 - clip_epsilon)
    w = (1.0 - eta) / eta
    return w / w.mean()


def weights_for_column(design: np.ndarray, obs_col: np.ndarray,
                       l2: float = DEFAULT_L2,
                       clip_epsilon: float = DEFAULT_CLIP,
                       init: PropensityModel | None = None) -> WeightVector:
    """Importance weights for the observed rows of one column.

    ``design`` holds the standardized completed values of every other column
    (all rows) and ``obs_col`` the column's observedness indicator. The
    classifier is trained on all rows; weights are evaluated at the observed
    rows only. ``init`` warm-starts the fit. The returned weights carry the
    fitted model.
    """
    obs_col = np.asarray(obs_col, dtype=bool)
    model = fit_propensity(design, obs_col.astype(float), l2, init=init)
    eta_obs = model.predict_proba(design[obs_col])
    return WeightVector(weights_from_propensity(eta_obs, clip_epsilon), model)


def effective_sample_size(weights: np.ndarray) -> float:
    """(sum w)^2 / sum w^2: how many unit-weight rows the weights are worth."""
    w = np.asarray(weights, dtype=float)
    denom = float((w * w).sum())
    if denom == 0.0:
        return 0.0
    return float(w.sum()) ** 2 / denom


def weight_diagnostics(weights: dict[int, WeightVector]) -> dict:
    """JSON-ready diagnostics of per-column weights and the models they came
    from, in ascending column order; fits nothing.

    ``weights`` is :attr:`ImputationResult.weights` (or any column -> weights
    mapping whose entries carry their propensity model).
    """
    out = {}
    for i in sorted(weights):
        wv = weights[i]
        model = wv.propensity
        counts, edges = np.histogram(wv.weights, bins=20)
        out[str(i)] = {
            "coefficients": [float(c) for c in model.coefficients],
            "intercept": model.intercept,
            "converged": model.converged,
            "weight_histogram": {
                "counts": [int(c) for c in counts],
                "edges": [float(e) for e in edges],
            },
            "effective_sample_size": effective_sample_size(wv.weights),
        }
    return out
