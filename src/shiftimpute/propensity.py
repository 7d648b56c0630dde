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
from .regressors import weighted_gram

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
    gradient: float | None = None  # max-abs gradient at these parameters

    def __post_init__(self):
        if not (np.all(np.isfinite(self.coefficients))
                and np.isfinite(self.intercept)):
            raise ValueError("propensity fit produced non-finite parameters")


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


def _penalized_nll_and_exp(z, r, coef, l2):
    """The penalized NLL and the ``exp(-|z|)`` it is computed from, which
    :func:`~shiftimpute.masking.sigmoid` takes to skip its own exponential."""
    # mean Bernoulli NLL from logits; log(1 + e^z) written so exp never overflows
    e = np.exp(-np.abs(z))
    nll = np.mean(np.maximum(z, 0.0) + np.log1p(e) - r * z)
    return nll + 0.5 * l2 * float(coef @ coef), e


def fit_propensity(design: np.ndarray, r: np.ndarray, l2: float = DEFAULT_L2,
                   init: PropensityModel | None = None,
                   out: np.ndarray | None = None,
                   max_iter: int | None = None) -> PropensityModel:
    """Fit p(observed | x) by IRLS on the L2-penalized mean log-likelihood.

    ``design`` is the predictor matrix x with a trailing column of ones for
    the intercept, ``[x, 1]``; a last column that is not all ones is
    rejected. The model's coefficients are those of x's ``d`` columns. The
    intercept is unpenalized. Converged when the max absolute gradient, which
    the model records, falls below 1e-8 within ``max_iter`` iterations
    (``MAX_ITER``, 100, when None); otherwise the model is returned with
    ``converged=False`` rather than failing silently. IRLS starts from
    ``init``'s parameters when given (``max_iter=1`` takes one Newton step
    from them), else from zero. With ``l2 > 0`` the objective is strictly
    convex in the coefficients, so fewer rows than predictors is allowed;
    with ``l2 = 0`` the intercept makes d + 1 parameters, so n must exceed d.

    ``out``, an n-vector, receives the fitted probabilities of every row at
    the returned parameters, ``sigmoid(design @ [coefficients, intercept])``:
    after convergence those of the last gradient check, otherwise one more
    logistic of the final logits. Its shape is checked before fitting.
    """
    design = np.asarray(design, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    if design.ndim != 2:
        raise ValueError("design must be 2-D")
    n, p = design.shape[0], design.shape[1] - 1
    if p < 0 or not np.all(design[:, -1] == 1.0):
        raise ValueError("the design's last column must be all ones "
                         "(the intercept column)")
    if r.shape[0] != n:
        raise ValueError("label length mismatch")
    if out is not None and out.shape != (n,):
        raise ValueError(f"out must have shape ({n},), got {out.shape}")
    if n <= p and l2 == 0:
        raise ValueError(f"need n > d for an unpenalized fit (d predictors plus "
                         f"the intercept), got n={n}, d={p}")
    if l2 < 0:
        raise ValueError("l2 must be nonnegative")
    ones = r.sum()
    if ones == 0 or ones == n:
        raise ValueError("both label classes must be present (column not imputable)")

    penalty = np.append(np.full(p, l2), 0.0)
    hess_penalty = np.diag(penalty)
    if init is None:
        beta = np.zeros(p + 1)
    else:
        beta = np.append(init.coefficients, init.intercept)
        if beta.shape[0] != p + 1:
            raise ValueError(
                f"init has {beta.shape[0] - 1} coefficients, the design has "
                f"{p} predictor columns")
    scaled_t = None  # design.T * s, allocated once and reused
    z = design @ beta
    nll, e = _penalized_nll_and_exp(z, r, beta[:p], l2)
    converged = False
    it = 0
    for it in range(1, (MAX_ITER if max_iter is None else max_iter) + 1):
        eta = sigmoid(z, e=e)
        grad = design.T @ (eta - r) / n + penalty * beta
        gradient = np.max(np.abs(grad))
        if gradient < GRADIENT_TOL:
            converged = True
            break
        s = eta * (1.0 - eta)
        np.maximum(s, 1e-12, out=s)
        gram, scaled_t = weighted_gram(design, s, scaled_t)
        hess = gram / n + hess_penalty
        step = np.linalg.solve(hess, grad)
        # backtrack if the Newton step overshoots (rare; separable-ish data)
        trial = beta - step
        z_trial = design @ trial
        trial_nll, e_trial = _penalized_nll_and_exp(z_trial, r, trial[:p], l2)
        shrink = 0
        while trial_nll > nll + 1e-12 and shrink < 30:
            step *= 0.5
            trial = beta - step
            z_trial = design @ trial
            trial_nll, e_trial = _penalized_nll_and_exp(z_trial, r, trial[:p], l2)
            shrink += 1
        beta, nll, z, e = trial, trial_nll, z_trial, e_trial
    if not converged:
        # eta and the gradient are those of the parameters before the last step
        eta = sigmoid(z, e=e)
        gradient = np.max(np.abs(design.T @ (eta - r) / n + penalty * beta))
    if out is not None:
        out[:] = eta
    return PropensityModel(beta[:p].copy(), float(beta[p]), converged, it,
                           float(gradient))


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
                       init: PropensityModel | None = None,
                       max_iter: int | None = None) -> WeightVector:
    """Importance weights for the observed rows of one column.

    ``design`` holds the standardized completed values of every other column
    (all rows) followed by a column of ones, as :func:`fit_propensity` takes
    it, and ``obs_col`` the column's observedness indicator. The classifier
    is trained on all rows; weights are evaluated at the observed rows only.
    ``init`` warm-starts the fit and ``max_iter`` caps its iterations. The
    propensities are those the fit leaves in its ``out`` vector, so no row of
    the design is gathered again. The returned weights carry the fitted model.
    """
    obs_col = np.asarray(obs_col, dtype=bool)
    eta = np.empty(obs_col.shape[0])
    model = fit_propensity(design, obs_col.astype(float), l2, init=init,
                           out=eta, max_iter=max_iter)
    return WeightVector(weights_from_propensity(eta[obs_col], clip_epsilon), model)


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
        wv, model = weights[i], weights[i].propensity
        counts, edges = np.histogram(wv.weights, bins=20)
        out[str(i)] = {
            "coefficients": [float(c) for c in model.coefficients],
            "intercept": model.intercept,
            "converged": model.converged,
            "gradient": model.gradient,
            "weight_histogram": {
                "counts": [int(c) for c in counts],
                "edges": [float(e) for e in edges],
            },
            "effective_sample_size": effective_sample_size(wv.weights),
        }
    return out
