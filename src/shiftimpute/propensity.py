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
# a fit stops below this max-abs gradient, or below a quarter of the gradient's
# sampling noise sqrt(rbar (1 - rbar) / n) where smaller (rbar the mean label)
GRADIENT_TOL = 1e-3
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


def _penalized_nll(z, e, r, coef, l2):
    """The penalized NLL from logits ``z`` and their ``e = exp(-|z|)``."""
    # mean Bernoulli NLL from logits; log(1 + e^z) written so exp never overflows
    nll = np.mean(np.maximum(z, 0.0) + np.log1p(e) - r * z)
    return nll + 0.5 * l2 * float(coef @ coef)


def _probabilities_and_gradient(design, z, e, r, penalty, beta):
    """The probabilities ``sigmoid(z)`` from logits ``z = design @ beta`` and
    their ``e = exp(-|z|)``, and the penalized NLL's gradient at ``beta``."""
    eta = sigmoid(z, e=e)
    return eta, design.T @ (eta - r) / r.shape[0] + penalty * beta


def fit_propensity(design: np.ndarray, r: np.ndarray, l2: float = DEFAULT_L2,
                   init: PropensityModel | None = None,
                   out: np.ndarray | None = None,
                   scratch: np.ndarray | None = None) -> PropensityModel:
    """Fit p(observed | x) by IRLS on the L2-penalized mean log-likelihood.

    ``design`` is the predictor matrix x with a trailing column of ones for
    the intercept, ``[x, 1]``; a last column that is not all ones is
    rejected. The model's coefficients are those of x's ``d`` columns. The
    intercept is unpenalized. From ``init``'s parameters, else zero, each of
    at most ``MAX_ITER`` (100) iterations checks the max absolute gradient,
    which the model records: below its stop (``GRADIENT_TOL``, or less on a
    large table) the fit has converged, else it takes a Newton step. The
    step computes its trial's probabilities and gradient at once, for the
    next check. The NLL is convex, so a trial gradient whose product with
    the step is nonnegative certifies that the full step does not raise it;
    only an uncertified step evaluates the NLL, at its start and at each
    trial of a halving line search of at most 31 trials; if none of them
    lowers the NLL, the fit stops at its current parameters. An unconverged
    fit reads ``converged=False`` rather than failing silently. With
    ``l2 > 0`` the objective is strictly convex in the coefficients, so
    fewer rows than predictors is allowed; with ``l2 = 0`` the intercept
    makes d + 1 parameters, so n must exceed d, and a singular Newton system
    (a constant or duplicated predictor) raises a ``LinAlgError`` that says
    so.

    ``out``, an n-vector, receives the fitted probabilities of every row at
    the returned parameters, ``sigmoid(design @ [coefficients, intercept])``,
    those the recorded gradient was computed from (the start's, if no step
    was taken). Its shape is checked first.

    ``scratch``, an array of ``design.T``'s shape sharing no memory with
    ``design``, receives each Newton step's scaled transpose ``design.T * s``
    (what it held is ignored); without it, a fit that takes a step allocates
    its own. In ``design.T``'s layout it leaves every result bit-identical.
    Its shape and overlap are checked before any fitting.
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
    if scratch is not None:
        if scratch.shape != (p + 1, n):
            raise ValueError(f"scratch must have the design's transposed shape "
                             f"{(p + 1, n)}, got {scratch.shape}")
        if np.shares_memory(scratch, design):
            raise ValueError("scratch must not share memory with the design")
    if n <= p and l2 == 0:
        raise ValueError(f"need n > d for an unpenalized fit (d predictors plus "
                         f"the intercept), got n={n}, d={p}")
    if l2 < 0:
        raise ValueError("l2 must be nonnegative")
    ones = r.sum()
    if ones == 0 or ones == n:
        raise ValueError("both label classes must be present (column not imputable)")
    rbar = ones / n
    tol = min(GRADIENT_TOL, 0.25 * np.sqrt(rbar * (1.0 - rbar) / n))

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
    z = design @ beta
    e = np.exp(-np.abs(z))
    eta, grad = _probabilities_and_gradient(design, z, e, r, penalty, beta)
    gradient = np.max(np.abs(grad))
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        if gradient < tol:
            converged = True
            break
        s = 1.0 - eta
        s *= eta
        np.maximum(s, 1e-12, out=s)
        # design.T * s, into the caller's buffer or one allocated by this fit
        gram, scratch = weighted_gram(design, s, scratch)
        hess = gram / n + hess_penalty
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                "singular propensity Hessian (a constant or duplicated "
                "predictor); use propensity_l2 > 0") from None
        trial = beta - step
        z_trial = design @ trial
        e_trial = np.exp(-np.abs(z_trial))
        eta_trial, grad_trial = _probabilities_and_gradient(
            design, z_trial, e_trial, r, penalty, trial)
        # the NLL is convex: NLL(beta) >= NLL(trial) + grad_trial @ step, so a
        # nonnegative product certifies the full step; else the step is halved
        # while its trial's NLL exceeds beta's (rare; separable-ish data), at
        # most 30 times; a NaN trial NLL is taken as it is
        if not grad_trial @ step >= 0:
            nll = _penalized_nll(z, e, r, beta[:p], l2)
            halvings = 0
            while ((raised := _penalized_nll(z_trial, e_trial, r, trial[:p], l2)
                    > nll + 1e-12) and halvings < 30):
                step *= 0.5
                trial = beta - step
                z_trial = design @ trial
                e_trial = np.exp(-np.abs(z_trial))
                halvings += 1
            if raised:
                break  # no trial lowers the NLL: keep beta, unconverged
            if halvings:
                eta_trial, grad_trial = _probabilities_and_gradient(
                    design, z_trial, e_trial, r, penalty, trial)
        beta, z, e, eta, grad = trial, z_trial, e_trial, eta_trial, grad_trial
        gradient = np.max(np.abs(grad))
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
    w = 1.0 - eta
    w /= eta
    w /= w.mean()
    return w


def weights_for_column(design: np.ndarray, obs_col: np.ndarray,
                       l2: float = DEFAULT_L2,
                       clip_epsilon: float = DEFAULT_CLIP,
                       init: PropensityModel | None = None,
                       scratch: np.ndarray | None = None) -> WeightVector:
    """Importance weights for the observed rows of one column.

    ``design`` holds every other column's completed values at all rows,
    standardized over the column's observed rows (with the intercept
    unpenalized, the statistics only set the scale the L2 penalty sees),
    then a column of ones, as :func:`fit_propensity` takes it, and
    ``obs_col`` the column's observedness indicator. The classifier is
    trained on all rows; weights are evaluated at the observed rows only.
    ``init`` warm-starts the fit, which stops at its statistical tolerance;
    its ``out`` vector holds the propensities, so no row of the design is
    gathered again: the observed rows' entries are taken from it by
    ``obs_col``. ``scratch`` is the fit's Newton buffer, as
    :func:`fit_propensity` takes it. The weights carry the model.
    """
    obs_col = np.asarray(obs_col, dtype=bool)
    eta = np.empty(obs_col.shape[0])
    model = fit_propensity(design, obs_col.astype(float), l2, init=init,
                           out=eta, scratch=scratch)
    return WeightVector(weights_from_propensity(eta[obs_col], clip_epsilon),
                        model)


def effective_sample_size(weights: np.ndarray) -> float:
    """(sum w)^2 / sum w^2: how many unit-weight rows the weights are worth."""
    w = np.asarray(weights, dtype=float)
    denom = float((w * w).sum())
    if denom == 0.0:
        return 0.0
    return float(w.sum()) ** 2 / denom


def weight_diagnostics(weights: dict[int, WeightVector]) -> dict:
    """JSON-ready diagnostics of per-column weights and the models they came
    from, in ascending column order; fits nothing. The convergence flag,
    gradient and effective sample size are in the step records, not here.

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
            "weight_histogram": {
                "counts": [int(c) for c in counts],
                "edges": [float(e) for e in edges],
            },
        }
    return out
