"""Plain reference computations that tests compare the package against.

Each one restates, in the most direct numpy, a quantity the package computes
by a faster or more incremental route.
"""

import numpy as np

from shiftimpute.propensity import (DEFAULT_CLIP, DEFAULT_L2, GRADIENT_TOL,
                                   MAX_ITER, weights_for_column)


def standardize(values: np.ndarray) -> np.ndarray:
    """Each column to mean 0 and population std 1; a constant column to 0."""
    std = values.std(axis=0)
    return (values - values.mean(axis=0)) / np.where(std > 0, std, 1.0)


def with_intercept(x: np.ndarray) -> np.ndarray:
    """``x`` with a trailing column of ones: the design the propensity fit takes."""
    return np.hstack([x, np.ones((x.shape[0], 1))])


def cold_column_weights(completed: np.ndarray, observed: np.ndarray, i: int,
                        l2: float = DEFAULT_L2, clip_epsilon: float = DEFAULT_CLIP):
    """Column ``i``'s weights from a cold propensity fit on the other columns
    of ``completed``, each standardized over all rows."""
    design = with_intercept(standardize(np.delete(completed, i, axis=1)))
    return weights_for_column(design, observed[:, i], l2=l2,
                              clip_epsilon=clip_epsilon)


def oracle_imputer():
    """A riskchecks imputer that returns each column's true values."""
    def g(i, values, observed):
        return values[:, i].copy()
    return g


def ridge_normal_equation_residual(model, x, y, w, ridge_lambda: float) -> float:
    """Max-norm residual of the system the ridge solver targets (mean-1 weights)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    w = w / w.mean()
    design = with_intercept(x)
    penalty = np.append(np.full(x.shape[1], ridge_lambda), 0.0)
    beta = np.append(model.coefficients, model.intercept)
    wd = design * w[:, None]
    resid = (design.T @ wd + np.diag(penalty)) @ beta - wd.T @ y
    return float(np.max(np.abs(resid)))


# The propensity fit as it stood before the IRLS reused each iteration's
# exponential and built the Hessian's penalty once: its own logistic
# function, NLL and Newton loop. Kept verbatim as the oracle the fit must
# reproduce bit for bit.
def _reference_sigmoid(z):
    z = np.asarray(z, dtype=float)
    # exp(-|z|) never overflows; each branch is the usual formula for its sign
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def _reference_penalized_nll(z, r, coef, l2):
    # mean Bernoulli NLL from logits; log(1 + e^z) written so exp never overflows
    nll = np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - r * z)
    return nll + 0.5 * l2 * float(coef @ coef)


def reference_fit_propensity(design, r, l2=DEFAULT_L2, init=None):
    """(coefficients, intercept, converged, n_iter) of the IRLS fit."""
    design = np.asarray(design, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    n, p = design.shape[0], design.shape[1] - 1
    penalty = np.append(np.full(p, l2), 0.0)
    if init is None:
        beta = np.zeros(p + 1)
    else:
        beta = np.append(init.coefficients, init.intercept)
    # reused for design.T * s each iteration, in the layout that product has
    scaled_t = np.empty_like(design).T
    z = design @ beta
    nll = _reference_penalized_nll(z, r, beta[:p], l2)
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        eta = _reference_sigmoid(z)
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
        trial_nll = _reference_penalized_nll(z_trial, r, trial[:p], l2)
        shrink = 0
        while trial_nll > nll + 1e-12 and shrink < 30:
            step *= 0.5
            trial = beta - step
            z_trial = design @ trial
            trial_nll = _reference_penalized_nll(z_trial, r, trial[:p], l2)
            shrink += 1
        beta, nll, z = trial, trial_nll, z_trial
    return beta[:p].copy(), float(beta[p]), converged, it


def reference_weights_for_column(design, obs_col, l2=DEFAULT_L2,
                                 clip_epsilon=DEFAULT_CLIP, init=None):
    """The observed rows' clipped, mean-1 odds weights from that fit."""
    obs_col = np.asarray(obs_col, dtype=bool)
    coef, intercept, _, _ = reference_fit_propensity(
        design, obs_col.astype(float), l2, init=init)
    eta = _reference_sigmoid(design[obs_col, :-1] @ coef + intercept)
    eta = np.clip(eta, clip_epsilon, 1.0 - clip_epsilon)
    w = (1.0 - eta) / eta
    return w / w.mean()
