"""Plain reference computations that tests compare the package against.

Each one restates, in the most direct numpy, a quantity the package computes
by a faster or more incremental route.
"""

import numpy as np

from shiftimpute.propensity import DEFAULT_CLIP, DEFAULT_L2, weights_for_column


def standardize(values: np.ndarray) -> np.ndarray:
    """Each column to mean 0 and population std 1; a constant column to 0."""
    std = values.std(axis=0)
    return (values - values.mean(axis=0)) / np.where(std > 0, std, 1.0)


def cold_column_weights(completed: np.ndarray, observed: np.ndarray, i: int,
                        l2: float = DEFAULT_L2, clip_epsilon: float = DEFAULT_CLIP):
    """Column ``i``'s weights from a cold propensity fit on the other columns
    of ``completed``, each standardized over all rows."""
    design = standardize(np.delete(completed, i, axis=1))
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
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    penalty = np.append(np.full(x.shape[1], ridge_lambda), 0.0)
    beta = np.append(model.coefficients, model.intercept)
    wd = design * w[:, None]
    resid = (design.T @ wd + np.diag(penalty)) @ beta - wd.T @ y
    return float(np.max(np.abs(resid)))
