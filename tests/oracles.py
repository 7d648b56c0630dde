"""Plain reference computations that tests compare the package against.

Each one restates, in the most direct numpy, a quantity the package computes
by a faster or more incremental route.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from shiftimpute.masking import CALIBRATION_MAX_ITER, CALIBRATION_TOL, sigmoid
from shiftimpute import propensity
from shiftimpute.propensity import (DEFAULT_CLIP, DEFAULT_L2, MAX_ITER,
                                   weights_for_column)
from shiftimpute.data import require_finite
from shiftimpute.regressors import (SPLIT_GAIN_FLOOR, ForestSpec, RidgeModel,
                                    _check_xyw, _mlp_forward, _MlpStep,
                                    _weighted_mean_square)


def standardize(values: np.ndarray) -> np.ndarray:
    """Each column to mean 0 and population std 1; a constant column to 0."""
    std = values.std(axis=0)
    return (values - values.mean(axis=0)) / np.where(std > 0, std, 1.0)


# The engine's standardization as it stood while it kept each column's
# statistics in a cache: one column at a time, from that column's own values
# over the rows. Kept as the oracle the engine, which now standardizes each
# step's gathered rows at once, must reproduce bit for bit.
def _reference_mean_scale(values: np.ndarray):
    mean = values.mean()
    dev = values - mean
    std = np.sqrt(dev @ dev / values.size)
    return mean, std if std > 0 else 1.0


def reference_standardize(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each column of ``values`` less its mean and divided by its population
    std (1.0 where constant), both taken over ``rows`` alone."""
    out = np.empty_like(values)
    for k in range(values.shape[1]):
        column = values[:, k]
        mean, scale = _reference_mean_scale(column[rows])
        out[:, k] = (column - mean) / scale
    return out


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


def reference_read_rows(handle) -> list[list[str]]:
    """Every line of ``handle`` (opened with ``newline=""``) as the csv
    module tokenizes it: the reader's tokenizer before quote-free lines were
    split with ``str.split``, and still the one it falls back on."""
    reader = csv.reader(handle)
    try:
        return list(reader)
    except csv.Error as exc:
        raise ValueError(f"CSV line {reader.line_num}: {exc}") from None


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


# The ridge fit as it stood before its normal equations were formed in
# blocks: it copies the predictors with a ones column and again with the
# weights applied. Kept verbatim as the oracle the block form must match to
# rounding.
def reference_fit_weighted_ridge(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                                 ridge_lambda: float) -> RidgeModel:
    x, y, w = _check_xyw(x, y, w)
    require_finite("ridge_lambda", ridge_lambda, positive=False)
    if x.shape[1] < 1:
        raise ValueError("need at least one predictor")
    w = w / w.mean()
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    p = x.shape[1]
    penalty = np.append(np.full(p, ridge_lambda), 0.0)
    wd = design * w[:, None]
    lhs = design.T @ wd + np.diag(penalty)
    rhs = wd.T @ y
    try:
        chol = np.linalg.cholesky(lhs)
    except np.linalg.LinAlgError:
        raise ValueError(
            "singular weighted normal equations; use ridge_lambda > 0"
        ) from None

    def solve(b):
        return np.linalg.solve(chol.T, np.linalg.solve(chol, b))

    beta = solve(rhs)
    beta = beta + solve(rhs - lhs @ beta)  # one refinement pass
    return RidgeModel(beta[:p].copy(), float(beta[p]))


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


def reference_gradient_tol(r) -> float:
    """The package's stop for labels ``r``: ``propensity.GRADIENT_TOL`` as it
    reads now, or a quarter of sqrt(rbar (1 - rbar) / n) if smaller."""
    rbar = np.mean(r)
    return min(propensity.GRADIENT_TOL, 0.25 * np.sqrt(rbar * (1.0 - rbar) / r.size))


def reference_fit_propensity(design, r, l2=DEFAULT_L2, init=None, tol=None):
    """(coefficients, intercept, converged, n_iter) of the IRLS fit, stopped
    at the first max-abs gradient below ``tol``, by default the package's."""
    design = np.asarray(design, dtype=float)
    r = np.asarray(r, dtype=float).ravel()
    n, p = design.shape[0], design.shape[1] - 1
    if tol is None:
        tol = reference_gradient_tol(r)
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
        if np.max(np.abs(grad)) < tol:
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


# The mask calibration as a plain bisection: it evaluates the rate at both
# ends and at every midpoint. The oracle for the Newton solve's error
# messages, for where it must meet the tolerance, and for its evaluation
# count.
def reference_calibrate_intercept(scores: np.ndarray, target_rate: float) -> float:
    """Find the intercept making mean(1 - sigmoid(scores + b)) hit target_rate.

    Bisection over [-50, 50]; the objective is strictly decreasing in the
    intercept. Raises if the interval does not bracket the target (pathological
    scores) rather than clamping silently.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if not 0.01 < target_rate < 0.99:
        raise ValueError("target_rate must be in (0.01, 0.99)")

    def gap(b):
        return float(np.mean(1.0 - sigmoid(scores + b))) - target_rate

    lo, hi = -50.0, 50.0
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo < 0 or g_hi > 0:
        raise ValueError(
            f"cannot bracket target rate {target_rate} over [-50, 50]; "
            f"rate({lo})={g_lo + target_rate:.4g}, rate({hi})={g_hi + target_rate:.4g}"
        )
    for _ in range(CALIBRATION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if abs(g_mid) <= CALIBRATION_TOL:
            return mid
        if g_mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mlp_loss_and_gradient(params, x, y, w):
    """Weighted-MSE loss and analytic gradients for one tanh hidden layer.

    ``params`` is (w_hidden, b_hidden, w_out, b_out); gradients come back in
    the same order. The loss is ``predict``'s forward pass, and the gradient
    is the fit's own step on the flat parameter vector, with all rows as one
    batch, so a finite-difference check of it checks the gradient the fit
    descends along.
    """
    w_hidden, b_hidden, w_out, b_out = params
    p = w_hidden.shape[0]
    theta = np.concatenate([np.ravel(w_hidden), b_hidden, w_out, [b_out]])
    step = _MlpStep(theta, p, x.shape[0])
    x1 = np.ones((p + 1, x.shape[0]))
    x1[:p] = x.T
    step.gradient(x1, y, 2.0 * w / w.sum())
    loss = _weighted_mean_square(_mlp_forward(params, x)[1] - y, w)
    return loss, (step.g1[:p], step.g1[p], step.g2, float(step.grad[-1]))


# The MLP fit as it stood before its parameters became one flat vector with
# the hidden bias folded into the hidden weights: separate bias terms, a
# per-batch 2 w * r / sum(w), a fancy-index gather per batch and a full
# loss-and-gradient pass for every step, whose batch losses, each by its
# batch's weight, make the epoch loss. The new arithmetic rounds
# differently, so it is kept as the oracle the fit must stay close to.
def _reference_unfolded_loss_and_gradient(params, x, y, w):
    w_hidden, b_hidden, w_out, b_out = params
    sw = w.sum()
    hidden = np.tanh(x @ w_hidden + b_hidden)
    pred = hidden @ w_out + b_out
    resid = pred - y
    loss = float((w * resid * resid).sum() / sw)
    dpred = 2.0 * w * resid / sw
    g_wout = hidden.T @ dpred
    g_bout = float(dpred.sum())
    dhidden = np.outer(dpred, w_out) * (1.0 - hidden * hidden)
    g_whidden = x.T @ dhidden
    g_bhidden = dhidden.sum(axis=0)
    return loss, (g_whidden, g_bhidden, g_wout, g_bout)


def reference_glorot(rng, fan_in, fan_out, shape):
    """The MLP's initial weights: uniform on +-sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def reference_unfolded_fit_mlp(x, y, w, spec, seed):
    """(params, loss_trace) of the MLP fit with separate bias terms."""
    keep = w > 0
    x, y, w = x[keep], y[keep], w[keep]
    n, p = x.shape
    h = spec.hidden_units
    rng = np.random.default_rng(seed)
    w_hidden = reference_glorot(rng, p, h, (p, h))
    b_hidden = np.zeros(h)
    w_out = reference_glorot(rng, h, 1, (h,))
    b_out = 0.0
    trace = []
    for _ in range(spec.epochs):
        perm = rng.permutation(n)
        weighted_losses = 0.0
        for start in range(0, n, spec.batch_size):
            batch = perm[start:start + spec.batch_size]
            batch_loss, grads = _reference_unfolded_loss_and_gradient(
                (w_hidden, b_hidden, w_out, b_out), x[batch], y[batch], w[batch]
            )
            weighted_losses += w[batch].sum() * batch_loss
            w_hidden = w_hidden - spec.learning_rate * grads[0]
            b_hidden = b_hidden - spec.learning_rate * grads[1]
            w_out = w_out - spec.learning_rate * grads[2]
            b_out = b_out - spec.learning_rate * grads[3]
        loss = float(weighted_losses / w.sum())
        if not np.isfinite(loss) or loss > 1e10:
            raise RuntimeError(
                f"MLP diverged at epoch {len(trace) + 1}: loss={loss!r} "
                f"(learning_rate={spec.learning_rate})"
            )
        trace.append(loss)
    return (w_hidden, b_hidden, w_out, float(b_out)), tuple(trace)


def full_table_scores(values: np.ndarray, spec) -> np.ndarray:
    """alpha * (sum of the predictors' columns of the whole standardized
    table), one column per planted column: the mask scores' full-table form."""
    scaled = standardize(values)
    scores = np.zeros((values.shape[0], len(spec.missing_cols)))
    for k, cols in enumerate(spec.predictor_sets):
        if cols:
            scores[:, k] = spec.alpha * scaled[:, list(cols)].sum(axis=1)
    return scores


def sorted_wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """W1 of two equal-size samples as the mean gap of their order
    statistics, with both samples sorted whatever they hold."""
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


# The CART as it stood before trees became flat arrays: one node object per
# split, a Python loop over every candidate cut, and a recursive predict.
# Kept verbatim as the oracle the flat trees must reproduce bit for bit.
@dataclass(frozen=True)
class TreeNode:
    """Binary CART node; a leaf has feature None and carries ``value``."""

    feature: int | None
    threshold: float | None
    value: float
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    def is_leaf(self) -> bool:
        return self.feature is None


def _weighted_sse(sw, swy, swyy):
    # sum w*(y - mean)^2 written in accumulated form
    return swyy - swy * swy / sw


def _best_split(x, y, w, rows, features, min_leaf_weight):
    """Scan candidate splits; returns (gain, feature, threshold) or None.

    Candidates are midpoints between consecutive distinct values (the left
    value itself where the midpoint is not below the right one). Ties break
    to the lowest feature index then lowest threshold because features and
    thresholds are scanned ascending and only a strictly larger gain wins.
    """
    yw = w[rows] * y[rows]
    sw = w[rows].sum()
    swy = yw.sum()
    swyy = (yw * y[rows]).sum()
    node_sse = _weighted_sse(sw, swy, swyy)
    floor = SPLIT_GAIN_FLOOR * max(1.0, abs(node_sse))
    best = None
    for f in features:
        xv = x[rows, f]
        order = np.argsort(xv, kind="stable")
        xs = xv[order]
        ws = w[rows][order]
        wys = yw[order]
        wyys = wys * y[rows][order]
        cw = np.cumsum(ws)
        cwy = np.cumsum(wys)
        cwyy = np.cumsum(wyys)
        cut = np.flatnonzero(xs[:-1] < xs[1:])  # last index of each left block
        for t in cut:
            wl = cw[t]
            wr = sw - wl
            if wl < min_leaf_weight or wr < min_leaf_weight:
                continue
            gain = node_sse - _weighted_sse(wl, cwy[t], cwyy[t]) \
                - _weighted_sse(wr, swy - cwy[t], swyy - cwyy[t])
            if gain > floor and (best is None or gain > best[0]):
                threshold = 0.5 * (xs[t] + xs[t + 1])
                if not threshold < xs[t + 1]:
                    # adjacent floats: the midpoint rounds up to the right
                    # value, and x <= threshold would send every row left
                    threshold = xs[t]
                best = (gain, int(f), threshold)
    return best


def _build_tree(x, y, w, rows, depth, spec: ForestSpec, rng) -> TreeNode:
    sw = w[rows].sum()
    value = float((w[rows] * y[rows]).sum() / sw)
    if depth >= spec.max_depth or sw < 2 * spec.min_leaf_weight:
        return TreeNode(None, None, value)
    n_feat = x.shape[1]
    if spec.feature_subsample >= 1.0:
        features = range(n_feat)
    else:
        m = max(1, int(round(spec.feature_subsample * n_feat)))
        features = np.sort(rng.choice(n_feat, size=m, replace=False))
    best = _best_split(x, y, w, rows, features, spec.min_leaf_weight)
    if best is None:
        return TreeNode(None, None, value)
    _, feature, threshold = best
    go_left = x[rows, feature] <= threshold
    left = _build_tree(x, y, w, rows[go_left], depth + 1, spec, rng)
    right = _build_tree(x, y, w, rows[~go_left], depth + 1, spec, rng)
    return TreeNode(feature, threshold, value, left, right)


def _tree_predict(node: TreeNode, x: np.ndarray, rows: np.ndarray, out: np.ndarray):
    if node.is_leaf():
        out[rows] = node.value
        return
    go_left = x[rows, node.feature] <= node.threshold
    _tree_predict(node.left, x, rows[go_left], out)
    _tree_predict(node.right, x, rows[~go_left], out)


def reference_forest(x, y, w, spec: ForestSpec, seed: int) -> list[TreeNode]:
    """The root nodes ``fit_weighted_forest`` grew, from the same draws."""
    x, y, w = (np.asarray(a, dtype=float) for a in (x, y, w))
    trees = []
    for t in range(spec.n_trees):
        rng = np.random.default_rng(seed + t)
        if spec.bootstrap:
            idx = rng.choice(x.shape[0], size=x.shape[0], replace=True, p=w / w.sum())
            xt, yt, wt = x[idx], y[idx], np.ones(x.shape[0])
        else:
            keep = w > 0
            xt, yt, wt = x[keep], y[keep], w[keep]
        trees.append(_build_tree(xt, yt, wt, np.arange(xt.shape[0]), 0, spec, rng))
    return trees


def reference_forest_predict(trees: list[TreeNode], x: np.ndarray) -> np.ndarray:
    """The forest's mean prediction by the recursive walk."""
    acc = np.zeros(x.shape[0])
    rows = np.arange(x.shape[0])
    scratch = np.empty(x.shape[0])
    for tree in trees:
        _tree_predict(tree, x, rows, scratch)
        acc += scratch
    return acc / len(trees)


def flatten_preorder(root: TreeNode):
    """(feature, threshold, left, right, value) lists of ``root``'s subtree in
    preorder; a leaf gets feature -1, threshold 0 and itself as both children."""
    columns = ([], [], [], [], [])

    def visit(node):
        k = len(columns[0])
        for column, entry in zip(columns, (-1, 0.0, k, k, node.value)):
            column.append(entry)
        if not node.is_leaf():
            columns[0][k], columns[1][k] = node.feature, node.threshold
            columns[2][k] = visit(node.left)
            columns[3][k] = visit(node.right)
        return k

    visit(root)
    return columns
