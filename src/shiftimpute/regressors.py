"""Weighted conditional regressors sharing a fit(X, y, w)/predict(X) contract.

Three model classes minimize the same weighted mean squared error
``sum_k w_k (g(x_k) - y_k)^2 / sum_k w_k``:

- ridge: closed-form weighted normal equations, unpenalized intercept;
- forest: CART trees with weighted bootstrap, weighted variance-reduction
  splits, and weighted leaf means;
- mlp: one tanh hidden layer trained by seeded mini-batch gradient descent.

All fits are deterministic given their spec and seed (forest trees use
seed+tree_index so parallel and serial builds agree by construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import JsonRecord, require_finite

__all__ = [
    "ForestSpec",
    "MlpSpec",
    "RegressorSpec",
    "RidgeModel",
    "TreeNode",
    "ForestModel",
    "MlpModel",
    "fit_weighted_ridge",
    "fit_weighted_forest",
    "fit_weighted_mlp",
    "fit_regressor",
    "predict",
    "weighted_mse",
]

SPLIT_GAIN_FLOOR = 1e-12
DIVERGENCE_LIMIT = 1e10


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForestSpec(JsonRecord):
    n_trees: int = 100
    max_depth: int = 8
    min_leaf_weight: float = 5.0
    feature_subsample: float = 1.0 / 3.0
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1 or self.max_depth < 1:
            raise ValueError("n_trees and max_depth must be positive")
        require_finite("min_leaf_weight", self.min_leaf_weight, positive=True)
        if not 0.0 < self.feature_subsample <= 1.0:
            raise ValueError("feature_subsample must be in (0, 1]")


@dataclass(frozen=True)
class MlpSpec(JsonRecord):
    hidden_units: int = 32
    learning_rate: float = 0.02
    epochs: int = 150
    batch_size: int = 64

    def __post_init__(self):
        if min(self.hidden_units, self.epochs, self.batch_size) < 1:
            raise ValueError("hidden_units, epochs, batch_size must be positive")
        require_finite("learning_rate", self.learning_rate, positive=True)


@dataclass(frozen=True)
class RegressorSpec(JsonRecord):
    """Which model class to fit and its hyperparameters."""

    kind: str = "ridge"
    ridge_lambda: float = 1e-3
    forest: ForestSpec = field(default_factory=ForestSpec)
    mlp: MlpSpec = field(default_factory=MlpSpec)

    def __post_init__(self):
        if self.kind not in ("ridge", "forest", "mlp"):
            raise ValueError(f"unknown regressor kind {self.kind!r}")
        require_finite("ridge_lambda", self.ridge_lambda, positive=False)


# ---------------------------------------------------------------------------
# Fitted models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RidgeModel:
    coefficients: np.ndarray
    intercept: float

    @property
    def n_features(self) -> int:
        return self.coefficients.shape[0]


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


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeNode, ...]
    n_features: int


@dataclass(frozen=True)
class MlpModel:
    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: float
    loss_trace: tuple[float, ...]

    @property
    def n_features(self) -> int:
        return self.w_hidden.shape[0]

    @property
    def params(self):
        return self.w_hidden, self.b_hidden, self.w_out, self.b_out


def _check_xyw(x, y, w):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(w, dtype=float).ravel()
    if x.ndim != 2:
        raise ValueError("X must be 2-D")
    if y.shape[0] != x.shape[0] or w.shape[0] != x.shape[0]:
        raise ValueError("X, y, w must have the same number of rows")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    if w.sum() <= 0:
        raise ValueError("weights must have positive total mass")
    return x, y, w


# ---------------------------------------------------------------------------
# Ridge
# ---------------------------------------------------------------------------

def fit_weighted_ridge(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                       ridge_lambda: float) -> RidgeModel:
    """Closed-form weighted ridge with an internal unpenalized intercept.

    Weights are normalized to mean 1 before solving, so rescaling all weights
    by a positive constant leaves the solution unchanged. Solves
    (X'WX + lambda*D) beta = X'Wy (D penalizes everything but the intercept)
    by Cholesky with one step of iterative refinement.
    """
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


# ---------------------------------------------------------------------------
# CART forest
# ---------------------------------------------------------------------------

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


def fit_weighted_forest(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                        spec: ForestSpec, seed: int) -> ForestModel:
    """Bagged CART regressors honoring row weights everywhere.

    With bootstrap on, each tree draws n rows with probability proportional to
    the weights and fits them with unit weight (multiplicity carries the
    weighting). With bootstrap off, the tree sees every row once with its
    weight in the split criterion and leaf means, so an integer-weighted fit
    equals the unweighted fit on the row-replicated dataset. Tree ``t`` draws
    from ``seed + t``.
    """
    x, y, w = _check_xyw(x, y, w)
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
    return ForestModel(tuple(trees), x.shape[1])


def _tree_predict(node: TreeNode, x: np.ndarray, rows: np.ndarray, out: np.ndarray):
    if node.is_leaf():
        out[rows] = node.value
        return
    go_left = x[rows, node.feature] <= node.threshold
    _tree_predict(node.left, x, rows[go_left], out)
    _tree_predict(node.right, x, rows[~go_left], out)


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

def _glorot(rng, fan_in, fan_out, shape):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _weighted_mean_square(resid, w) -> float:
    return float((w * resid * resid).sum() / w.sum())


def _mlp_forward(params, x, out=None):
    """Hidden activations and predictions of the network ``params`` on ``x``;
    the activations are written into ``out`` (rows of ``x`` by hidden units)
    when it is given, else into a new array."""
    w_hidden, b_hidden, w_out, b_out = params
    hidden = np.matmul(x, w_hidden, out=out)
    hidden += b_hidden
    np.tanh(hidden, out=hidden)
    return hidden, hidden @ w_out + b_out


def _mlp_gradient(params, x, hidden, resid, w):
    """Gradients of the weighted MSE in the order of ``params``, given the
    forward pass ``hidden`` on ``x`` and the residuals ``pred - y``."""
    dpred = 2.0 * w * resid / w.sum()
    dhidden = dpred[:, None] * params[2]
    dhidden *= 1.0 - hidden * hidden
    return x.T @ dhidden, dhidden.sum(axis=0), hidden.T @ dpred, float(dpred.sum())


def mlp_loss_and_gradient(params, x, y, w):
    """Weighted-MSE loss and analytic gradients for one tanh hidden layer.

    ``params`` is (w_hidden, b_hidden, w_out, b_out); gradients come back in
    the same order. Exposed so the analytic gradient the fit descends along
    can be checked against finite differences.
    """
    hidden, pred = _mlp_forward(params, x)
    resid = pred - y
    loss = _weighted_mean_square(resid, w)
    return loss, _mlp_gradient(params, x, hidden, resid, w)


def fit_weighted_mlp(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                     spec: MlpSpec, seed: int) -> MlpModel:
    """Mini-batch gradient descent on the weighted MSE; seeded and deterministic.

    Zero-weight rows are dropped before batching, so the fit is identical to
    one on the surviving rows alone. Each epoch gathers the rows in a fresh
    random order once and steps on consecutive slices of it; the epoch loss
    is one forward pass over all rows. Aborts if it exceeds 1e10.

    The gathered rows and the epoch loss's hidden activations live in
    buffers allocated once per fit. With every weight positive the rows are
    read where they are, not copied; the last entry of ``loss_trace`` is
    then exactly ``weighted_mse`` of the model on ``x, y, w``.
    """
    x, y, w = _check_xyw(x, y, w)
    keep = w > 0
    if not keep.all():
        x, y, w = x[keep], y[keep], w[keep]
    x = np.ascontiguousarray(x)  # a row copy's layout: BLAS rounding follows it
    n, p = x.shape
    h = spec.hidden_units
    rng = np.random.default_rng(seed)
    w_hidden = _glorot(rng, p, h, (p, h))
    b_hidden = np.zeros(h)
    w_out = _glorot(rng, h, 1, (h,))
    b_out = 0.0
    lr, size = spec.learning_rate, spec.batch_size
    xp, yp, wp = np.empty((n, p)), np.empty(n), np.empty(n)
    loss_hidden = np.empty((n, h))
    trace = []
    for _ in range(spec.epochs):
        perm = rng.permutation(n)
        # any mode but the default "raise" writes straight into ``out``
        for src, dst in ((x, xp), (y, yp), (w, wp)):
            np.take(src, perm, axis=0, out=dst, mode="clip")
        for start in range(0, n, size):
            xb = xp[start:start + size]
            params = (w_hidden, b_hidden, w_out, b_out)
            hidden, pred = _mlp_forward(params, xb)
            g_whidden, g_bhidden, g_wout, g_bout = _mlp_gradient(
                params, xb, hidden, pred - yp[start:start + size],
                wp[start:start + size])
            w_hidden -= lr * g_whidden
            b_hidden -= lr * g_bhidden
            w_out -= lr * g_wout
            b_out -= lr * g_bout
        _, pred = _mlp_forward((w_hidden, b_hidden, w_out, b_out), x,
                               out=loss_hidden)
        loss = _weighted_mean_square(pred - y, w)
        if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
            raise RuntimeError(
                f"MLP diverged at epoch {len(trace) + 1}: loss={loss!r} "
                f"(learning_rate={spec.learning_rate})"
            )
        trace.append(loss)
    return MlpModel(w_hidden, b_hidden, w_out, float(b_out), tuple(trace))


# ---------------------------------------------------------------------------
# Common surface
# ---------------------------------------------------------------------------

def fit_regressor(spec: RegressorSpec, x, y, w, seed: int):
    """Fit the model ``spec`` names; ``seed`` drives the forest and the MLP."""
    if spec.kind == "ridge":
        return fit_weighted_ridge(x, y, w, spec.ridge_lambda)
    if spec.kind == "forest":
        return fit_weighted_forest(x, y, w, spec.forest, seed)
    return fit_weighted_mlp(x, y, w, spec.mlp, seed)


def predict(model, x: np.ndarray) -> np.ndarray:
    """Evaluate a fitted model on an m x p matrix; m = 0 yields an empty vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("X must be 2-D")
    if not isinstance(model, (RidgeModel, ForestModel, MlpModel)):
        raise TypeError(f"not a fitted regressor: {type(model).__name__}")
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"model expects {model.n_features} features, got {x.shape[1]}"
        )
    if isinstance(model, RidgeModel):
        return x @ model.coefficients + model.intercept
    if isinstance(model, MlpModel):
        return _mlp_forward(model.params, x)[1]
    if x.shape[0] == 0:
        return np.empty(0)
    acc = np.zeros(x.shape[0])
    rows = np.arange(x.shape[0])
    scratch = np.empty(x.shape[0])
    for tree in model.trees:
        _tree_predict(tree, x, rows, scratch)
        acc += scratch
    return acc / len(model.trees)


def weighted_mse(model, x, y, w) -> float:
    """sum_k w_k (pred_k - y_k)^2 / sum_k w_k for a fitted model."""
    x, y, w = _check_xyw(x, y, w)
    return _weighted_mean_square(predict(model, x) - y, w)
