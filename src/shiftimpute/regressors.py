"""Weighted conditional regressors sharing a fit(X, y, w)/predict(X) contract.

Three model classes minimize the same weighted mean squared error
``sum_k w_k (g(x_k) - y_k)^2 / sum_k w_k``:

- ridge: closed-form weighted normal equations, unpenalized intercept;
- forest: CART trees with weighted bootstrap, weighted variance-reduction
  splits (one vectorized cut scan per node and feature, ties to the lowest
  feature then threshold), and weighted leaf means; a tree is flat node
  arrays, and predict moves every row down one level per pass;
- mlp: one tanh hidden layer trained by seeded mini-batch gradient descent.

All fits are deterministic given their spec and seed (forest trees use
seed+tree_index so parallel and serial builds agree by construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import JsonRecord, require_finite

__all__ = [
    "ForestSpec",
    "MlpSpec",
    "RegressorSpec",
    "RidgeModel",
    "Tree",
    "ForestModel",
    "MlpModel",
    "weighted_gram",
    "fit_weighted_ridge",
    "fit_weighted_forest",
    "fit_weighted_mlp",
    "check_mlp_loss",
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
        self._coerce_fields()
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
        self._coerce_fields()
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
        self._coerce_fields()
        if self.kind not in ("ridge", "forest", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")
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


@dataclass(frozen=True, eq=False)
class Tree:
    """One CART tree as node arrays in depth-first order, root at 0. Node k
    sends a row to ``left[k]`` if ``x[feature[k]] <= threshold[k]``, else to
    ``right[k]``; a leaf has feature -1, threshold 0, and is its own children."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __eq__(self, other):
        return isinstance(other, Tree) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(Tree))


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[Tree, ...]
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
    total = w.sum()  # infinite if a weight is; a NaN weight fails w >= 0
    if not ((w >= 0).all() and np.isfinite(total)):
        raise ValueError("weights must be finite and nonnegative")
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    return x, y, w


# ---------------------------------------------------------------------------
# Ridge
# ---------------------------------------------------------------------------

def weighted_gram(x: np.ndarray, s: np.ndarray, out=None):
    """``x' diag(s) x`` and the scaled transpose ``x' diag(s)``, written into
    ``out`` when given. The one place a weighted Gram's layout is decided: the
    scaled transpose takes that of ``x.T``, and BLAS rounding follows it."""
    scaled = np.multiply(x.T, s, out=out)
    return scaled @ x, scaled


def fit_weighted_ridge(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                       ridge_lambda: float) -> RidgeModel:
    """Closed-form weighted ridge with an internal unpenalized intercept.

    Weights are normalized to mean 1 before solving, so rescaling all weights
    by a positive constant leaves the solution unchanged. Solves
    (X'WX + lambda*D) beta = X'Wy (D penalizes everything but the intercept)
    in blocks formed from ``x`` itself: ``[[x'Wx + lambda*I, x'w], [w'x,
    sum w]]``, ``[x'Wy, sum wy]``. The Cholesky factor L is inverted once, and
    the solve and its one pass of iterative refinement each apply
    ``inv(L)' (inv(L) b)``.
    """
    x, y, w = _check_xyw(x, y, w)
    require_finite("ridge_lambda", ridge_lambda, positive=False)
    p = x.shape[1]
    if p < 1:
        raise ValueError("need at least one predictor")
    w = w / w.mean()
    lhs = np.empty((p + 1, p + 1))
    lhs[:p, :p], xw = weighted_gram(x, w)
    lhs[:p, p] = lhs[p, :p] = w @ x
    lhs[p, p] = w.sum()
    lhs.flat[:p * (p + 2):p + 2] += ridge_lambda  # x'Wx's diagonal
    rhs = np.append(xw @ y, w @ y)
    try:
        chol = np.linalg.cholesky(lhs)
    except np.linalg.LinAlgError:
        raise ValueError(
            "singular weighted normal equations; use ridge_lambda > 0"
        ) from None

    inv = np.linalg.inv(chol)

    def solve(b):
        return inv.T @ (inv @ b)

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
    value itself where the midpoint is not below the right one), scored per
    feature in one array expression. Ties break to the lowest feature index
    then lowest threshold: ``argmax`` takes a feature's first maximum, and a
    later feature must gain strictly more.
    """
    wn, yn = w[rows], y[rows]
    yw = wn * yn
    sw, swy, swyy = wn.sum(), yw.sum(), (yw * yn).sum()
    node_sse = _weighted_sse(sw, swy, swyy)
    floor = SPLIT_GAIN_FLOOR * max(1.0, abs(node_sse))
    best = None
    for f in features:
        xv = x[rows, f]
        order = np.argsort(xv, kind="stable")
        xs, wys = xv[order], yw[order]
        cw, cwy, cwyy = np.cumsum([wn[order], wys, wys * yn[order]], axis=1)
        # last index of each left block, where both sides carry enough weight
        cut = np.flatnonzero((xs[:-1] < xs[1:]) & (cw[:-1] >= min_leaf_weight)
                             & (sw - cw[:-1] >= min_leaf_weight))
        if cut.size == 0:
            continue
        wl, wyl, wyyl = cw[cut], cwy[cut], cwyy[cut]
        gain = node_sse - _weighted_sse(wl, wyl, wyyl) \
            - _weighted_sse(sw - wl, swy - wyl, swyy - wyyl)
        k = np.argmax(gain)
        if gain[k] > floor and (best is None or gain[k] > best[0]):
            t = cut[k]
            threshold = 0.5 * (xs[t] + xs[t + 1])
            if not threshold < xs[t + 1]:
                # adjacent floats: the midpoint rounds up to the right
                # value, and x <= threshold would send every row left
                threshold = xs[t]
            best = (gain[k], int(f), threshold)
    return best


def _grow(x, y, w, rows, depth, spec: ForestSpec, rng, nodes) -> int:
    """Append the subtree on ``rows`` to ``nodes``, one [feature, threshold,
    left, right, value] per node, and return its root's index. The left
    subtree is grown first, so nodes draw their feature subsets in preorder."""
    node, sw = len(nodes), w[rows].sum()
    nodes.append([-1, 0.0, node, node, float((w[rows] * y[rows]).sum() / sw)])
    if depth >= spec.max_depth or sw < 2 * spec.min_leaf_weight:
        return node
    n_feat = x.shape[1]
    m = max(1, int(round(spec.feature_subsample * n_feat)))
    features = (range(n_feat) if spec.feature_subsample >= 1.0
                else np.sort(rng.choice(n_feat, size=m, replace=False)))
    best = _best_split(x, y, w, rows, features, spec.min_leaf_weight)
    if best is not None:
        _, feature, threshold = best
        go_left = x[rows, feature] <= threshold
        nodes[node][:4] = (feature, threshold,
                           _grow(x, y, w, rows[go_left], depth + 1, spec, rng, nodes),
                           _grow(x, y, w, rows[~go_left], depth + 1, spec, rng, nodes))
    return node


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
        nodes = []
        _grow(xt, yt, wt, np.arange(xt.shape[0]), 0, spec, rng, nodes)
        trees.append(Tree(*map(np.array, zip(*nodes))))
    return ForestModel(tuple(trees), x.shape[1])


def _tree_predict(tree: Tree, x: np.ndarray) -> np.ndarray:
    """Each row's leaf value; every row moves down one level per pass."""
    rows = np.arange(x.shape[0])
    node = np.zeros(x.shape[0], dtype=np.intp)
    while (tree.feature[node] >= 0).any():
        go_left = x[rows, tree.feature[node]] <= tree.threshold[node]
        node = np.where(go_left, tree.left[node], tree.right[node])
    return tree.value[node]


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

def _glorot(rng, fan_in, fan_out, shape):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _weighted_mean_square(resid, w) -> float:
    return float((w * resid * resid).sum() / w.sum())


def _mlp_forward(params, x):
    """Hidden activations and predictions of the network ``params`` on ``x``."""
    w_hidden, b_hidden, w_out, b_out = params
    hidden = x @ w_hidden
    hidden += b_hidden
    np.tanh(hidden, out=hidden)
    return hidden, hidden @ w_out + b_out


class _MlpStep:
    """A network held as one flat parameter vector ``theta``, and the weighted
    MSE and its gradient on one batch.

    ``theta`` holds the (p + 1) x h hidden weights, whose last row is the
    hidden bias, then the h output weights, then the output bias; ``grad``
    is laid out alike. A batch comes feature-major, (p + 1) x m with a last
    row of ones, so ``x1.T @ w1`` adds the hidden bias and ``x1 @ dhidden``
    gives its gradient. The activations, residuals and their gradients go
    into buffers of ``rows`` rows, allocated once.
    """

    def __init__(self, theta: np.ndarray, p: int, rows: int):
        h = (theta.shape[0] - 1) // (p + 2)
        k = (p + 1) * h
        self.theta, self.grad = theta, np.empty_like(theta)
        self.w1, self.w2 = theta[:k].reshape(p + 1, h), theta[k:-1]
        self.g1, self.g2 = self.grad[:k].reshape(p + 1, h), self.grad[k:-1]
        self.hidden, self.dhidden = np.empty((rows, h)), np.empty((rows, h))
        self.resid, self.dpred = np.empty(rows), np.empty(rows)

    @property
    def params(self):
        """(w_hidden, b_hidden, w_out, b_out), the arrays as views of ``theta``."""
        p = self.w1.shape[0] - 1
        return self.w1[:p], self.w1[p], self.w2, float(self.theta[-1])

    def gradient(self, x1: np.ndarray, y: np.ndarray, scale: np.ndarray):
        """``grad`` at ``theta`` of ``sum_k w_k (pred_k - y_k)^2 / sum_k w_k``
        over the batch ``x1``, given ``scale`` = 2 w / sum(w) for its rows;
        the MSE itself goes into ``loss``."""
        m = y.shape[0]
        hidden, dhidden = self.hidden[:m], self.dhidden[:m]
        resid, dpred = self.resid[:m], self.dpred[:m]
        np.matmul(x1.T, self.w1, out=hidden)
        np.tanh(hidden, out=hidden)
        np.matmul(hidden, self.w2, out=resid)
        resid += self.theta[-1]
        resid -= y
        np.multiply(resid, scale, out=dpred)
        self.loss = 0.5 * (dpred @ resid)
        np.matmul(hidden.T, dpred, out=self.g2)
        self.grad[-1] = dpred.sum()
        np.multiply(dpred[:, None], self.w2, out=dhidden)
        hidden *= hidden
        np.subtract(1.0, hidden, out=hidden)
        dhidden *= hidden
        np.matmul(x1, dhidden, out=self.g1)
        return self.grad


def fit_weighted_mlp(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                     spec: MlpSpec, seed: int) -> MlpModel:
    """Mini-batch gradient descent on the weighted MSE; seeded and deterministic.

    Zero-weight rows are dropped before batching, so the fit is identical to
    one on the surviving rows alone. Each epoch gathers the rows in a fresh
    random order once, feature-major with a row of ones, and steps on
    consecutive slices of it; each row's factor 2 w / sum(w) over its batch
    is formed once per epoch. A step writes the gradient of every parameter
    into one vector and applies it in one pass. The epoch loss is the running
    training loss, as scikit-learn's ``loss_curve_``: each batch's weighted
    MSE at the parameters it stepped from, weighted by the batch's share of
    the weight. Aborts if it exceeds 1e10 (``check_mlp_loss``). That loss
    misses the last steps' updates: the engine checks the returned model too.

    The gathered rows and the step's activations, residuals and gradients
    live in buffers allocated once per fit; ``x`` is read where it is, never
    copied whole.
    """
    x, y, w = _check_xyw(x, y, w)
    keep = w > 0
    if not keep.all():
        x, y, w = x[keep], y[keep], w[keep]
    n, p = x.shape
    h = spec.hidden_units
    lr, size = spec.learning_rate, spec.batch_size
    rng = np.random.default_rng(seed)
    step = _MlpStep(np.zeros((p + 2) * h + 1), p, min(n, size))
    step.w1[:p] = _glorot(rng, p, h, (p, h))
    step.w2[:] = _glorot(rng, h, 1, (h,))
    theta = step.theta
    starts = np.arange(0, n, size)
    counts = np.diff(starts, append=n)
    x1, yp, scale = np.empty((p + 1, n)), np.empty(n), np.empty(n)
    x1[p] = 1.0
    losses, total = np.empty(starts.shape[0]), w.sum()
    trace = []
    for _ in range(spec.epochs):
        perm = rng.permutation(n)
        # any mode but the default "raise" writes straight into ``out``
        for j in range(p):
            np.take(x[:, j], perm, out=x1[j], mode="clip")
        np.take(y, perm, out=yp, mode="clip")
        np.take(w, perm, out=scale, mode="clip")
        batch_sums = np.add.reduceat(scale, starts)
        scale *= 2.0
        scale /= np.repeat(batch_sums, counts)
        for b, start in enumerate(range(0, n, size)):
            stop = start + size
            grad = step.gradient(x1[:, start:stop], yp[start:stop],
                                 scale[start:stop])
            grad *= lr
            theta -= grad
            losses[b] = step.loss
        trace.append(check_mlp_loss(float(batch_sums @ losses / total),
                                    len(trace) + 1, spec))
    return MlpModel(*step.params, tuple(trace))


def check_mlp_loss(loss: float, epoch: int, spec: MlpSpec) -> float:
    """``loss``, the MLP's weighted MSE after ``epoch`` epochs; raises if it
    is not finite or exceeds ``DIVERGENCE_LIMIT``."""
    if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
        raise RuntimeError(f"MLP diverged at epoch {epoch}: loss={loss!r} "
                           f"(learning_rate={spec.learning_rate})")
    return loss


# ---------------------------------------------------------------------------
# Common surface
# ---------------------------------------------------------------------------

def fit_regressor(spec: RegressorSpec, x, y, w, seed: int | None):
    """Fit the model ``spec`` names; ``seed`` drives the forest and the MLP
    (ridge reads none)."""
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
    return sum(_tree_predict(tree, x) for tree in model.trees) / len(model.trees)


def weighted_mse(model, x, y, w) -> float:
    """sum_k w_k (pred_k - y_k)^2 / sum_k w_k for a fitted model."""
    x, y, w = _check_xyw(x, y, w)
    return _weighted_mean_square(predict(model, x) - y, w)
