"""Round-robin imputation: mean-fill, then cycle through incomplete columns,
fitting a weighted conditional model per column on its observed rows and
overwriting the missing entries with its predictions, for a fixed number of
sweeps.

Each column step re-estimates the importance weights from the freshly
completed matrix (unless the run is unweighted, which is the identical code
path with unit weights), standardizes the predictor columns with statistics
of the rows where the target column is observed, fits on those rows, and
predicts the rest. Observed cells are never altered.

A run keeps the column means and scales both standardizations need in step
with the completion (a column step changes one column, so only its entries
are recomputed), starts each column's propensity fit from that column's
fit in the previous sweep, and refills one set of step arrays allocated at
its start instead of allocating them at every step.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .data import JsonRecord, MaskedDataset, require_finite
from .propensity import (DEFAULT_CLIP, DEFAULT_L2, WeightVector,
                         effective_sample_size, weights_for_column)
from .regressors import (MlpModel, RegressorSpec, fit_regressor, predict,
                         weighted_mse)

__all__ = [
    "ImputationConfig",
    "ColumnDiagnostics",
    "IterationDiagnostics",
    "ImputationResult",
    "initial_impute",
    "visitation_order",
    "impute",
]

ASCENDING_MISSING = "ascending_missing_count"


@dataclass(frozen=True)
class ImputationConfig(JsonRecord):
    """Everything one imputation run depends on."""

    regressor: RegressorSpec = field(default_factory=RegressorSpec)
    weighted: bool = True
    n_sweeps: int = 5
    visitation: str | tuple[int, ...] = ASCENDING_MISSING
    clip_epsilon: float = DEFAULT_CLIP
    propensity_l2: float = DEFAULT_L2
    seed: int = 0

    def __post_init__(self):
        if self.n_sweeps < 1:
            raise ValueError("n_sweeps must be >= 1")
        if not 0.0 < self.clip_epsilon < 0.5:
            raise ValueError(
                f"clip_epsilon must be in (0, 0.5), got {self.clip_epsilon!r}")
        require_finite("propensity_l2", self.propensity_l2, positive=False)
        if isinstance(self.visitation, str):
            if self.visitation != ASCENDING_MISSING:
                raise ValueError(f"unknown visitation policy {self.visitation!r}")
        else:
            object.__setattr__(self, "visitation",
                               tuple(map(operator.index, self.visitation)))


@dataclass(frozen=True)
class ColumnDiagnostics(JsonRecord):
    column: int
    train_weighted_mse: float
    mean_abs_update: float
    effective_sample_size: float
    propensity_n_iter: int          # 0 when no propensity model was fit
    propensity_converged: bool | None


@dataclass(frozen=True)
class IterationDiagnostics(JsonRecord):
    sweep: int
    columns: tuple[ColumnDiagnostics, ...]


@dataclass(frozen=True)
class ImputationResult:
    """The completion, per-sweep diagnostics, and the weights of the last
    sweep per column with the propensity model they came from (empty when
    the run is unweighted)."""

    completed: np.ndarray
    per_sweep: tuple[IterationDiagnostics, ...]
    config: ImputationConfig
    weights: dict[int, WeightVector] = field(default_factory=dict)


def initial_impute(ds: MaskedDataset) -> np.ndarray:
    """A copy of the data matrix with every missing cell set to its column's
    observed mean."""
    completed = ds.data.values.copy()
    obs = ds.mask.observed
    for j in ds.missing_columns():
        col_obs = obs[:, j]
        completed[~col_obs, j] = ds.data.values[col_obs, j].mean()
    return completed


def visitation_order(ds: MaskedDataset, policy) -> list[int]:
    """Resolve the column visitation order over the imputable columns.

    The policy is :attr:`ImputationConfig.visitation`, checked there: the
    default sorts by ascending missing count with ties broken by column
    index; an explicit order must be a permutation of the imputable columns.
    """
    imputable = ds.missing_columns()
    if not imputable:
        raise ValueError("no columns with missing entries")
    if isinstance(policy, str):
        return sorted(imputable, key=lambda j: (ds.mask.missing_count(j), j))
    order = list(policy)
    if sorted(order) != sorted(imputable):
        raise ValueError(
            f"visitation order {order} is not a permutation of the imputable "
            f"columns {imputable}"
        )
    return order


def _step_seed(cfg: ImputationConfig, sweep: int, column: int) -> int:
    state = np.random.SeedSequence([cfg.seed, sweep, column]).generate_state(2)
    return int(state[0]) ^ (int(state[1]) << 32)


def _mean_scale(values: np.ndarray):
    """Mean and division-safe population std (1.0 where constant) of a vector."""
    mean = values.mean()
    dev = values - mean
    std = np.sqrt(dev @ dev / values.size)
    return mean, std if std > 0 else 1.0


class _Scalings:
    """Per-column (mean, scale) of the current completion, row sets, and the
    column step's workspace.

    ``all_rows`` standardizes the propensity design (statistics over every
    row); ``by_target[i]`` standardizes the regression predictors of target
    ``i`` (statistics over the rows where ``i`` is observed). After a step
    overwrites column ``k``, :meth:`refresh` recomputes column ``k``'s
    entries and nothing else.

    The workspace is one allocation per :func:`impute` call, refilled in
    place by every step: the raw predictor block, one observed-row and one
    missing-row predictor buffer, each sized to the largest row set, and
    the propensity design with its trailing column of ones (weighted runs
    only). BLAS rounding depends on memory order, so a buffer that a fit or
    prediction reads has the layout numpy gives the expression it replaces:
    the design that of ``np.hstack([completed[:, others], ones])`` (Fortran
    order from three columns on, C order with two), the row buffers that of
    a row gather (C order). The raw block feeds only element-wise copies and
    arithmetic; C order lets ``np.take`` fill it and gather rows from it
    without a hidden copy.
    """

    def __init__(self, completed: np.ndarray, observed: np.ndarray, targets,
                 weighted: bool):
        n, d = completed.shape
        self.others = {i: np.delete(np.arange(d), i) for i in targets}
        self.obs_rows = {i: np.flatnonzero(observed[:, i]) for i in targets}
        self.miss_rows = {i: np.flatnonzero(~observed[:, i]) for i in targets}
        self.all_rows = (np.empty(d), np.empty(d))
        self.by_target = {i: (np.empty(d), np.empty(d)) for i in targets}
        for k in range(d):
            self.refresh(completed, k)
        n_obs = max(rows.shape[0] for rows in self.obs_rows.values())
        n_miss = max(rows.shape[0] for rows in self.miss_rows.values())
        # one allocation, not one per buffer: on the MLP path, separate
        # buffers measured slower than the per-step arrays they replace
        sizes = [n * (d - 1), n_obs * (d - 1), n_miss * (d - 1),
                 n * d if weighted else 0]
        block, train, miss, design = np.split(np.empty(sum(sizes)),
                                              np.cumsum(sizes)[:-1])
        self.block = block.reshape(n, d - 1)
        self.train = train.reshape(n_obs, d - 1)
        self.miss = miss.reshape(n_miss, d - 1)
        self.design = None
        if weighted:
            # numpy's layout for the expression, which the row count leaves alone
            others = self.others[targets[0]]
            probe = np.hstack([completed[:2, others], np.ones((min(n, 2), 1))])
            fortran = probe.flags.f_contiguous and not probe.flags.c_contiguous
            self.design = design.reshape((n, d), order="F" if fortran else "C")
            self.design[:, -1] = 1.0

    def refresh(self, completed: np.ndarray, k: int) -> None:
        column = completed[:, k]
        mean, scale = self.all_rows
        mean[k], scale[k] = _mean_scale(column)
        for i, rows in self.obs_rows.items():
            mean, scale = self.by_target[i]
            mean[k], scale[k] = _mean_scale(column[rows])

    def fill_block(self, completed: np.ndarray, i: int) -> None:
        """The completed values of every column but ``i``, into the block."""
        # any mode but the default "raise" writes straight into ``out``
        np.take(completed, self.others[i], axis=1, out=self.block, mode="clip")

    def propensity_design(self, i: int) -> np.ndarray:
        """The filled block standardized over all rows, with the ones column."""
        x = self.design[:, :-1]
        np.copyto(x, self.block)
        _standardize(x, self.all_rows, self.others[i])
        return self.design

    def predictors(self, i: int, rows: np.ndarray, buffer: np.ndarray):
        """The filled block's ``rows``, standardized for target ``i``."""
        x = np.take(self.block, rows, axis=0, out=buffer[:rows.shape[0]],
                    mode="clip")
        return _standardize(x, self.by_target[i], self.others[i])


def _standardize(x: np.ndarray, stats, cols: np.ndarray) -> np.ndarray:
    """Standardize ``x`` in place with the statistics of columns ``cols``."""
    mean, scale = stats
    x -= mean[cols]
    x /= scale[cols]
    return x


def _column_step(values, observed, completed, i, cfg, sweep, scalings,
                 init=None):
    """One Algorithm-2 column update; mutates ``completed`` and ``scalings``.

    ``init`` is the column's propensity model from the previous sweep, if
    any. Returns the step's diagnostics and the weights it fit with (None
    when unweighted), which carry this sweep's propensity model.
    """
    obs_rows, miss_rows = scalings.obs_rows[i], scalings.miss_rows[i]
    scalings.fill_block(completed, i)
    wv = propensity = None
    if cfg.weighted:
        wv = weights_for_column(
            scalings.propensity_design(i), observed[:, i],
            l2=cfg.propensity_l2, clip_epsilon=cfg.clip_epsilon, init=init,
        )
        weights, propensity = wv.weights, wv.propensity
    else:
        weights = np.ones(obs_rows.shape[0])
    x_train = scalings.predictors(i, obs_rows, scalings.train)
    y_train = values[obs_rows, i]
    model = fit_regressor(cfg.regressor, x_train, y_train, weights,
                          _step_seed(cfg, sweep, i))
    preds = predict(model, scalings.predictors(i, miss_rows, scalings.miss))
    if isinstance(model, MlpModel) and (weights > 0).all():
        # the fit's last epoch loss is this MSE, over the same rows
        train_mse = model.loss_trace[-1]
    else:
        train_mse = weighted_mse(model, x_train, y_train, weights)
    diag = ColumnDiagnostics(
        column=int(i),
        train_weighted_mse=train_mse,
        mean_abs_update=float(np.mean(np.abs(completed[miss_rows, i] - preds))),
        effective_sample_size=effective_sample_size(weights),
        propensity_n_iter=0 if propensity is None else propensity.n_iter,
        propensity_converged=None if propensity is None else propensity.converged,
    )
    completed[miss_rows, i] = preds
    scalings.refresh(completed, i)
    return diag, wv


def impute(ds: MaskedDataset, cfg: ImputationConfig) -> ImputationResult:
    """Run the full round-robin loop for ``cfg.n_sweeps`` sweeps.

    Starts from a fresh mean imputation, visits the incomplete columns in the
    configured order, and is deterministic given (ds, cfg). With no missing
    data the input comes back unchanged and no sweeps are recorded.
    """
    if not ds.missing_columns():
        return ImputationResult(ds.data.values.copy(), (), cfg)
    order = visitation_order(ds, cfg.visitation)
    completed = initial_impute(ds)
    values = ds.data.values
    observed = ds.mask.observed
    scalings = _Scalings(completed, observed, order, cfg.weighted)
    # each column's weights from the previous sweep, whose propensity model
    # warm-starts the next fit; local to this call so results never depend
    # on what ran before
    weights = {}
    per_sweep = []
    for sweep in range(cfg.n_sweeps):
        diags = []
        for i in order:
            init = weights[i].propensity if i in weights else None
            try:
                diag, wv = _column_step(values, observed, completed, i, cfg,
                                        sweep, scalings, init)
            except Exception as exc:
                raise RuntimeError(
                    f"column {i} failed at sweep {sweep}: {exc}"
                ) from exc
            diags.append(diag)
            if wv is not None:
                weights[i] = wv
        per_sweep.append(IterationDiagnostics(sweep, tuple(diags)))
    return ImputationResult(completed, tuple(per_sweep), cfg, weights)
