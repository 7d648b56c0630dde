"""Round-robin imputation: mean-fill, then cycle through incomplete columns,
fitting a weighted conditional model per column on its observed rows and
overwriting the missing entries with its predictions, for a fixed number of
sweeps.

Each column step re-estimates the importance weights from the freshly
completed matrix (unless the run is unweighted, which is the identical code
path with unit weights), standardizes the predictor columns with statistics
of the rows where the target column is observed, fits on those rows, and
predicts the rest. Observed cells are never altered.

A step gathers its training and prediction rows in one pass, observed rows
first, and standardizes each predictor over the observed rows it just
gathered, and a weighted step the same block over all rows into the
propensity design, so no statistic of the completion is kept between steps.
A run refills one set of step arrays allocated at its start. A column's
first propensity fit runs the IRLS to convergence; each later step takes one
Newton step from the column's model of the previous sweep, and refits to
convergence only if that leaves a gradient above ``REFIT_GRADIENT``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .data import JsonRecord, MaskedDataset, require_finite, require_seed
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
# a warm step leaving a larger max-abs gradient is refit to convergence;
# warm steps on 8 default-grid seeds leave at most 2.1e-3 (6.1e-3 at n=400)
REFIT_GRADIENT = 1e-2


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
        self._check_scalars()
        require_seed("seed", self.seed)
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
    propensity_gradient: float | None  # max-abs gradient of the fit it used


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
    """A column-major (Fortran-order) copy of the data matrix with every
    missing cell set to its column's observed mean, the layout the engine's
    column steps read and write."""
    completed = np.array(ds.data.values, order="F")
    observed = ds.mask.observed
    for j in ds.missing_columns():
        column, col_obs = completed[:, j], observed[:, j]
        column[~col_obs] = column[col_obs].mean()
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


def _standardize(x: np.ndarray, n_stat: int, out: np.ndarray) -> None:
    """Each row of ``x`` into ``out``, less the mean and divided by the
    population std (1.0 where constant) of the row's first ``n_stat``
    entries; ``out`` may be ``x``."""
    np.subtract(x, x[:, :n_stat].mean(axis=1)[:, None], out=out)
    std = np.sqrt(np.array([r @ r for r in out[:, :n_stat]]) / n_stat)
    out /= np.where(std > 0, std, 1.0)[:, None]


class _Workspace:
    """Row sets and the column step's arrays, for one :func:`impute` call.

    ``rows[i]`` lists target ``i``'s observed rows, then its missing rows;
    ``obs_rows[i]`` and ``miss_rows[i]`` are its two parts. The regression
    predictors of target ``i`` are the columns ``others[i]``.

    The arrays are one allocation, refilled in place by every step and
    column-major like the completion: the raw predictor block and one
    predictor buffer that holds a target's rows in ``rows[i]`` order (one
    contiguous row per predictor, standardized over its observed part; a fit
    reads its observed-row and missing-row parts as transposed views). A
    weighted run adds the propensity design: the block standardized over
    every row, with a trailing column of ones.
    """

    def __init__(self, completed: np.ndarray, observed: np.ndarray, targets,
                 weighted: bool):
        n, d = completed.shape
        self.others = {i: np.delete(np.arange(d), i) for i in targets}
        self.rows, self.obs_rows, self.miss_rows = {}, {}, {}
        for i in targets:
            obs, miss = (np.flatnonzero(observed[:, i]),
                         np.flatnonzero(~observed[:, i]))
            self.rows[i] = rows = np.concatenate([obs, miss])
            self.obs_rows[i] = rows[:obs.shape[0]]
            self.miss_rows[i] = rows[obs.shape[0]:]
        # one allocation, not one per buffer: on the MLP path, separate
        # buffers measured slower than the per-step arrays they replace
        work = np.empty((3 * d - 2 if weighted else 2 * d - 2, n))
        self.block, self.gathered, design = np.split(work, [d - 1, 2 * d - 2])
        design[-1:] = 1.0  # the intercept column; no rows when unweighted
        self.design = design.T if weighted else None

    def fill_block(self, completed: np.ndarray, i: int) -> None:
        """The completed values of every column but ``i``, into the block."""
        # any mode but the default "raise" writes straight into ``out``
        np.take(completed.T, self.others[i], axis=0, out=self.block,
                mode="clip")

    def propensity_design(self) -> np.ndarray:
        """The filled block standardized over all rows, with the ones column."""
        _standardize(self.block, self.block.shape[1], self.design[:, :-1].T)
        return self.design

    def predictors(self, i: int):
        """The filled block's observed rows and missing rows, standardized
        over target ``i``'s observed rows: two parts of one gather, as
        transposed views."""
        x = np.take(self.block, self.rows[i], axis=1, out=self.gathered,
                    mode="clip")
        n_obs = self.obs_rows[i].shape[0]
        _standardize(x, n_obs, x)
        return x[:, :n_obs].T, x[:, n_obs:].T


def _column_step(values, observed, completed, i, cfg, sweep, workspace,
                 init=None):
    """One Algorithm-2 column update; mutates ``completed`` and ``workspace``.

    ``init`` is the column's propensity model from the previous sweep, if
    any, to take one Newton step from. Returns the step's diagnostics and
    the weights it fit with (None when unweighted), which carry this sweep's
    propensity model.
    """
    obs_rows, miss_rows = workspace.obs_rows[i], workspace.miss_rows[i]
    workspace.fill_block(completed, i)
    wv = propensity = None
    if cfg.weighted:
        args = workspace.propensity_design(), observed[:, i]
        options = dict(l2=cfg.propensity_l2, clip_epsilon=cfg.clip_epsilon)
        wv = weights_for_column(*args, **options, init=init,
                                max_iter=None if init is None else 1)
        if init is not None and wv.propensity.gradient > REFIT_GRADIENT:
            wv = weights_for_column(*args, **options, init=wv.propensity)
        weights, propensity = wv.weights, wv.propensity
    else:
        weights = np.ones(obs_rows.shape[0])
    x_train, x_miss = workspace.predictors(i)
    y_train = values[obs_rows, i]
    # ridge takes no seed, so none is derived for it
    seed = None if cfg.regressor.kind == "ridge" else _step_seed(cfg, sweep, i)
    model = fit_regressor(cfg.regressor, x_train, y_train, weights, seed)
    preds = predict(model, x_miss)
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
        propensity_gradient=None if propensity is None else propensity.gradient,
    )
    completed[miss_rows, i] = preds
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
    values, observed = ds.data.values, ds.mask.observed
    workspace = _Workspace(completed, observed, order, cfg.weighted)
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
                                        sweep, workspace, init)
            except Exception as exc:
                raise RuntimeError(
                    f"column {i} failed at sweep {sweep}: {exc}"
                ) from exc
            diags.append(diag)
            if wv is not None:
                weights[i] = wv
        per_sweep.append(IterationDiagnostics(sweep, tuple(diags)))
    return ImputationResult(completed, tuple(per_sweep), cfg, weights)
