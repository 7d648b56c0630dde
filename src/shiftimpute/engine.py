"""Round-robin imputation: mean-fill, then cycle through incomplete columns,
fitting a weighted conditional model per column on its observed rows and
overwriting the missing entries with its predictions, for a fixed number of
sweeps.

Each column step standardizes the other columns of the freshly completed
matrix with statistics of the rows where the target column is observed,
re-estimates the importance weights from them (unless the run is
unweighted, which is the identical code path with unit weights), fits on
those rows, and predicts the rest. Observed cells are never altered, and a
step whose predictions are not all finite fails, so a completion is always
finite.

A step gathers every other column at its rows, observed rows first, into
one buffer and standardizes it in place over the observed rows, once: the
regression reads its two parts and a weighted step's propensity fit reads
the whole buffer with its trailing ones row, so no statistic of the
completion is kept between steps. A run refills one set of step arrays
allocated at its start; a weighted run's include the propensity fit's
Newton scratch, a d x n buffer every IRLS step of every fit writes its
scaled transpose into, and an unweighted run, which fits no propensity,
allocates none. Every weighted step runs the propensity IRLS from the
column's previous model (from zero in sweep 0) until its max-abs gradient
is inside the gradient's sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (JsonRecord, MaskedDataset, derive_seed, require_finite,
                   require_seed)
from .propensity import (DEFAULT_CLIP, DEFAULT_L2, WeightVector,
                         effective_sample_size, weights_for_column)
from .regressors import (RegressorSpec, check_mlp_loss, fit_regressor,
                         predict, weighted_mse)

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
        self._coerce_fields()
        require_seed("seed", self.seed)
        if self.n_sweeps < 1:
            raise ValueError("n_sweeps must be >= 1")
        if not 0.0 < self.clip_epsilon < 0.5:
            raise ValueError(
                f"clip_epsilon must be in (0, 0.5), got {self.clip_epsilon!r}")
        require_finite("propensity_l2", self.propensity_l2, positive=False)
        if isinstance(self.visitation, str) and self.visitation != ASCENDING_MISSING:
            raise ValueError(f"unknown visitation policy {self.visitation!r}")


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


def _standardize(x: np.ndarray, n_stat: int) -> None:
    """Each row of ``x``, in place, less the mean and divided by the
    population std (1.0 where constant) of the row's first ``n_stat``
    entries."""
    # the bits of .mean(axis=1), without its wrapper
    mean = np.add.reduce(x[:, :n_stat], axis=1)
    mean /= n_stat
    x -= mean[:, None]
    std = np.sqrt(np.array([r @ r for r in x[:, :n_stat]]) / n_stat)
    std[~(std > 0)] = 1.0
    x /= std[:, None]


class _Workspace:
    """Row sets and the column step's arrays, for one :func:`impute` call.

    ``rows[i]`` lists target ``i``'s observed rows, then its missing rows
    ``miss_rows[i]``; ``y_train[i]`` holds the target's values at its
    observed rows and ``labels[i]`` its observedness in ``rows[i]`` order
    (the observed rows' ones, then zeros). The regression predictors of
    target ``i`` are the columns ``others[i]``.

    The arrays are one (d, n) block, refilled in place by every step and
    column-major like the completion: the d - 1 rows of the predictor buffer,
    which holds a target's rows in ``rows[i]`` order (one contiguous row per
    predictor, standardized over its observed part; a fit reads its
    observed-row and missing-row parts as transposed views), then a row of
    ones. Its transpose ``design`` is the propensity design: the same
    standardized predictors with the trailing intercept column. ``scratch``,
    in a weighted run, is a second (d, n) block in that layout: the Newton
    buffer of every propensity fit (None when unweighted).
    """

    def __init__(self, completed: np.ndarray, observed: np.ndarray, targets,
                 weighted: bool):
        n, d = completed.shape
        self.others = {i: np.delete(np.arange(d), i) for i in targets}
        self.rows, self.miss_rows, self.y_train, self.labels = {}, {}, {}, {}
        for i in targets:
            obs, miss = (np.flatnonzero(observed[:, i]),
                         np.flatnonzero(~observed[:, i]))
            self.rows[i] = rows = np.concatenate([obs, miss])
            self.miss_rows[i] = rows[obs.shape[0]:]
            # observed cells of the completion are the data's own values
            self.y_train[i] = completed[obs, i]
            self.labels[i] = np.arange(n) < obs.shape[0]
        work = np.empty((d, n))
        work[-1] = 1.0  # the intercept column
        self.gathered, self.design = work[:-1], work.T
        self.scratch = np.empty((d, n)) if weighted else None

    def gather(self, completed: np.ndarray, i: int) -> None:
        """Every column but ``i`` of the completion, at ``rows[i]``, into the
        predictor buffer: one contiguous row per predictor."""
        rows = self.rows[i]
        for j, row in zip(self.others[i], self.gathered):
            # any mode but the default "raise" writes straight into ``out``
            np.take(completed[:, j], rows, out=row, mode="clip")

    def predictors(self, i: int):
        """The gathered observed rows and missing rows, standardized in place
        over target ``i``'s observed rows: two parts of one buffer, as
        transposed views."""
        x = self.gathered
        n_obs = self.y_train[i].shape[0]
        _standardize(x, n_obs)
        return x[:, :n_obs].T, x[:, n_obs:].T


def _column_step(completed, i, cfg, sweep, workspace, init=None):
    """One Algorithm-2 column update; mutates ``completed`` and ``workspace``.

    ``init``, the column's propensity model from the previous sweep if any,
    starts the fit. Returns the step's diagnostics and the weights it fit
    with (None when unweighted), which carry this sweep's propensity model.
    """
    miss_rows, y_train = workspace.miss_rows[i], workspace.y_train[i]
    target = completed[:, i]  # a 1-D view: the column is contiguous
    workspace.gather(completed, i)
    x_train, x_miss = workspace.predictors(i)
    wv = propensity = None
    if cfg.weighted:
        wv = weights_for_column(workspace.design, workspace.labels[i],
                                l2=cfg.propensity_l2,
                                clip_epsilon=cfg.clip_epsilon, init=init,
                                scratch=workspace.scratch)
        weights, propensity = wv.weights, wv.propensity
    else:
        weights = np.ones(y_train.shape[0])
    # ridge takes no seed, so none is derived for it
    seed = (None if cfg.regressor.kind == "ridge"
            else derive_seed(cfg.seed, sweep, i))
    model = fit_regressor(cfg.regressor, x_train, y_train, weights, seed)
    train_mse = weighted_mse(model, x_train, y_train, weights)
    if cfg.regressor.kind == "mlp":  # the fit's running loss misses its last steps
        check_mlp_loss(train_mse, cfg.regressor.mlp.epochs, cfg.regressor.mlp)
    preds = predict(model, x_miss)
    finite = np.isfinite(preds)
    if not finite.all():
        raise ValueError(f"non-finite imputation at row {miss_rows[np.argmin(finite)]}")
    diag = ColumnDiagnostics(
        column=int(i),
        train_weighted_mse=train_mse,
        mean_abs_update=float(np.mean(np.abs(target[miss_rows] - preds))),
        effective_sample_size=effective_sample_size(weights),
        propensity_n_iter=0 if propensity is None else propensity.n_iter,
        propensity_converged=None if propensity is None else propensity.converged,
        propensity_gradient=None if propensity is None else propensity.gradient,
    )
    target[miss_rows] = preds
    return diag, wv


def impute(ds: MaskedDataset, cfg: ImputationConfig) -> ImputationResult:
    """Run the full round-robin loop for ``cfg.n_sweeps`` sweeps.

    Starts from a fresh mean imputation, visits the incomplete columns in the
    configured order, and is deterministic given (ds, cfg). With no missing
    data the input comes back unchanged and no sweeps are recorded.
    """
    if not ds.missing_columns():
        return ImputationResult(ds.data.values.copy(), ())
    order = visitation_order(ds, cfg.visitation)
    completed = initial_impute(ds)
    workspace = _Workspace(completed, ds.mask.observed, order, cfg.weighted)
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
                diag, wv = _column_step(completed, i, cfg, sweep, workspace,
                                        init)
            except Exception as exc:
                raise RuntimeError(
                    f"column {i} failed at sweep {sweep}: {exc}"
                ) from exc
            diags.append(diag)
            if wv is not None:
                weights[i] = wv
        per_sweep.append(IterationDiagnostics(sweep, tuple(diags)))
    return ImputationResult(completed, tuple(per_sweep), weights)
