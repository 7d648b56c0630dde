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
finite. Every weighted step runs the propensity IRLS from the column's
previous model (from zero in sweep 0) until its max-abs gradient is inside
the gradient's sampling noise. What a call builds once, and the buffers its
steps refill in place, are described at ``_Workspace``.
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

# the bytes one impute call may spend on per-target blocks beyond the first
# (see _Workspace)
BLOCK_BUDGET_BYTES = 64 * 2**20


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


def _row_sets(observed: np.ndarray, targets) -> dict:
    """Each target column's rows, its observed rows first, then its missing
    rows, as one index array, with its count of observed rows."""
    row_sets = {}
    for j, col_obs in zip(targets, observed.T[targets]):
        obs = np.flatnonzero(col_obs)
        rows = np.concatenate([obs, np.flatnonzero(~col_obs)])
        row_sets[j] = rows, obs.shape[0]
    return row_sets


def _mean_fill(completed: np.ndarray, row_sets) -> np.ndarray:
    """Set, in place, each target's missing cells to the mean of its
    observed cells: their sum, gathered by row index, over their count."""
    for j, (rows, n_obs) in row_sets.items():
        column = completed[:, j]
        obs = column.take(rows[:n_obs])
        column[rows[n_obs:]] = np.add.reduce(obs) / n_obs
    return completed


def initial_impute(ds: MaskedDataset) -> np.ndarray:
    """A column-major (Fortran-order) copy of the data matrix with every
    missing cell set to its column's observed mean, the layout the engine's
    column steps read and write (see :func:`_mean_fill`)."""
    completed = np.array(ds.data.values, order="F")
    return _mean_fill(completed,
                      _row_sets(ds.mask.observed, ds.missing_columns()))


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
    entries. Each numpy call covers every row: the squared norms are one
    stacked ``matmul``, with the bits of each row's ``r @ r``."""
    head = x[:, :n_stat]
    # the bits of .mean(axis=1), without its wrapper
    mean = np.add.reduce(head, axis=1)
    mean /= n_stat
    x -= mean[:, None]
    std = np.sqrt(np.matmul(head[:, None], head[:, :, None]).ravel() / n_stat)
    std[~(std > 0)] = 1.0
    x /= std[:, None]


class _Workspace:
    """Row sets, per-target constants and the column step's arrays, built
    once per :func:`impute` call.

    ``row_sets[i]`` is ``(rows[i], n_obs)``, which the call's mean fill also
    reads. ``rows[i]`` lists target ``i``'s observed rows, then its missing
    rows ``miss_rows[i]``; ``y_train[i]`` holds the target's values at its
    observed rows and ``labels[i]`` its observedness in ``rows[i]`` order
    (the observed rows' ones, then zeros). The regression predictors of
    target ``i`` are the columns ``others[i]``. ``unit[i]``, the target's
    read-only unit weights, and ``unit_ess[i]``, their effective sample
    size, exist in an unweighted run only.

    A target's arrays are one (d, n) block, column-major like the
    completion: the d - 1 rows of its predictor buffer, which holds the
    target's rows in ``rows[i]`` order (one contiguous row per predictor,
    standardized over its observed part; a fit reads its observed-row and
    missing-row parts as transposed views), then a row of ones. The block's
    transpose is the propensity design: the same standardized predictors
    with the trailing intercept column. Every view handed out is read-only,
    since only :meth:`predictors` writes a block.

    A row standardized alone keeps its bits, so a target that owns its
    block needs, from sweep 1 on, only its rows of the columns the run
    imputes refilled: the rows of the never-imputed columns still hold the
    same values. ``refills[i]`` lists those rows of its block and their
    columns (None for a target on a shared block); they are gathered into
    ``part`` and standardized there in one call, then copied into the block.
    With a fully observed column in the table and B =
    ``BLOCK_BUDGET_BYTES``, the call takes n_blocks = 1 + min(T - 1,
    B // (8 d n)) blocks of 8 d n bytes (T targets) and 8 (T - 1) n bytes
    for ``part``. Target k owns block k when k < n_blocks - 1, or when
    n_blocks = T; the remaining targets share the last block and refill it
    in full at every step. With no fully observed column there is nothing
    to keep: every target shares one block, and ``part`` is None.
    ``scratch``, in a weighted run, is one more (d, n) block in that
    layout: the Newton buffer of every propensity fit (None when
    unweighted).
    """

    def __init__(self, completed: np.ndarray, observed: np.ndarray, targets,
                 weighted: bool):
        n, d = completed.shape
        columns, positions = np.arange(d), np.arange(n)
        imputed = np.bincount(targets, minlength=d) > 0
        n_blocks, self.part = 1, None
        if not imputed.all():
            n_blocks += min(len(targets) - 1, BLOCK_BUDGET_BYTES // (8 * d * n))
            self.part = np.empty((len(targets) - 1, n))
        work = np.empty((n_blocks, d, n))
        work[:, -1] = 1.0  # the intercept column
        self.gathered = work[:, :-1]
        self.others, self.block, self.refills, self.views = {}, {}, {}, {}
        self.rows, self.miss_rows, self.y_train, self.labels = {}, {}, {}, {}
        self.unit, self.unit_ess = {}, {}
        self.row_sets = _row_sets(observed, targets)
        for k, i in enumerate(targets):
            rows, n_obs = self.row_sets[i]
            self.rows[i], self.miss_rows[i] = rows, rows[n_obs:]
            # observed cells of the completion are the data's own values
            self.y_train[i] = completed[:, i].take(rows[:n_obs])
            self.labels[i] = positions < n_obs
            if not weighted:
                self.unit[i] = unit = np.ones(n_obs)
                unit.flags.writeable = False
                self.unit_ess[i] = effective_sample_size(unit)
            others = columns[columns != i]
            self.others[i] = others.tolist()
            self.block[i] = b = min(k, n_blocks - 1)
            own = k < n_blocks - 1 or n_blocks == len(targets)
            refill = np.flatnonzero(imputed[others])
            self.refills[i] = (refill, others[refill].tolist()) if own else None
            x = work[b]
            views = x[:-1, :n_obs].T, x[:-1, n_obs:].T, x.T
            for view in views:
                view.flags.writeable = False
            self.views[i] = views
        self.scratch = np.empty((d, n)) if weighted else None

    def predictors(self, completed: np.ndarray, i: int, sweep: int):
        """Target ``i``'s training predictors, prediction predictors and
        propensity design at ``sweep``, read-only views of its block after
        refilling it from the completion: every other column at ``rows[i]``,
        standardized over its observed part. A target that owns its block
        refills only the rows of imputed columns from sweep 1 on."""
        rows, x = self.rows[i], self.gathered[self.block[i]]
        if sweep and self.refills[i] is not None:
            refill, columns = self.refills[i]
            part = self.part[:refill.size]
        else:
            refill, columns, part = slice(None), self.others[i], x
        for j, row in zip(columns, part):
            # any mode but the default "raise" writes straight into ``out``
            completed[:, j].take(rows, out=row, mode="clip")
        _standardize(part, self.y_train[i].shape[0])
        if part is not x:
            x[refill] = part
        return self.views[i]


def _column_step(completed, i, cfg, sweep, workspace, init=None):
    """One Algorithm-2 column update; mutates ``completed`` and ``workspace``.

    ``init``, the column's propensity model from the previous sweep if any,
    starts the fit. Returns the step's diagnostics and the weights it fit
    with (None when unweighted), which carry this sweep's propensity model.
    """
    miss_rows, y_train = workspace.miss_rows[i], workspace.y_train[i]
    target = completed[:, i]  # a 1-D view: the column is contiguous
    x_train, x_miss, design = workspace.predictors(completed, i, sweep)
    wv = propensity = None
    if cfg.weighted:
        wv = weights_for_column(design, workspace.labels[i],
                                l2=cfg.propensity_l2,
                                clip_epsilon=cfg.clip_epsilon, init=init,
                                scratch=workspace.scratch)
        weights, propensity = wv.weights, wv.propensity
        ess = effective_sample_size(weights)
    else:
        weights, ess = workspace.unit[i], workspace.unit_ess[i]
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
    update = np.abs(target.take(miss_rows) - preds)
    diag = ColumnDiagnostics(
        column=int(i),
        train_weighted_mse=train_mse,
        # the bits of np.mean, without its wrapper
        mean_abs_update=float(np.add.reduce(update) / update.shape[0]),
        effective_sample_size=ess,
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
    data a Fortran-order copy of the input comes back, as every completion
    is, and no sweeps are recorded.
    """
    completed = np.array(ds.data.values, order="F")
    if not ds.missing_columns():
        return ImputationResult(completed, ())
    order = visitation_order(ds, cfg.visitation)
    workspace = _Workspace(completed, ds.mask.observed, order, cfg.weighted)
    # the start is initial_impute's, from the workspace's row sets
    _mean_fill(completed, workspace.row_sets)
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
