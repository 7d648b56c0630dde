"""Plant MAR/MCAR missingness into a complete dataset.

A cell in a planted column goes missing with probability
``1 - sigmoid(alpha * sum of its standardized predictor columns + intercept)``,
where the per-column intercept is calibrated so the expected missing rate
hits a target: safeguarded Newton steps inside the bracket [-50, 50], about
5.5 evaluations of the rate per column on the default grid, the bracket check
included. ``alpha = 0`` reduces exactly to MCAR at the target rate.

Predictor columns are standardized before the score is computed so that a
given ``alpha`` means the same shift strength on any dataset.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import (DataMatrix, JsonRecord, MaskMatrix, MaskedDataset,
                   require_seed)

__all__ = [
    "MarSpec",
    "CalibratedMechanism",
    "sigmoid",
    "calibrate_intercept",
    "apply_mar_mask",
    "check_layout",
    "select_random_spec",
]

PROB_FLOOR = 1e-12  # observation probabilities are kept strictly inside (0, 1)
CALIBRATION_TOL = 1e-6  # the Newton solve stops once the missing rate is this close
CALIBRATION_MAX_ITER = 200
MISSING_RATE_RANGE = (0.01, 0.99)  # open interval of calibratable target rates
MAX_MISSING_COLS = 4
MAX_PREDICTORS = 4


@dataclass(frozen=True)
class MarSpec(JsonRecord):
    """Which columns go missing, what drives them, and how strongly.

    ``predictor_sets[k]`` lists the fully observed columns whose (standardized)
    sum drives missingness in ``missing_cols[k]``. Predictor sets must be
    disjoint from the missing columns so predictors stay fully observed.
    """

    missing_cols: tuple[int, ...]
    predictor_sets: tuple[tuple[int, ...], ...]
    alpha: float
    target_missing_rate: float
    seed: int

    def __post_init__(self):
        self._coerce_fields()
        require_seed("seed", self.seed)
        if not self.missing_cols:
            raise ValueError("missing_cols is empty")
        if len(self.missing_cols) != len(set(self.missing_cols)):
            raise ValueError("duplicate missing columns")
        if len(self.predictor_sets) != len(self.missing_cols):
            raise ValueError("one predictor set per missing column required")
        missing = set(self.missing_cols)
        for cols in self.predictor_sets:
            if missing & set(cols):
                raise ValueError("predictor sets must not intersect missing columns")
        if not 0.0 < self.target_missing_rate < 1.0:
            raise ValueError("target_missing_rate must be in (0, 1)")


@dataclass(frozen=True)
class CalibratedMechanism:
    """A spec plus its calibrated intercepts and per-cell observation probabilities.

    ``probabilities[:, k]`` is p(observed) for every row of ``missing_cols[k]``;
    all entries are strictly inside (0, 1) and the mean missing probability of
    each planted column matches the target rate to calibration tolerance.
    """

    spec: MarSpec
    intercepts: tuple[float, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "intercepts", tuple(self.intercepts))
        if probs.shape[1] != len(self.spec.missing_cols):
            raise ValueError("one probability column per missing column required")
        if (probs <= 0).any() or (probs >= 1).any():
            raise ValueError("observation probabilities must lie strictly in (0, 1)")
        achieved = 1.0 - probs.mean(axis=0)
        if np.max(np.abs(achieved - self.spec.target_missing_rate)) > 2e-4:
            raise ValueError(
                f"expected missing rates {achieved} stray from target "
                f"{self.spec.target_missing_rate}"
            )

    def true_weight_ratios(self, k: int) -> np.ndarray:
        """Mechanism odds (1 - p)/p for planted column k, one entry per row."""
        p = self.probabilities[:, k]
        return (1.0 - p) / p

    def to_dict(self) -> dict:
        return {"spec": self.spec.to_dict(), "intercepts": list(self.intercepts)}

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)


def sigmoid(z, *, e=None):
    """Numerically stable logistic function, elementwise.

    ``e`` is ``exp(-|z|)``, for a caller that has it already; it is computed
    when not given.
    """
    z = np.asarray(z, dtype=float)
    if e is None:
        # exp(-|z|) never overflows; each branch is the usual formula for its sign
        e = np.exp(-np.abs(z))
    # the branches share the denominator 1 + e: one sum and one division
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    if out.ndim == 0:
        return float(out)
    return out


def calibrate_intercept(scores: np.ndarray, target_rate: float,
                        out: np.ndarray | None = None) -> float:
    """Find the intercept making mean(1 - sigmoid(scores + b)) hit target_rate.

    The rate gap falls strictly in the intercept, with slope -mean(p(1 - p)).
    Raises if [-50, 50] does not bracket the target (pathological scores)
    rather than clamping silently. Newton steps start from the intercept that
    is exact for constant scores; a step that would leave the bracket of the
    evaluated intercepts bisects it instead. Returns the first intercept whose
    gap is within ``CALIBRATION_TOL``, or the next iterate after
    ``CALIBRATION_MAX_ITER`` evaluations. ``out``, when given, receives
    ``sigmoid(scores + b)`` at the returned ``b``.
    """
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    low, high = MISSING_RATE_RANGE
    if not low < target_rate < high:
        raise ValueError(f"target_rate must be in ({low}, {high})")

    def gap(b):
        p = sigmoid(scores + b)
        return float(np.mean(1.0 - p)) - target_rate, p

    lo, hi = -50.0, 50.0
    g_lo, g_hi = gap(lo)[0], gap(hi)[0]
    if g_lo < 0 or g_hi > 0:
        raise ValueError(
            f"cannot bracket target rate {target_rate} over [-50, 50]; "
            f"rate({lo})={g_lo + target_rate:.4g}, "
            f"rate({hi})={g_hi + target_rate:.4g}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # scores near float max
        b = math.log((1.0 - target_rate) / target_rate) - float(np.mean(scores))
    b = b if lo < b < hi else 0.0
    for _ in range(CALIBRATION_MAX_ITER):
        g, p = gap(b)
        if abs(g) <= CALIBRATION_TOL:
            break
        if g > 0:
            lo = b
        else:
            hi = b
        slope = float(np.mean(p * (1.0 - p)))
        step = b + g / slope if slope > 0 else math.nan
        b = step if lo < step < hi else 0.5 * (lo + hi)
    else:  # out of iterations: the next iterate, not evaluated
        p = None
    if out is not None:
        out[:] = sigmoid(scores + b) if p is None else p
    return b


def _column_scores(data: DataMatrix, spec: MarSpec) -> np.ndarray:
    """alpha * (standardized predictor sum) per row, one column per planted column.

    Columns are standardized with the whole table's statistics, but only the
    predictor columns are: gathered once, then ``(v - mean) / scale``
    elementwise, the same bits as standardizing the whole table.
    """
    v = data.values
    mean = v.mean(axis=0)
    std = v.std(axis=0)
    scale = np.where(std > 0, std, 1.0)  # constant -> 0
    used = sorted({c for cols in spec.predictor_sets for c in cols})
    scaled = (v[:, used] - mean[used]) / scale[used]
    scores = np.zeros((data.n_rows, len(spec.missing_cols)))
    for k, cols in enumerate(spec.predictor_sets):
        if cols:
            picked = np.searchsorted(used, cols)
            scores[:, k] = spec.alpha * scaled[:, picked].sum(axis=1)
        elif spec.alpha != 0.0:
            raise ValueError(
                f"missing column {spec.missing_cols[k]} has no predictors but alpha != 0"
            )
    return scores


def _draw_mask(probabilities: np.ndarray, spec: MarSpec, n_rows: int, d: int,
               seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    observed = np.ones((n_rows, d), dtype=bool)
    for k, col in enumerate(spec.missing_cols):
        observed[:, col] = rng.random(n_rows) < probabilities[:, k]
    return observed


def apply_mar_mask(data: DataMatrix, spec: MarSpec):
    """Plant missingness per a MarSpec; returns (MaskedDataset, CalibratedMechanism).

    Cells are masked by independent Bernoulli draws, deterministic given
    ``spec.seed``. If a planted column comes out fully missing or fully
    observed, the mask is redrawn once with seed+1 before giving up with a
    ValueError.
    """
    for col in spec.missing_cols:
        if not 0 <= col < data.n_cols:
            raise ValueError(f"missing column {col} out of range")
    for cols in spec.predictor_sets:
        for col in cols:
            if not 0 <= col < data.n_cols:
                raise ValueError(f"predictor column {col} out of range")

    scores = _column_scores(data, spec)
    intercepts = []
    probabilities = np.empty_like(scores)
    for k in range(scores.shape[1]):
        intercepts.append(calibrate_intercept(
            scores[:, k], spec.target_missing_rate, out=probabilities[:, k]))
    probabilities = np.clip(probabilities, PROB_FLOOR, 1.0 - PROB_FLOOR)
    mechanism = CalibratedMechanism(spec, tuple(intercepts), probabilities)

    for seed in (spec.seed, spec.seed + 1):
        observed = _draw_mask(probabilities, spec, data.n_rows, data.n_cols, seed)
        degenerate = [c for c in spec.missing_cols
                      if observed[:, c].all() or not observed[:, c].any()]
        if not degenerate:
            return MaskedDataset(data, MaskMatrix(observed)), mechanism
    raise ValueError(
        f"degenerate mask for columns {degenerate} after one resample; "
        "lower the rate or increase n"
    )


def check_layout(n_missing_cols: int, n_predictors: int,
                 d: int | None = None) -> None:
    """Reject a layout :func:`select_random_spec` cannot draw on a table of
    ``d`` columns; with no ``d``, only the counts' ranges are checked."""
    if not 1 <= n_missing_cols <= MAX_MISSING_COLS:
        raise ValueError(f"n_missing_cols must be in 1..{MAX_MISSING_COLS}")
    if not 1 <= n_predictors <= MAX_PREDICTORS:
        raise ValueError(f"n_predictors must be in 1..{MAX_PREDICTORS}")
    if d is None:
        return
    if d <= n_missing_cols:
        raise ValueError(f"d={d} too small for {n_missing_cols} missing columns")
    if d - n_missing_cols < n_predictors:
        raise ValueError(
            f"d={d} leaves fewer than {n_predictors} predictor candidates"
        )


def select_random_spec(data: DataMatrix, n_missing_cols: int, n_predictors: int,
                       seed: int, alpha: float = 0.0,
                       target_missing_rate: float = 0.3) -> MarSpec:
    """Draw a random MAR spec: which columns go missing and what drives them.

    Missing columns are sampled uniformly without replacement; each then gets
    ``n_predictors`` predictors drawn from the complement of the whole missing
    set, so predictor columns stay fully observed.
    """
    d = data.n_cols
    check_layout(n_missing_cols, n_predictors, d)
    rng = np.random.default_rng(seed)
    missing = np.sort(rng.choice(d, size=n_missing_cols, replace=False))
    pool = np.setdiff1d(np.arange(d), missing)
    predictor_sets = tuple(
        tuple(int(c) for c in np.sort(rng.choice(pool, size=n_predictors, replace=False)))
        for _ in missing
    )
    return MarSpec(
        tuple(int(c) for c in missing),
        predictor_sets,
        alpha,
        target_missing_rate,
        seed,
    )
