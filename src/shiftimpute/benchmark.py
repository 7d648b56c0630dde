"""Benchmark orchestration: seed x alpha grids of paired weighted/unweighted
imputation runs, and deterministic CSV/JSON reporting.

For every seed the masked-column/predictor layout is drawn once and shared
across the whole alpha range; each (seed, alpha) cell masks the dataset once
and every config runs on that identical masked input, so weighted and
unweighted records are paired by construction. Cell seeds are derived from
the cell coordinates, which makes results independent of worker count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .data import DataMatrix, JsonRecord, derive_seed, load_csv, require_seed
from .engine import ImputationConfig, impute
from .masking import (MISSING_RATE_RANGE, apply_mar_mask, check_layout,
                      select_random_spec)
from .metrics import evaluate_imputation, wilcoxon_signed_rank
from .propensity import DEFAULT_CLIP
from .regressors import ForestSpec, MlpSpec, RegressorSpec

__all__ = [
    "DatasetSource",
    "ExperimentGrid",
    "RunRecord",
    "FailureRecord",
    "BenchmarkResult",
    "make_benchmark_dataset",
    "run_benchmark",
    "summarize_alpha_profile",
    "records_to_csv",
    "build_summary",
]

RESULTS_HEADER = "seed,alpha,model,weighted,rmse,wasserstein"


def make_benchmark_dataset(n: int = 5000, d: int = 10, seed: int = 0) -> DataMatrix:
    """Desk-scale synthetic dataset with mixed cross-column structure.

    Columns grow sequentially from the standardized sum of a few earlier
    columns. About 60% of the generated columns add a centered quadratic
    term (alternating curvature sign so column skews balance out); the rest
    stay linear. A linear imputer is therefore misspecified on the curved
    columns, which gives mask-driven covariate shift something to bite on,
    while the linear columns keep the no-shift comparison an honest coin
    flip. Deterministic in (n, d, seed).
    """
    curve, noise, slope, frac_curved = 0.65, 0.5, 0.8, 0.6
    rng = np.random.default_rng(seed)
    cols = [rng.standard_normal(n), rng.standard_normal(n)]
    sign = 1.0
    for j in range(2, d):
        n_parents = min(j, int(rng.integers(2, 4)))
        parents = rng.choice(j, size=n_parents, replace=False)
        s = np.sum([cols[p] for p in parents], axis=0)
        s = (s - s.mean()) / s.std()
        if rng.random() < frac_curved:
            c = curve * rng.uniform(0.8, 1.2) * sign
            sign = -sign
        else:
            c = 0.0
        x = slope * s + c * (s * s - 1.0) / np.sqrt(2.0) \
            + noise * rng.standard_normal(n)
        cols.append(x / np.std(x))
    return DataMatrix(np.column_stack(cols), tuple(f"x{j}" for j in range(d)))


@dataclass(frozen=True)
class DatasetSource(JsonRecord):
    """Where the benchmark data comes from: in-repo generator or a CSV."""

    kind: str = "synthetic"
    n: int = 5000
    d: int = 10
    seed: int = 0
    path: str | None = None
    has_header: bool = True

    def __post_init__(self):
        self._coerce_fields()
        require_seed("seed", self.seed)
        if self.kind not in ("synthetic", "csv"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "csv" and not self.path:
            raise ValueError("csv dataset needs a path")
        # the generator's first two columns are drawn, the rest built from
        # them and standardized, which takes two rows
        if self.kind == "synthetic" and min(self.n, self.d) < 2:
            raise ValueError(
                f"synthetic dataset needs n >= 2 and d >= 2, got n={self.n}, "
                f"d={self.d}")


@lru_cache(maxsize=4)
def _materialize(source: DatasetSource) -> DataMatrix:
    if source.kind == "csv":
        return load_csv(source.path, source.has_header)
    return make_benchmark_dataset(source.n, source.d, source.seed)


@dataclass(frozen=True)
class ExperimentGrid(JsonRecord):
    """The full experimental design for one benchmark run."""

    dataset: DatasetSource = field(default_factory=DatasetSource)
    seeds: int | tuple[int, ...] = tuple(range(35))  # n: seeds 0..n-1
    alphas: tuple[float, ...] = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
    missing_rate: float = 0.30
    n_missing_cols: int = 4
    n_predictors: int = 2
    models: tuple[str, ...] = ("ridge",)
    n_sweeps: int = 5
    clip_epsilon: float = DEFAULT_CLIP
    # stronger than the estimator-level default: benchmark weights at |alpha|=3
    # are otherwise extreme enough that fit variance erodes the gains
    propensity_l2: float = 0.05
    ridge_lambda: float = 1e-3
    forest: ForestSpec = field(default_factory=ForestSpec)
    mlp: MlpSpec = field(default_factory=MlpSpec)

    def __post_init__(self):
        self._coerce_fields()
        if isinstance(self.seeds, int):
            object.__setattr__(self, "seeds", tuple(range(self.seeds)))
        for seed in self.seeds:
            require_seed("seeds", seed)
        for name in ("seeds", "alphas", "models"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name} in {list(values)}")
        for kind in self.models:
            if kind not in ("ridge", "forest", "mlp"):
                raise ValueError(f"unknown model kind {kind!r}")
        # the masking's and the runs' own checks, before any cell runs
        low, high = MISSING_RATE_RANGE
        if not low < self.missing_rate < high:
            raise ValueError(f"missing_rate must be in ({low}, {high}), "
                             f"got {self.missing_rate!r}")
        # a CSV's width is known only once the file is read
        check_layout(self.n_missing_cols, self.n_predictors,
                     self.dataset.d if self.dataset.kind == "synthetic" else None)
        for alpha in self.alphas:
            if not math.isfinite(alpha):
                raise ValueError(f"alphas must be finite, got {alpha!r}")
        self.imputation_config(self.models[0], True, 0)

    def imputation_config(self, kind: str, weighted: bool,
                          seed: int) -> ImputationConfig:
        """The config of one run of this grid: model ``kind``, weighted or not."""
        return ImputationConfig(
            regressor=RegressorSpec(kind=kind, ridge_lambda=self.ridge_lambda,
                                    forest=self.forest, mlp=self.mlp),
            weighted=weighted, n_sweeps=self.n_sweeps,
            clip_epsilon=self.clip_epsilon, propensity_l2=self.propensity_l2,
            seed=seed,
        )


@dataclass(frozen=True)
class RunRecord:
    seed: int
    alpha: float
    model: str
    weighted: bool
    rmse: float
    wasserstein: float
    wall_time_ms: float


@dataclass(frozen=True)
class FailureRecord(JsonRecord):
    seed: int
    alpha: float
    model: str | None
    weighted: bool | None
    message: str


@dataclass(frozen=True)
class BenchmarkResult:
    records: tuple[RunRecord, ...]
    failures: tuple[FailureRecord, ...]
    grid: ExperimentGrid

    @property
    def ok(self) -> bool:
        return not self.failures


def _mask_seed(seed: int, alpha: float) -> int:
    # keyed on the alpha value itself so a restricted grid reproduces the
    # matching cells of the full grid exactly
    alpha_bits = int(np.float64(alpha).view(np.uint64))
    return derive_seed(seed, alpha_bits, 0xB1A5)


def _run_cell(grid: ExperimentGrid, seed: int, alpha_index: int):
    """Mask once, run every (model, weighted) config on the same masked data."""
    alpha = grid.alphas[alpha_index]
    records: list[RunRecord] = []
    failures: list[FailureRecord] = []
    data = _materialize(grid.dataset)
    try:
        layout = select_random_spec(
            data, grid.n_missing_cols, grid.n_predictors, seed=seed,
        )
        spec = replace(layout, alpha=alpha, target_missing_rate=grid.missing_rate,
                       seed=_mask_seed(seed, alpha))
        masked, _ = apply_mar_mask(data, spec)
    except Exception as exc:
        failures.append(FailureRecord(seed, alpha, None, None, f"masking: {exc}"))
        return records, failures
    for kind in grid.models:
        for weighted in (True, False):
            cfg = grid.imputation_config(kind, weighted, _mask_seed(seed, alpha))
            start = time.perf_counter()
            try:
                result = impute(masked, cfg)
            except Exception as exc:
                failures.append(FailureRecord(seed, alpha, kind, weighted, str(exc)))
                continue
            wall_ms = (time.perf_counter() - start) * 1000.0
            report = evaluate_imputation(data, result.completed, masked.mask)
            records.append(RunRecord(seed, alpha, kind, weighted,
                                     report.rmse, report.wasserstein, wall_ms))
    return records, failures


def _run_cell_star(args):
    return _run_cell(*args)


def run_benchmark(grid: ExperimentGrid, jobs: int = 1) -> BenchmarkResult:
    """Run the whole grid in at most ``jobs`` (>= 1) processes, one per cell
    at most; cell order and results are independent of ``jobs``."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cells = [(grid, seed, ai) for seed in grid.seeds
             for ai in range(len(grid.alphas))]
    workers = min(jobs, len(cells))
    if workers <= 1:
        outcomes = [_run_cell_star(c) for c in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell_star, cells, chunksize=1))
    return BenchmarkResult(tuple(r for recs, _ in outcomes for r in recs),
                           tuple(f for _, fails in outcomes for f in fails), grid)


def records_to_csv(records, path) -> None:
    """Write the deterministic results table (floats via repr, exact)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(RESULTS_HEADER + "\n")
        for r in records:
            handle.write(
                f"{r.seed},{r.alpha!r},{r.model},{str(r.weighted).lower()},"
                f"{r.rmse!r},{r.wasserstein!r}\n"
            )


def _pairs(records):
    """Yield (weighted record, unweighted record) per (seed, alpha, model)."""
    by_key = {}
    for r in records:
        by_key.setdefault((r.seed, r.alpha, r.model), {})[r.weighted] = r
    for key in sorted(by_key):
        pair = by_key[key]
        if True in pair and False in pair:
            yield pair[True], pair[False]


def _ratio_mean(pairs, metric: str):
    """Mean weighted/unweighted ratio of ``metric`` over the pairs whose
    unweighted value is positive, or None when there are none."""
    ratios = [getattr(w, metric) / getattr(u, metric) for w, u in pairs
              if getattr(u, metric) > 0]
    return float(np.mean(ratios)) if ratios else None


def summarize_alpha_profile(records, pairs=None) -> list[dict]:
    """Per-alpha mean weighted/unweighted RMSE ratio table, ordered by alpha;
    ``pairs`` is ``_pairs(records)`` when the caller has it."""
    alphas = sorted({r.alpha for r in records})
    if len(alphas) < 2:
        raise ValueError("alpha profile needs records for at least 2 alphas")
    by_alpha = {alpha: [] for alpha in alphas}
    for w, u in _pairs(records) if pairs is None else pairs:
        by_alpha[w.alpha].append((w, u))
    return [{"alpha": alpha,
             "rmse_ratio_mean": _ratio_mean(group, "rmse"),
             "wasserstein_ratio_mean": _ratio_mean(group, "wasserstein"),
             "n_pairs": sum(u.rmse > 0 for _, u in group)}
            for alpha, group in by_alpha.items()]


def _model_summary(records):
    weighted = [r for r in records if r.weighted]
    unweighted = [r for r in records if not r.weighted]
    pairs = list(_pairs(records))
    summary = {
        "n_pairs": len(pairs),
        "mean_rmse_weighted": float(np.mean([r.rmse for r in weighted])) if weighted else None,
        "mean_rmse_unweighted": float(np.mean([r.rmse for r in unweighted])) if unweighted else None,
        "mean_wasserstein_weighted": float(np.mean([r.wasserstein for r in weighted])) if weighted else None,
        "mean_wasserstein_unweighted": float(np.mean([r.wasserstein for r in unweighted])) if unweighted else None,
        "rmse_ratio_mean": _ratio_mean(pairs, "rmse"),
        "wasserstein_ratio_mean": _ratio_mean(pairs, "wasserstein"),
        "wilcoxon_rmse": None,
        "wilcoxon_wasserstein": None,
    }
    if len(pairs) >= 10:
        for metric in ("rmse", "wasserstein"):
            try:
                test = wilcoxon_signed_rank(
                    np.array([getattr(w, metric) for w, _ in pairs]),
                    np.array([getattr(u, metric) for _, u in pairs]),
                )
                summary[f"wilcoxon_{metric}"] = test.to_dict()
            except ValueError:
                pass
    try:
        summary["alpha_profile"] = summarize_alpha_profile(records, pairs)
    except ValueError:
        summary["alpha_profile"] = None
    return summary


def build_summary(result: BenchmarkResult) -> dict:
    """Aggregate a benchmark result into the JSON summary structure."""
    return {
        "grid": result.grid.to_dict(),
        "n_records": len(result.records),
        "failures": [f.to_dict() for f in result.failures],
        "per_model": {kind: _model_summary([r for r in result.records
                                            if r.model == kind])
                      for kind in result.grid.models},
        "wall_time_ms": {
            "total": float(sum(r.wall_time_ms for r in result.records)),
            "per_record": [r.wall_time_ms for r in result.records],
        },
    }
