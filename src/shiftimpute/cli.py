"""Command-line entry points.

Subcommands:
  simulate-mask  plant calibrated MAR missingness into a complete CSV
  impute         run round-robin imputation on a masked CSV
  metrics        score an imputed CSV against ground truth
  verify         run the Monte-Carlo identity checks
  benchmark      run a seed x alpha grid of paired weighted/unweighted runs
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from .benchmark import (
    ExperimentGrid,
    build_summary,
    check_grid_dataset,
    records_to_csv,
    run_benchmark,
)
# perfbench's ``data.save`` trace point looks up ``cli.save_csv``
from .data import (load_csv, load_masked_csv, load_masked_fields, save_csv,  # noqa: F401
                   save_filled_csv, save_masked_csv)
from .engine import ImputationConfig, impute, visitation_order
from .masking import apply_mar_mask, select_random_spec
from .metrics import evaluate_imputation
from .propensity import weight_diagnostics
from .riskchecks import run_all_checks


@contextmanager
def _input_errors(path):
    """End the command with a one-line message naming ``path`` when the block
    fails to read or write it or finds it invalid."""
    try:
        yield
    except (OSError, ValueError, TypeError) as exc:
        raise SystemExit(f"shiftimpute: {path}: {exc}") from None


def _check_writable(*paths):
    """End the command with a one-line message before it does any work if an
    output path cannot be opened for writing; ``None`` (an output not asked
    for) is skipped. Creates no file and changes none."""
    for path in paths:
        if path is None:
            continue
        existed = os.path.lexists(path)
        with _input_errors(path), open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)


def _write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as indented JSON, ending the command with
    a one-line message naming ``path`` if it cannot be written."""
    with _input_errors(path), open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def _cmd_simulate_mask(args) -> int:
    if args.seed < 0:  # numpy's generators take none; blame the option, not the CSV
        raise SystemExit(f"shiftimpute: --seed must be nonnegative, got {args.seed}")
    if not np.isfinite(args.alpha):  # else the scores, not the option, get the blame
        raise SystemExit(f"shiftimpute: --alpha must be finite, got {args.alpha}")
    _check_writable(args.output, args.mechanism)
    # errors name the input: the file itself, or a layout or rate it cannot take
    with _input_errors(args.input):
        data = load_csv(args.input, has_header=not args.no_header)
        spec = select_random_spec(
            data,
            n_missing_cols=args.missing_cols,
            n_predictors=args.predictors,
            seed=args.seed,
            alpha=args.alpha,
            target_missing_rate=args.rate,
        )
        masked, mechanism = apply_mar_mask(data, spec)
    with _input_errors(args.output):
        save_masked_csv(masked, args.output, header=not args.no_header)
    _write_json(args.mechanism, mechanism.to_dict())
    achieved = float((~masked.mask.observed[:, list(spec.missing_cols)]).mean())
    print(f"masked {args.output}: columns {list(spec.missing_cols)}, "
          f"achieved missing rate {achieved:.4f}")
    return 0


def _load_config(cls, path):
    """Read ``cls`` from a JSON file, or its defaults when no file is given.

    A file that cannot be read or does not describe a valid ``cls`` ends the
    command with a one-line message naming the file.
    """
    if not path:
        return cls()
    with _input_errors(path), open(path, encoding="utf-8") as handle:
        return cls.from_dict(json.load(handle))


def _cmd_impute(args) -> int:
    cfg = _load_config(ImputationConfig, args.config)
    _check_writable(args.output, args.diagnostics)
    with _input_errors(args.input):
        ds, fields = load_masked_fields(args.input, has_header=not args.no_header)
    if ds.missing_columns():
        with _input_errors(args.config):  # an explicit order must fit the table
            visitation_order(ds, cfg.visitation)
    # overflow on extreme data surfaces as the engine's non-finite check,
    # not as numpy warnings ahead of the one-line error
    try:
        with np.errstate(all="ignore"):
            result = impute(ds, cfg)
    except RuntimeError as exc:  # names the column, the sweep and the cause
        raise SystemExit(f"shiftimpute: {exc}") from None
    # the input was read in full above, so --output may name it
    with _input_errors(args.output):
        save_filled_csv(ds, fields, result.completed, args.output,
                        header=not args.no_header)
    if args.diagnostics:
        diagnostics = {"config": cfg.to_dict(),
                       "per_sweep": [s.to_dict() for s in result.per_sweep]}
        if result.weights:
            diagnostics["propensity"] = weight_diagnostics(result.weights)
        _write_json(args.diagnostics, diagnostics)
    print(f"imputed {len(ds.missing_columns())} columns -> {args.output}")
    return 0


def _check_shape(array, truth):
    if array.shape != truth.values.shape:
        raise ValueError(f"shape {array.shape} differs from the truth's "
                         f"{truth.values.shape}")


def _cmd_metrics(args) -> int:
    _check_writable(args.out)
    with _input_errors(args.truth):
        truth = load_csv(args.truth, has_header=not args.no_header)
    with _input_errors(args.imputed):
        imputed = load_csv(args.imputed, has_header=not args.no_header)
        _check_shape(imputed.values, truth)
    with _input_errors(args.mask):
        mask = load_masked_csv(args.mask, has_header=not args.no_header).mask
        _check_shape(mask.observed, truth)
        report = evaluate_imputation(truth, imputed.values, mask)  # needs a hidden cell
    payload = json.dumps(report.to_dict(), indent=2)
    if args.out:
        with _input_errors(args.out), open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    print(payload)
    return 0


def _cmd_verify(args) -> int:
    _check_writable(args.out)
    results = run_all_checks()
    payload = json.dumps(results, indent=2)
    if args.out:
        with _input_errors(args.out), open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    for entry in results:
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"{status} {entry['check']}")
    return 0 if all(entry["passed"] for entry in results) else 1


def _cmd_benchmark(args) -> int:
    if args.jobs < 1:
        raise SystemExit(f"shiftimpute: --jobs must be at least 1, got {args.jobs}")
    grid = _load_config(ExperimentGrid, args.grid)
    _check_writable(args.out, args.summary)  # before the grid, not after it
    with _input_errors(grid.dataset.path):  # a CSV that no cell could take
        check_grid_dataset(grid)
    result = run_benchmark(grid, jobs=args.jobs)
    with _input_errors(args.out):
        records_to_csv(result.records, args.out)
    if args.summary:
        _write_json(args.summary, build_summary(result))
    print(f"{len(result.records)} records -> {args.out}; "
          f"{len(result.failures)} failures")
    for failure in result.failures:
        print(f"  failed: seed={failure.seed} alpha={failure.alpha} "
              f"model={failure.model} weighted={failure.weighted}: {failure.message}",
              file=sys.stderr)
    return 0 if result.ok else 1


@functools.cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftimpute",
        description="Covariate-shift-aware round-robin imputation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-mask", help="plant MAR missingness into a CSV")
    p.add_argument("--input", required=True, help="complete CSV to mask")
    p.add_argument("--output", required=True, help="masked CSV (empty fields)")
    p.add_argument("--mechanism", required=True, help="mechanism JSON output")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="shift strength (0 = MCAR)")
    p.add_argument("--rate", type=float, default=0.3, help="target missing rate")
    p.add_argument("--missing-cols", type=int, default=4,
                   help="number of columns to plant missingness into (<= 4)")
    p.add_argument("--predictors", type=int, default=4,
                   help="predictor columns per missing column (<= 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-header", action="store_true")
    p.set_defaults(func=_cmd_simulate_mask)

    p = sub.add_parser("impute", help="impute a masked CSV")
    p.add_argument("--input", required=True, help="masked CSV (empty fields)")
    p.add_argument("--config", help="ImputationConfig JSON")
    p.add_argument("--output", required=True, help="completed CSV")
    p.add_argument("--diagnostics", help="per-sweep diagnostics JSON")
    p.add_argument("--no-header", action="store_true")
    p.set_defaults(func=_cmd_impute)

    p = sub.add_parser("metrics", help="score an imputed CSV against truth")
    p.add_argument("--truth", required=True, help="complete ground-truth CSV")
    p.add_argument("--imputed", required=True, help="completed CSV to score")
    p.add_argument("--mask", required=True,
                   help="masked CSV whose empty fields mark the hidden cells")
    p.add_argument("--out", help="write the JSON report here as well")
    p.add_argument("--no-header", action="store_true")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("verify", help="run the Monte-Carlo identity checks")
    p.add_argument("--out", help="write the JSON pass/fail table here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("benchmark", help="run a seed x alpha benchmark grid")
    p.add_argument("--grid", help="ExperimentGrid JSON (defaults to the "
                                  "in-repo synthetic grid)")
    p.add_argument("--out", required=True, help="results CSV")
    p.add_argument("--summary", help="summary JSON")
    p.add_argument("--jobs", type=int, default=1,
                   help="processes running cells, this one included (at "
                        "least 1; at most one per cell); this process takes "
                        "cells too, so only jobs - 1 workers start cold")
    p.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
