"""Benchmark for shiftimpute: one workload per run, end-to-end or traced.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ridge-grid --seed 1 --seconds 20 --trace 0

The shiftimpute under ``src/`` of that checkout is imported; no install is
needed. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, the failed fraction and the
environment. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced run. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 6  # extra set-ups in fresh processes, for the median of setup_s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

NORMALISED = {"setup_s", "cells_per_s", "impute_p50_s", "impute_unweighted_p50_s"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "impute_p50_s": "s",
    "impute_unweighted_p50_s": "s",
    "rmse_ratio": "ratio",
    "w1_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit "
                             "(used to sample setup_s in fresh processes)")
    return parser.parse_args(argv)


def import_program():
    """Import the checkout's shiftimpute and the workloads built on it."""
    src = ROOT / "src"
    if not (src / "shiftimpute" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no shiftimpute sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import shiftimpute
    if Path(shiftimpute.__file__).resolve().parent != src / "shiftimpute":
        raise SystemExit(f"perfbench: imported shiftimpute from "
                         f"{shiftimpute.__file__}, not from {src}")
    import workloads
    return workloads


def _blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def setup_probe(args) -> float:
    """Seconds one fresh process takes to import and set up this workload."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def end_to_end(wl, tally, setup_s, normalise=True):
    """End-to-end metrics; times are scaled to the nominal calibration speed."""
    scale = wl.unit_scales(tally) if normalise else [1.0] * len(tally.units)
    weighted = [s * scale[u] for u, w, s in tally.calls if w]
    unweighted = [s * scale[u] for u, w, s in tally.calls if not w]
    rmse_ratio, w1_ratio = wl.quality_ratios(tally)
    values = {
        "setup_s": setup_s,
        "cells_per_s": statistics.median(
            c / (s * scale[u]) for u, (c, s) in enumerate(tally.units)),
        "impute_p50_s": statistics.median(weighted) if weighted else float("nan"),
        "impute_unweighted_p50_s":
            statistics.median(unweighted) if unweighted else float("nan"),
        "rmse_ratio": rmse_ratio,
        "w1_ratio": w1_ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix=f"{args.workload}-") as tmp:
        inputs = wl.prepare(workload, args.seed, Path(tmp))
        own_setup_s = time.perf_counter() - start
        if args.setup_only:
            print(own_setup_s)
            return 0
        # each set-up is scaled by a kernel timing taken right after it
        raw_setups = [own_setup_s]
        setups = [own_setup_s * wl.NOMINAL_CALIBRATION_S / wl.calibration_seconds()]
        for _ in range(SETUP_PROBES):
            raw_setups.append(setup_probe(args))
            setups.append(raw_setups[-1] * wl.NOMINAL_CALIBRATION_S
                          / wl.calibration_seconds())

        tally = wl.Tally()
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            with tracing.installed(tracer, Path(tmp)), wl.checked_outputs():
                wl.run_loop(inputs, args.seconds, tally)
            # spans of pool workers are spread over the jobs' cores
            overhead = len(tracer.spans) * tracing.span_cost() / \
                (workload.jobs * sum(s for _, s in tally.units))
        else:
            with wl.checked_outputs():
                wl.run_loop(inputs, args.seconds, tally)
        rmse_ratio, _ = wl.quality_ratios(tally)
        with wl.checked_outputs():
            wl.check_run(inputs, tally, rmse_ratio)

    cells = sum(c for c, _ in tally.units)
    efficiency = tally.busy_s / tally.capacity_s
    if tracer is None:
        metrics = end_to_end(wl, tally, statistics.median(setups))
        raw = end_to_end(wl, tally, statistics.median(raw_setups), normalise=False)
    else:
        metrics = tracing.layer_metrics(tracer, cells, efficiency, overhead)
    env = environment()

    print(f"workload {args.workload}: seed {args.seed}, {len(tally.units)} units, "
          f"{cells} cells, {tally.attempted} impute calls, trace {args.trace}")
    for name, m in metrics.items():
        as_measured = "" if tracer is not None or name not in NORMALISED else \
            f"  (as measured: {raw[name]['value']:.6g})"
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{as_measured}")
    print(f"  {'failed_frac':32s} {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} imputations)")
    if not args.trace:
        calls = [s for _, _, s in tally.calls]
        p90 = (f"{statistics.quantiles(calls, n=10, method='inclusive')[-1]:.6g} s"
               if len(calls) >= 100
               else "not reported: fewer than 100 calls")
        print(f"  {'impute_p90_s':32s} {p90} (all {len(calls)} calls, as measured)")
        print(f"  calibration kernel {statistics.median(tally.calibration) * 1e3:.4g} ms "
              f"(nominal {wl.NOMINAL_CALIBRATION_S * 1e3:.4g} ms)")
    else:
        trace_path = WORK_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"environment": env, "metrics": metrics, **tracer.to_dict()}),
            encoding="utf-8")
        total, covered = tracing.impute_accounting(tracer.spans)
        print(f"  impute spans {total:.6g} s; self times in their subtrees "
              f"sum to {covered:.6g} s")
        print(f"  spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print("environment " + json.dumps(env))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
