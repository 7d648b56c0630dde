"""In-memory spans around calls into shiftimpute's layers.

The traced run replaces module attributes at the call sites the program
uses (``shiftimpute.engine.predict`` is the name the engine looks up, for
example) with wrappers that record one span per call. Nothing under ``src/``
changes, and :func:`installed` puts every original back when the traced part
ends, so untraced runs execute the program exactly as shipped.

A span is ``[name, start, end, parent]``: the parent is the index of the
enclosing span in :attr:`Tracer.spans`, or -1 at the top. Worker processes
forked by ``run_benchmark``'s process pool inherit the wrappers; each writes
the spans and counts of every cell it runs to a file, and the traced run
merges those into its own tracer when it ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import Counter, defaultdict

__all__ = ["Tracer", "TRACE_POINTS", "installed", "span_cost", "self_times",
           "impute_accounting", "layer_metrics", "PER_LAYER_UNITS"]


class Tracer:
    """Keeps spans and counters in memory for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def to_dict(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans],
                "counters": dict(self.counters)}


def _count_steps(counters, args, result):
    counters["engine.column_steps"] += sum(len(s.columns) for s in result.per_sweep)


def _count_predict_rows(counters, args, result):
    counters["regressors.useful_rows"] += len(result)


def _count_mse_rows(counters, args, result):
    counters["regressors.mse_rows"] += len(args[1])


def _count_irls(counters, args, result):
    counters["propensity.irls_iters"] += result.n_iter
    counters["propensity.nonconverged"] += not result.converged


# (module, attribute looked up at the call site, span name, counter hook)
TRACE_POINTS = (
    ("shiftimpute.benchmark", "run_benchmark", "benchmark.run", None),
    ("shiftimpute.benchmark", "apply_mar_mask", "masking.apply", None),
    ("shiftimpute.benchmark", "impute", "engine.impute", _count_steps),
    ("shiftimpute.benchmark", "evaluate_imputation", "metrics.eval", None),
    ("shiftimpute.benchmark", "build_summary", "metrics.summary", None),
    ("shiftimpute.engine", "weights_for_column", "propensity.weights", None),
    ("shiftimpute.engine", "fit_regressor", "regressors.fit", None),
    ("shiftimpute.engine", "predict", "regressors.predict", _count_predict_rows),
    ("shiftimpute.engine", "weighted_mse", "regressors.mse", _count_mse_rows),
    ("shiftimpute.propensity", "fit_propensity", "propensity.irls", _count_irls),
    ("shiftimpute.cli", "load_masked_csv", "data.load", None),
    ("shiftimpute.cli", "impute", "engine.impute", _count_steps),
    ("shiftimpute.cli", "save_csv", "data.save", None),
    ("shiftimpute.cli", "weight_diagnostics", "cli.diagnostics", None),
)


def _wrap(tracer, name, fn, hook):
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            hook(tracer.counters, args, result)
        return result
    traced.__wrapped__ = fn
    return traced


def _spill_worker_spans(tracer, run_cell, spill_dir):
    """Wrap ``_run_cell`` so that a forked pool worker writes out what it traced.

    A worker starts with a copy of the parent's spans, so the spans of one
    cell are those added during the call. Their parent indices below that
    point name spans of the parent process (the enclosing ``benchmark.run``).
    """
    parent_pid = os.getpid()

    def traced_run_cell(*args, **kwargs):
        if os.getpid() == parent_pid:
            return run_cell(*args, **kwargs)
        first, before = len(tracer.spans), tracer.counters.copy()
        try:
            return run_cell(*args, **kwargs)
        finally:
            chunk = {"first": first, "spans": tracer.spans[first:],
                     "counters": tracer.counters - before}
            with open(spill_dir / f"worker-{os.getpid()}.jsonl", "a",
                      encoding="utf-8") as out:
                out.write(json.dumps(chunk) + "\n")
    traced_run_cell.__wrapped__ = run_cell
    return traced_run_cell


def _merge_worker_spans(tracer, spill_dir) -> None:
    for path in sorted(spill_dir.glob("worker-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            chunk = json.loads(line)
            base, first = len(tracer.spans), chunk["first"]
            for name, start, end, parent in chunk["spans"]:
                if parent >= first:
                    parent += base - first
                tracer.spans.append([name, start, end, parent])
            tracer.counters.update(chunk["counters"])
        path.unlink()


@contextlib.contextmanager
def installed(tracer, spill_dir):
    """Wrap every trace point for the duration of the block, then restore.

    Spans of forked pool workers go through files in ``spill_dir`` and are
    merged into ``tracer`` when the block ends.
    """
    saved = []
    try:
        for module_name, attr, name, hook in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, hook))
        module = importlib.import_module("shiftimpute.benchmark")
        saved.append((module, "_run_cell", module._run_cell))
        module._run_cell = _spill_worker_spans(tracer, module._run_cell, spill_dir)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        _merge_worker_spans(tracer, spill_dir)


def span_cost() -> float:
    """Seconds a traced call adds to a plain call, as measured in this process.

    Tracing adds about a microsecond per span, far below this benchmark's
    run-to-run noise, so the traced run's overhead is computed from this cost
    and the span count rather than from a difference of two noisy walls.
    """
    def noop():
        return None

    best = float("inf")
    for _ in range(3):
        traced = _wrap(Tracer(), "calibration", noop, None)
        start = time.perf_counter()
        for _ in range(10000):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(10000):
            traced()
        best = min(best, (time.perf_counter() - start - plain) / 10000)
    return max(best, 0.0)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for index, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def impute_accounting(spans) -> tuple[float, float]:
    """(total of the ``engine.impute`` spans, sum of self times in their subtrees).

    The two agree when every moment inside ``impute`` is assigned to exactly
    one layer.
    """
    own = self_times(spans)
    inside = [False] * len(spans)
    total = covered = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        # parents precede their children in the list
        inside[index] = name == "engine.impute" or (parent >= 0 and inside[parent])
        if name == "engine.impute":
            total += end - start
        if inside[index]:
            covered += own[index]
    return total, covered


PER_LAYER_UNITS = {
    "masking.apply_s": "s/cell",
    "masking.calls": "count/cell",
    "propensity.weights_s": "s/cell",
    "propensity.irls_s": "s/cell",
    "propensity.fits": "count/cell",
    "propensity.irls_iters_mean": "iter",
    "propensity.nonconverged_frac": "ratio",
    "regressors.fit_s": "s/cell",
    "regressors.predict_s": "s/cell",
    "regressors.mse_s": "s/cell",
    "regressors.fits": "count/cell",
    "regressors.useful_predict_frac": "ratio",
    "engine.self_s": "s/cell",
    "engine.column_steps": "count/cell",
    "metrics.eval_s": "s/cell",
    "metrics.summary_s": "s/cell",
    "data.load_s": "s/cell",
    "data.save_s": "s/cell",
    "cli.diagnostics_s": "s/cell",
    "benchmark.parallel_efficiency": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer: Tracer, cells: int, parallel_efficiency: float,
                  overhead_frac: float) -> dict:
    """Per-layer metrics of a traced run; times and counts are per cell."""
    total = Counter()
    calls = Counter()
    self_s = Counter()
    for (name, start, end, _), own in zip(tracer.spans, self_times(tracer.spans)):
        total[name] += end - start
        calls[name] += 1
        self_s[name] += own
    counters = tracer.counters
    fits = calls["propensity.irls"]
    per_fit = 1.0 / fits if fits else 0.0
    predicted = counters["regressors.useful_rows"] + counters["regressors.mse_rows"]
    per_cell = 1.0 / max(cells, 1)
    values = {
        "masking.apply_s": total["masking.apply"] * per_cell,
        "masking.calls": calls["masking.apply"] * per_cell,
        "propensity.weights_s": total["propensity.weights"] * per_cell,
        "propensity.irls_s": total["propensity.irls"] * per_cell,
        "propensity.fits": fits * per_cell,
        "propensity.irls_iters_mean": counters["propensity.irls_iters"] * per_fit,
        "propensity.nonconverged_frac": counters["propensity.nonconverged"] * per_fit,
        "regressors.fit_s": total["regressors.fit"] * per_cell,
        "regressors.predict_s": total["regressors.predict"] * per_cell,
        "regressors.mse_s": total["regressors.mse"] * per_cell,
        "regressors.fits": calls["regressors.fit"] * per_cell,
        "regressors.useful_predict_frac":
            counters["regressors.useful_rows"] / predicted if predicted else 0.0,
        "engine.self_s": self_s["engine.impute"] * per_cell,
        "engine.column_steps": counters["engine.column_steps"] * per_cell,
        "metrics.eval_s": total["metrics.eval"] * per_cell,
        "metrics.summary_s": total["metrics.summary"] * per_cell,
        "data.load_s": total["data.load"] * per_cell,
        "data.save_s": total["data.save"] * per_cell,
        "cli.diagnostics_s": total["cli.diagnostics"] * per_cell,
        "benchmark.parallel_efficiency": parallel_efficiency,
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
