"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is deterministic (fixed seeds everywhere).
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

import shiftimpute
from shiftimpute.benchmark import (
    ExperimentGrid,
    make_benchmark_dataset,
    run_benchmark,
    summarize_alpha_profile,
    _pairs,
)
from shiftimpute.engine import initial_impute
from shiftimpute.masking import apply_mar_mask, select_random_spec
from shiftimpute.metrics import wasserstein_1d, wilcoxon_signed_rank
from shiftimpute.regressors import (
    ForestSpec,
    MlpSpec,
    fit_weighted_forest,
    fit_weighted_mlp,
    fit_weighted_ridge,
    mlp_loss_and_gradient,
)
from shiftimpute.riskchecks import run_all_checks

from oracles import cold_column_weights, ridge_normal_equation_residual
from test_metrics import exact_wilcoxon_p


def _report(num: int, name: str, passed: bool, detail: str):
    print(f"\n{'PASS' if passed else 'FAIL'} criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def _pair_stats(records, alphas):
    pairs = [(w, u) for w, u in _pairs(records) if w.alpha in alphas]
    rmse_ratios = np.array([w.rmse / u.rmse for w, u in pairs])
    w_ratios = np.array([w.wasserstein / u.wasserstein for w, u in pairs])
    test = wilcoxon_signed_rank(np.array([w.rmse for w, _ in pairs]),
                                np.array([u.rmse for _, u in pairs]))
    return float(rmse_ratios.mean()), float(w_ratios.mean()), test.p_value


@pytest.fixture(scope="session")
def full_grid_result():
    return run_benchmark(ExperimentGrid(), jobs=2)


def test_criterion_1_mcar_null():
    start = time.perf_counter()
    result = run_benchmark(ExperimentGrid(alphas=(0.0,)), jobs=2)
    elapsed = time.perf_counter() - start
    ratio, _, p = _pair_stats(result.records, {0.0})
    ok = 0.97 <= ratio <= 1.03 and p > 0.05 and elapsed < 120 and result.ok
    _report(1, "MCAR null", ok,
            f"rmse_ratio={ratio:.4f} (in [0.97, 1.03]), wilcoxon_p={p:.3f} "
            f"(> 0.05), runtime={elapsed:.1f}s (< 120s)")


def test_criterion_2_shift_correction():
    start = time.perf_counter()
    result = run_benchmark(ExperimentGrid(alphas=(-3.0, 3.0)), jobs=2)
    elapsed = time.perf_counter() - start
    ratio, w_ratio, p = _pair_stats(result.records, {-3.0, 3.0})
    ok = ratio < 1.0 and p < 0.05 and w_ratio < 1.0 and elapsed < 600 and result.ok
    _report(2, "shift correction at |alpha|=3", ok,
            f"rmse_ratio={ratio:.4f} (< 1), wilcoxon_p={p:.2e} (< 0.05), "
            f"wasserstein_ratio={w_ratio:.4f} (< 1), runtime={elapsed:.1f}s (< 600s)")


def test_criterion_3_inverted_v_profile(full_grid_result):
    # the default grid is the documented 35 x 7 x 2 design: 490 records
    # forming 245 weighted/unweighted pairs
    assert len(full_grid_result.records) == 490
    assert len(list(_pairs(full_grid_result.records))) == 245
    profile = summarize_alpha_profile(full_grid_result.records)
    by_abs = {}
    for row in profile:
        by_abs.setdefault(abs(row["alpha"]), []).append(row["rmse_ratio_mean"])
    levels = [float(np.mean(by_abs[k])) for k in sorted(by_abs)]
    slack = 0.02
    ok = all(levels[i + 1] <= levels[i] + slack for i in range(len(levels) - 1))
    detail = " >= ".join(f"{v:.4f}" for v in levels)
    _report(3, "inverted-V ratio profile", ok,
            f"mean rmse ratio by |alpha| 0..3: {detail} (non-increasing, "
            f"slack {slack})")


def test_criterion_4_identity_suite():
    start = time.perf_counter()
    results = {entry["check"]: entry for entry in run_all_checks()}
    elapsed = time.perf_counter() - start
    decomposition = results["risk_decomposition"]
    weighting = results["weighting_identity"]
    ablated = results["weighting_identity_ablated"]
    indicators = results["indicators_ignored"]
    ok = (decomposition["relative_gap"] < 0.02
          and weighting["relative_gap"] < 0.03
          and ablated["relative_gap"] > 0.10
          and indicators["max_indicator_coefficient"] < 0.02
          and elapsed < 120)
    _report(4, "identity suite", ok,
            f"decomposition_gap={decomposition['relative_gap']:.4f} (< 0.02), "
            f"weighting_gap={weighting['relative_gap']:.4f} (< 0.03), "
            f"ablated_gap={ablated['relative_gap']:.3f} (> 0.10), "
            f"indicator_coef={indicators['max_indicator_coefficient']:.4f} (< 0.02), "
            f"runtime={elapsed:.1f}s (< 120s)")


def test_criterion_5_weight_estimation_fidelity():
    data = make_benchmark_dataset(5000, 10, 0)
    rhos = []
    for seed in range(3):
        layout = select_random_spec(data, 4, 2, seed=seed)
        spec = replace(layout, alpha=3.0, target_missing_rate=0.3, seed=77 + seed)
        ds, mech = apply_mar_mask(data, spec)
        col = spec.missing_cols[0]
        wv = cold_column_weights(initial_impute(ds), ds.mask.observed, col)
        truth = mech.true_weight_ratios(0)[ds.mask.observed[:, col]]
        rhos.append(float(spearmanr(wv.weights, truth).statistic))
    ok = min(rhos) > 0.9
    _report(5, "weight-estimation fidelity", ok,
            f"spearman(estimated, true mechanism ratio) = "
            f"{', '.join(f'{r:.3f}' for r in rhos)} (each > 0.9)")


def test_criterion_6_numerical_kernels():
    rng = np.random.default_rng(0)
    checks = []

    # weighted ridge normal-equation residual
    x = rng.normal(size=(5000, 8))
    y = x @ rng.normal(size=8) + rng.normal(size=5000)
    w = rng.uniform(0.2, 3.0, 5000)
    model = fit_weighted_ridge(x, y, w, 0.5)
    resid = ridge_normal_equation_residual(model, x, y, w, 0.5)
    checks.append(("ridge_residual", resid < 1e-8, f"{resid:.2e}"))

    # MLP analytic gradient vs central differences
    xg = rng.normal(size=(5, 2))
    yg = rng.normal(size=5)
    wg = rng.uniform(0.5, 2.0, 5)
    params = (rng.normal(0, 0.5, (2, 3)), rng.normal(0, 0.5, 3),
              rng.normal(0, 0.5, 3), float(rng.normal()))
    _, grads = mlp_loss_and_gradient(params, xg, yg, wg)
    eps, worst = 1e-5, 0.0
    for pi in range(4):
        flat = np.atleast_1d(np.asarray(params[pi], dtype=float))
        it = np.nditer(flat, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus = [np.array(p, dtype=float, copy=True) for p in params]
            minus = [np.array(p, dtype=float, copy=True) for p in params]
            np.atleast_1d(plus[pi])[idx] += eps
            np.atleast_1d(minus[pi])[idx] -= eps
            fd = (mlp_loss_and_gradient(tuple(plus), xg, yg, wg)[0]
                  - mlp_loss_and_gradient(tuple(minus), xg, yg, wg)[0]) / (2 * eps)
            an = float(np.atleast_1d(np.asarray(grads[pi]))[idx])
            worst = max(worst, abs(an - fd) / max(abs(fd), 1e-8))
            it.iternext()
    checks.append(("mlp_gradient", worst < 1e-4, f"{worst:.2e}"))

    # deterministic weighted forest == row-replicated unweighted forest
    xi = rng.integers(0, 12, size=(30, 3)).astype(float)
    yi = rng.integers(-8, 9, size=30).astype(float)
    wi = rng.integers(1, 4, size=30).astype(float)
    spec = ForestSpec(n_trees=1, max_depth=5, min_leaf_weight=2.0,
                      feature_subsample=1.0, bootstrap=False)
    weighted = fit_weighted_forest(xi, yi, wi, spec, 0)
    reps = np.repeat(np.arange(30), wi.astype(int))
    replicated = fit_weighted_forest(xi[reps], yi[reps], np.ones(len(reps)), spec, 0)
    checks.append(("forest_replication", weighted.trees == replicated.trees,
                   "exact tree equality"))

    # W1 metric axioms on 1000 random sample triples
    axiom_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        a, b, c = rng.normal(size=(3, n)) * rng.uniform(0.5, 5)
        dab, dba = wasserstein_1d(a, b), wasserstein_1d(b, a)
        axiom_ok &= dab >= 0 and abs(dab - dba) <= 1e-12
        axiom_ok &= wasserstein_1d(a, a) <= 1e-12
        axiom_ok &= dab <= wasserstein_1d(a, c) + wasserstein_1d(c, b) + 1e-12
    checks.append(("w1_axioms", bool(axiom_ok), "1000 triples at 1e-12"))

    # Wilcoxon normal approximation vs exact enumeration
    worst_dp = 0.0
    for n in range(10, 16):
        gen = np.random.default_rng(n)
        for _ in range(40):
            d = gen.normal(size=n) + 0.5 * gen.normal()
            d[d == 0] = 1.0
            approx = wilcoxon_signed_rank(d, np.zeros(n)).p_value
            worst_dp = max(worst_dp, abs(approx - exact_wilcoxon_p(d, np.zeros(n))))
    checks.append(("wilcoxon_vs_exact", worst_dp < 0.02, f"|dp|max={worst_dp:.4f}"))

    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(f"{name}={'ok' if passed else 'FAIL'} ({info})"
                       for name, passed, info in checks)
    _report(6, "numerical kernels", ok, detail)


def test_criterion_7_mechanism_calibration():
    data = make_benchmark_dataset(5000, 10, 0)
    worst = 0.0
    for alpha in range(-3, 4):
        rates = []
        for seed in range(35):
            layout = select_random_spec(data, 4, 2, seed=seed)
            spec = replace(layout, alpha=float(alpha),
                           target_missing_rate=0.3, seed=500 + seed)
            ds, _ = apply_mar_mask(data, spec)
            planted = list(spec.missing_cols)
            rates.append(float((~ds.mask.observed[:, planted]).mean()))
        worst = max(worst, abs(float(np.mean(rates)) - 0.3))
    ok = worst <= 0.01
    _report(7, "mechanism calibration", ok,
            f"max |mean achieved rate - 0.30| over alpha in [-3, 3] = "
            f"{worst:.4f} (<= 0.01, 35 seeds each, n=5000)")


def test_criterion_8_benchmark_determinism(tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(ExperimentGrid().to_dict()))
    # the CLI subprocesses import the same package this test imported
    env = dict(os.environ)
    src = str(Path(shiftimpute.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = {}
    for jobs in (1, 8):
        out = tmp_path / f"results_jobs{jobs}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "shiftimpute.cli", "benchmark",
             "--grid", str(grid_path), "--out", str(out), "--jobs", str(jobs)],
            capture_output=True, text=True, timeout=1800, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[jobs] = out.read_bytes()
    ok = outputs[1] == outputs[8]
    _report(8, "benchmark determinism", ok,
            f"results CSV bytes identical for --jobs 1 vs --jobs 8 "
            f"({len(outputs[1])} bytes)")
