import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shiftimpute
import shiftimpute.benchmark as bench_mod
import shiftimpute.cli as cli_mod
import shiftimpute.engine as engine_mod
from shiftimpute.benchmark import make_benchmark_dataset
from shiftimpute.cli import main
from shiftimpute.data import load_csv, load_masked_csv, save_csv
from shiftimpute.engine import ImputationConfig, impute
from shiftimpute.propensity import GRADIENT_TOL


@pytest.fixture
def truth_csv(tmp_path):
    path = tmp_path / "truth.csv"
    save_csv(make_benchmark_dataset(300, 6, 1), path)
    return path


def test_simulate_mask_impute_metrics_pipeline(tmp_path, truth_csv, capsys):
    masked = tmp_path / "masked.csv"
    mech = tmp_path / "mech.json"
    rc = main([
        "simulate-mask", "--input", str(truth_csv), "--output", str(masked),
        "--mechanism", str(mech), "--alpha", "2.0", "--rate", "0.3",
        "--missing-cols", "2", "--predictors", "2", "--seed", "7",
    ])
    assert rc == 0
    spec = json.loads(mech.read_text())["spec"]
    assert len(spec["missing_cols"]) == 2
    ds = load_masked_csv(masked)
    planted = spec["missing_cols"]
    rate = float((~ds.mask.observed[:, planted]).mean())
    assert 0.2 < rate < 0.4

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "regressor": {"kind": "ridge", "ridge_lambda": 1e-6},
        "weighted": True, "n_sweeps": 2, "seed": 0,
    }))
    completed = tmp_path / "completed.csv"
    diagnostics = tmp_path / "diag.json"
    rc = main([
        "impute", "--input", str(masked), "--config", str(config),
        "--output", str(completed), "--diagnostics", str(diagnostics),
    ])
    assert rc == 0
    out = load_csv(completed)
    truth = load_csv(truth_csv)
    obs = ds.mask.observed
    np.testing.assert_allclose(out.values[obs], truth.values[obs], atol=1e-12)
    diag = json.loads(diagnostics.read_text())
    assert len(diag["per_sweep"]) == 2
    # every step fits each column until its gradient, which is recorded,
    # falls below the propensity tolerance
    for sweep in diag["per_sweep"]:
        for col in sweep["columns"]:
            assert col["propensity_n_iter"] > 0
            assert col["propensity_converged"] is True
            assert col["propensity_gradient"] < GRADIENT_TOL
    assert set(diag["propensity"]) == {str(c) for c in planted}

    report_path = tmp_path / "report.json"
    rc = main([
        "metrics", "--truth", str(truth_csv), "--imputed", str(completed),
        "--mask", str(masked), "--out", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["masked_cell_count"] == int((~obs).sum())
    assert report["rmse"] > 0
    stdout = capsys.readouterr().out
    assert f'"rmse": {report["rmse"]}' in stdout  # report echoed to stdout


@pytest.fixture
def masked_csv(tmp_path, truth_csv):
    masked = tmp_path / "masked.csv"
    assert main(["simulate-mask", "--input", str(truth_csv), "--output", str(masked),
                 "--mechanism", str(tmp_path / "mech.json"), "--alpha", "2.0",
                 "--missing-cols", "2", "--predictors", "2", "--seed", "5"]) == 0
    return masked


def _impute_with_diagnostics(tmp_path, masked, config):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    diagnostics = tmp_path / "diag.json"
    assert main(["impute", "--input", str(masked), "--config", str(config_path),
                 "--output", str(tmp_path / "completed.csv"),
                 "--diagnostics", str(diagnostics)]) == 0
    return json.loads(diagnostics.read_text())


def test_unweighted_diagnostics_have_no_propensity(tmp_path, masked_csv):
    diag = _impute_with_diagnostics(tmp_path, masked_csv,
                                    {"weighted": False, "n_sweeps": 2})
    assert "propensity" not in diag
    assert len(diag["per_sweep"]) == 2


def test_diagnostics_report_the_runs_own_propensity_fits(tmp_path, masked_csv):
    config = {"regressor": {"kind": "ridge"}, "weighted": True, "n_sweeps": 3}
    diag = _impute_with_diagnostics(tmp_path, masked_csv, config)
    result = impute(load_masked_csv(masked_csv), ImputationConfig.from_dict(config))
    assert set(diag["propensity"]) == {str(i) for i in result.weights}
    for i, wv in result.weights.items():
        entry = diag["propensity"][str(i)]
        # convergence, gradient and ESS are the step record's alone
        assert set(entry) == {"coefficients", "intercept", "weight_histogram"}
        assert entry["coefficients"] == wv.propensity.coefficients.tolist()
        assert entry["intercept"] == wv.propensity.intercept
        assert sum(entry["weight_histogram"]["counts"]) == wv.weights.size
    last = {c["column"]: c for c in diag["per_sweep"][-1]["columns"]}
    for i, wv in result.weights.items():
        assert last[i]["propensity_converged"] == wv.propensity.converged
        assert last[i]["propensity_gradient"] == wv.propensity.gradient


def test_metrics_perfect_imputation(tmp_path, truth_csv):
    masked = tmp_path / "masked.csv"
    mech = tmp_path / "mech.json"
    main(["simulate-mask", "--input", str(truth_csv), "--output", str(masked),
          "--mechanism", str(mech), "--missing-cols", "2", "--predictors", "2",
          "--seed", "3"])
    out = tmp_path / "report.json"
    rc = main(["metrics", "--truth", str(truth_csv), "--imputed", str(truth_csv),
               "--mask", str(masked), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["rmse"] == 0.0
    assert report["wasserstein"] == 0.0


def test_benchmark_cli_writes_results_and_summary(tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "dataset": {"kind": "synthetic", "n": 300, "d": 6, "seed": 0},
        "seeds": [0, 1], "alphas": [0.0, 2.0],
        "n_missing_cols": 2, "n_predictors": 2, "n_sweeps": 2,
    }))
    out = tmp_path / "results.csv"
    summary = tmp_path / "summary.json"
    rc = main(["benchmark", "--grid", str(grid_path), "--out", str(out),
               "--summary", str(summary), "--jobs", "1"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "seed,alpha,model,weighted,rmse,wasserstein"
    assert len(lines) == 1 + 2 * 2 * 2
    payload = json.loads(summary.read_text())
    assert payload["per_model"]["ridge"]["n_pairs"] == 4
    assert payload["failures"] == []


def test_benchmark_cli_nonzero_exit_on_failure(tmp_path, monkeypatch):
    import shiftimpute.benchmark as bench

    def boom(*args, **kwargs):
        raise RuntimeError("forced")

    monkeypatch.setattr(bench, "impute", boom)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "dataset": {"kind": "synthetic", "n": 300, "d": 6, "seed": 0},
        "seeds": [0], "alphas": [0.0],
        "n_missing_cols": 2, "n_predictors": 2, "n_sweeps": 1,
    }))
    rc = main(["benchmark", "--grid", str(grid_path),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 1


def test_verify_cli_emits_pass_table(tmp_path, capsys):
    out = tmp_path / "checks.json"
    rc = main(["verify", "--out", str(out)])
    assert rc == 0
    table = json.loads(out.read_text())
    assert {entry["check"] for entry in table} == {
        "risk_decomposition", "weighting_identity",
        "weighting_identity_ablated", "indicators_ignored",
    }
    assert all(entry["passed"] for entry in table)
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 4


def test_csv_dataset_source(tmp_path, truth_csv):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({
        "dataset": {"kind": "csv", "path": str(truth_csv), "has_header": True},
        "seeds": [0], "alphas": [1.0],
        "n_missing_cols": 2, "n_predictors": 2, "n_sweeps": 1,
    }))
    out = tmp_path / "results.csv"
    rc = main(["benchmark", "--grid", str(grid_path), "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3


IMPUTE = ["impute", "--input", "in.csv", "--output", "out.csv", "--config"]
BENCHMARK = ["benchmark", "--out", "out.csv", "--grid"]


@pytest.mark.parametrize("argv, text, message", [
    (IMPUTE, '{"n_sweep": 3}', "unknown ImputationConfig keys: n_sweep"),
    (IMPUTE, '{"weighted": "false"}',
     "ImputationConfig.weighted must be a JSON boolean, got 'false'"),
    (IMPUTE, '{"n_sweeps": 0}', "n_sweeps must be >= 1"),
    (IMPUTE, '{"n_sweeps": }', "Expecting value: line 1 column 14 (char 13)"),
    (IMPUTE, None, "[Errno 2] No such file or directory"),
    (BENCHMARK, '{"seedz": 3}', "unknown ExperimentGrid keys: seedz"),
    (BENCHMARK, '{"n_sweeps": 2.5}',
     "ExperimentGrid.n_sweeps must be a JSON integer, got 2.5"),
    (BENCHMARK, '{"alphas": [1.0, 1.0]}', "duplicate alphas in [1.0, 1.0]"),
    (BENCHMARK, '{"n_sweeps": 0}', "n_sweeps must be >= 1"),
    (BENCHMARK, '{"missing_rate": 0.995}',
     "missing_rate must be in (0.01, 0.99), got 0.995"),
    (BENCHMARK, '{"alphas": [0.0, NaN]}', "alphas must be finite, got nan"),
    (BENCHMARK, '{"dataset": {"n": 1}}',
     "synthetic dataset needs n >= 2 and d >= 2, got n=1, d=10"),
    (BENCHMARK, '{"dataset": {"d": 5}, "n_missing_cols": 4}',
     "d=5 leaves fewer than 2 predictor candidates"),
    (BENCHMARK, "[1, 2]", "ExperimentGrid must be a JSON object, got [1, 2]"),
    (BENCHMARK, None, "[Errno 2] No such file or directory"),
    (IMPUTE, '{"regressor": {"forest": {"seed": 7}}}', "unknown ForestSpec keys: seed"),
    (IMPUTE, '{"regressor": {"mlp": {"seed": 7}}}', "unknown MlpSpec keys: seed"),
    (BENCHMARK, '{"mlp": {"seed": 7}}', "unknown MlpSpec keys: seed"),
    # json.load reads NaN and Infinity; the config rejects them when built
    (IMPUTE, '{"regressor": {"ridge_lambda": NaN}}',
     "ridge_lambda must be nonnegative and finite, got nan"),
    (IMPUTE, '{"regressor": {"ridge_lambda": Infinity}}',
     "ridge_lambda must be nonnegative and finite, got inf"),
    (IMPUTE, '{"propensity_l2": -Infinity}',
     "propensity_l2 must be nonnegative and finite, got -inf"),
    (IMPUTE, '{"propensity_l2": -0.5}',
     "propensity_l2 must be nonnegative and finite, got -0.5"),
    (IMPUTE, '{"clip_epsilon": 0.7}', "clip_epsilon must be in (0, 0.5), got 0.7"),
    (IMPUTE, '{"clip_epsilon": NaN}', "clip_epsilon must be in (0, 0.5), got nan"),
    (IMPUTE, '{"regressor": {"mlp": {"learning_rate": NaN}}}',
     "learning_rate must be positive and finite, got nan"),
    (IMPUTE, '{"regressor": {"forest": {"min_leaf_weight": NaN}}}',
     "min_leaf_weight must be positive and finite, got nan"),
    (BENCHMARK, '{"ridge_lambda": Infinity}',
     "ridge_lambda must be nonnegative and finite, got inf"),
    (BENCHMARK, '{"clip_epsilon": 0.5}', "clip_epsilon must be in (0, 0.5), got 0.5"),
    (BENCHMARK, '{"propensity_l2": NaN}',
     "propensity_l2 must be nonnegative and finite, got nan"),
    (BENCHMARK, '{"mlp": {"learning_rate": 0}}',
     "learning_rate must be positive and finite, got 0.0"),
])
def test_bad_config_file_is_a_one_line_error(tmp_path, monkeypatch, argv, text,
                                              message):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as info:
        main(argv + [str(path)])
    assert str(info.value).startswith(f"shiftimpute: {path}: {message}")
    assert "\n" not in str(info.value)
    assert not (tmp_path / "out.csv").exists()


def test_bad_config_exits_nonzero_without_traceback(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"weighted": "false"}')
    proc = subprocess.run(
        [sys.executable, "-m", "shiftimpute.cli", "impute", "--input", "in.csv",
         "--output", "out.csv", "--config", str(path)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ,
             "PYTHONPATH": str(Path(shiftimpute.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 1
    assert proc.stderr == (f"shiftimpute: {path}: ImputationConfig.weighted must be "
                           "a JSON boolean, got 'false'\n")


def test_failed_run_is_a_one_line_error(tmp_path, masked_csv):
    # a config that parses but whose MLP diverges fails inside a column step
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"regressor": {
        "kind": "mlp", "mlp": {"learning_rate": 50.0, "epochs": 5}}}))
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        main(["impute", "--input", str(masked_csv), "--config", str(config),
              "--output", str(out), "--diagnostics", str(tmp_path / "diag.json")])
    message = str(info.value)
    assert message.startswith("shiftimpute: column ")
    assert " failed at sweep 0: MLP diverged at epoch " in message
    assert "\n" not in message
    assert not out.exists() and not (tmp_path / "diag.json").exists()


def test_singular_propensity_hessian_is_a_one_line_error(tmp_path):
    # a constant predictor, unpenalized, leaves the propensity fit's Newton
    # system singular; the message names the cause, not numpy's solver
    rng = np.random.default_rng(0)
    values = rng.normal(size=(400, 4))
    values[:, 2] = 1.0
    rows = [[repr(float(v)) for v in row] for row in values]
    for row in rows[::4]:
        row[0] = ""
    path = tmp_path / "constant.csv"
    path.write_text("a,b,c,d\n" + "".join(",".join(r) + "\n" for r in rows))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"propensity_l2": 0.0}))
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        main(["impute", "--input", str(path), "--config", str(config),
              "--output", str(out)])
    assert str(info.value) == (
        "shiftimpute: column 0 failed at sweep 0: singular propensity Hessian "
        "(a constant or duplicated predictor); use propensity_l2 > 0")
    assert not out.exists()
    # the default penalty keeps the system nonsingular
    assert main(["impute", "--input", str(path), "--output", str(out)]) == 0


def test_non_finite_imputation_is_a_one_line_error(tmp_path, masked_csv, monkeypatch):
    monkeypatch.setattr(engine_mod, "predict",
                        lambda model, x: np.full(x.shape[0], np.nan))
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        main(["impute", "--input", str(masked_csv), "--output", str(out)])
    message = str(info.value)
    assert message.startswith("shiftimpute: column ")
    assert " failed at sweep 0: non-finite imputation at row " in message
    assert "\n" not in message
    assert not out.exists()


def test_overflowing_data_is_only_a_one_line_error(tmp_path, capsys):
    # a column near the float maximum overflows its mean and the ridge
    # products; numpy's warnings must not precede the engine's failure
    rng = np.random.default_rng(0)
    values = rng.normal(size=(50, 3))
    values[:, 0] = 1.7e308 - np.abs(rng.normal(size=50)) * 1e305
    rows = [[repr(float(v)) for v in row] for row in values]
    for row in rows[::5]:
        row[0] = ""
    path = tmp_path / "huge.csv"
    path.write_text("a,b,c\n" + "".join(",".join(r) + "\n" for r in rows))
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as info:
        main(["impute", "--input", str(path), "--output", str(out)])
    assert str(info.value) == \
        "shiftimpute: column 0 failed at sweep 0: non-finite imputation at row 0"
    assert capsys.readouterr().err == ""
    assert not out.exists()


def test_output_may_overwrite_the_input(tmp_path, masked_csv):
    separate = tmp_path / "completed.csv"
    assert main(["impute", "--input", str(masked_csv), "--output", str(separate)]) == 0
    ds = load_masked_csv(masked_csv)
    assert main(["impute", "--input", str(masked_csv), "--output", str(masked_csv)]) == 0
    assert masked_csv.read_bytes() == separate.read_bytes()
    completed = impute(ds, ImputationConfig()).completed
    assert load_csv(masked_csv).values.tobytes() == completed.tobytes()


def _good_argv(command, truth, masked):
    """A command line that succeeds on the complete CSV ``truth`` and its
    masked version ``masked``."""
    return {
        "impute": ["impute", "--input", masked, "--output", "out.csv"],
        "simulate-mask": ["simulate-mask", "--input", truth, "--output", "out.csv",
                          "--mechanism", "out.json", "--missing-cols", "2",
                          "--predictors", "2"],
        "metrics": ["metrics", "--truth", truth, "--imputed", truth, "--mask", masked,
                    "--out", "out.csv"],
        "verify": ["verify", "--out", "out.csv"],
        "benchmark": ["benchmark", "--out", "out.csv"],
    }[command]


@pytest.mark.parametrize("command, flag", [
    ("impute", "--input"), ("simulate-mask", "--input"),
    ("metrics", "--truth"), ("metrics", "--imputed"), ("metrics", "--mask"),
])
@pytest.mark.parametrize("text, message", [
    (None, "[Errno 2] No such file or directory"),
    ("a,b\n1,x\n", "cannot parse 'x' as a number at row 0, column b"),
    pytest.param("a,b\n" + "1" * 200_000 + ",2\n",
                 "CSV line 2: field larger than field limit (131072)",
                 id="field-over-the-csv-limit"),
])
def test_bad_input_csv_is_a_one_line_error(tmp_path, monkeypatch, truth_csv, masked_csv,
                                           command, flag, text, message):
    monkeypatch.chdir(tmp_path)
    argv = _good_argv(command, str(truth_csv), str(masked_csv))
    path = tmp_path / "bad.csv"
    if text is not None:
        path.write_text(text)
    argv[argv.index(flag) + 1] = str(path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert str(info.value).startswith(f"shiftimpute: {path}: {message}")
    assert "\n" not in str(info.value)
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("metrics", "--imputed", "narrow.csv", "shape (1, 2) differs from the truth's (300, 6)"),
    ("metrics", "--mask", "narrow.csv", "shape (1, 2) differs from the truth's (300, 6)"),
    ("metrics", "--mask", "truth.csv", "no masked cells to score"),
    ("simulate-mask", "--missing-cols", "5", "n_missing_cols must be in 1..4"),
    ("simulate-mask", "--rate", "0.995", "target_rate must be in (0.01, 0.99)"),
    ("impute", "--output", "no_such_dir/out.csv", "[Errno 2] No such file or directory"),
    ("impute", "--diagnostics", "no_such_dir/d.json", "[Errno 2] No such file or directory"),
    ("simulate-mask", "--output", "no_such_dir/m.csv", "[Errno 2] No such file or directory"),
    ("simulate-mask", "--mechanism", "no_such_dir/m.json",
     "[Errno 2] No such file or directory"),
    ("simulate-mask", "--output", ".", "[Errno 21] Is a directory"),
    ("metrics", "--out", "no_such_dir/r.json", "[Errno 2] No such file or directory"),
    ("verify", "--out", "no_such_dir/r.json", "[Errno 2] No such file or directory"),
    ("benchmark", "--out", "no_such_dir/r.csv", "[Errno 2] No such file or directory"),
    ("benchmark", "--summary", "no_such_dir/s.json", "[Errno 2] No such file or directory"),
])
def test_bad_argument_is_a_one_line_error(tmp_path, monkeypatch, truth_csv, masked_csv,
                                          command, flag, value, message):
    # the message names the file being read or written: the flag's own, or
    # for a masking setting the table it does not fit; an output that cannot
    # be written is found before any work and leaves no other output behind
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking its outputs")

    monkeypatch.setattr(cli_mod, "run_benchmark", no_work)
    monkeypatch.setattr(cli_mod, "run_all_checks", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "narrow.csv").write_text("a,b\n1,2\n")
    argv = _good_argv(command, str(truth_csv), str(masked_csv))
    argv += [flag, value]  # the last value counts
    with pytest.raises(SystemExit) as info:
        main(argv)
    named = str(truth_csv) if flag in ("--missing-cols", "--rate") else value
    assert str(info.value).startswith(f"shiftimpute: {named}: {message}")
    assert "\n" not in str(info.value)
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "out.json").exists()


def test_negative_seed_names_the_option(tmp_path, monkeypatch, truth_csv, masked_csv):
    # numpy would reject it while the CSV is being masked, and the message
    # would then name the CSV
    monkeypatch.chdir(tmp_path)
    argv = _good_argv("simulate-mask", str(truth_csv), str(masked_csv))
    with pytest.raises(SystemExit) as info:
        main(argv + ["--seed", "-1"])
    assert str(info.value) == "shiftimpute: --seed must be nonnegative, got -1"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_non_finite_alpha_names_the_option(tmp_path, monkeypatch, truth_csv,
                                           masked_csv, alpha):
    # the masking would reject the scores it gives, and the message would
    # then name the CSV
    monkeypatch.chdir(tmp_path)
    argv = _good_argv("simulate-mask", str(truth_csv), str(masked_csv))
    with pytest.raises(SystemExit) as info:
        main(argv + [f"--alpha={alpha}"])
    assert str(info.value) == (
        f"shiftimpute: --alpha must be finite, got {float(alpha)}")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_names_the_option(tmp_path, jobs):
    # no cell runs, and no results file is left behind
    out = tmp_path / "results.csv"
    with pytest.raises(SystemExit) as info:
        main(["benchmark", "--out", str(out), "--jobs", jobs])
    assert str(info.value) == f"shiftimpute: --jobs must be at least 1, got {jobs}"
    assert not out.exists()


def _csv_grid(tmp_path, dataset_path, **settings):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"dataset": {"kind": "csv",
                                            "path": str(dataset_path)},
                                **settings}))
    return str(grid)


@pytest.mark.parametrize("text, message", [
    (None, "[Errno 2] No such file or directory"),
    ("a,b\n1,x\n", "cannot parse 'x' as a number at row 0, column b"),
    # the default layout plants 4 missing columns
    ("a,b,c\n1,2,3\n4,5,6\n", "d=3 too small for 4 missing columns"),
])
def test_benchmark_csv_is_checked_before_any_cell(tmp_path, monkeypatch, text,
                                                  message):
    # one line naming the CSV, no cell run and no results file written
    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(bench_mod, "_run_cell", no_cell)
    path = tmp_path / "data.csv"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "results.csv"
    with pytest.raises(SystemExit) as info:
        main(["benchmark", "--grid", _csv_grid(tmp_path, path), "--out", str(out)])
    assert str(info.value).startswith(f"shiftimpute: {path}: {message}")
    assert "\n" not in str(info.value)
    assert not out.exists()


def test_benchmark_cell_error_is_not_blamed_on_the_csv(tmp_path, monkeypatch,
                                                       truth_csv):
    def failing_cell(*args):
        raise ValueError("a cell failed")

    monkeypatch.setattr(bench_mod, "_run_cell", failing_cell)
    grid = _csv_grid(tmp_path, truth_csv, n_missing_cols=2, n_predictors=2)
    with pytest.raises(ValueError, match="a cell failed"):
        main(["benchmark", "--grid", grid, "--out", str(tmp_path / "r.csv")])


def test_degenerate_mask_is_a_one_line_error(tmp_path):
    # at rate 0.98 both draws leave 3 rows fully missing in the planted column
    table = tmp_path / "tiny.csv"
    table.write_text("a,b\n1,2\n3,5\n4,4\n")
    with pytest.raises(SystemExit) as info:
        main(["simulate-mask", "--input", str(table),
              "--output", str(tmp_path / "out.csv"),
              "--mechanism", str(tmp_path / "mech.json"),
              "--missing-cols", "1", "--predictors", "1", "--rate", "0.98"])
    assert str(info.value) == (
        f"shiftimpute: {table}: degenerate mask for columns [1] after one "
        "resample; lower the rate or increase n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.csv"]


def test_output_check_keeps_existing_files(tmp_path, truth_csv, masked_csv):
    # the writability check opens for appending: a file it finds is neither
    # truncated nor removed when a later step fails
    out = tmp_path / "out.csv"
    out.write_text("keep me\n")
    with pytest.raises(SystemExit):
        main(["impute", "--input", str(tmp_path / "missing.csv"),
              "--output", str(out)])
    assert out.read_text() == "keep me\n"


def test_visitation_not_fitting_the_table_is_a_one_line_error(tmp_path, masked_csv):
    imputable = load_masked_csv(masked_csv).missing_columns()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"visitation": imputable[:1]}))
    with pytest.raises(SystemExit) as info:
        main(["impute", "--input", str(masked_csv), "--config", str(config),
              "--output", str(tmp_path / "out.csv")])
    assert str(info.value) == (
        f"shiftimpute: {config}: visitation order {imputable[:1]} is not a "
        f"permutation of the imputable columns {imputable}")
    assert not (tmp_path / "out.csv").exists()


def test_cached_parser_parses_each_call_afresh(tmp_path, truth_csv, masked_csv):
    assert cli_mod.build_parser() is cli_mod.build_parser()
    header, _, body = masked_csv.read_text(encoding="utf-8").partition("\n")
    headerless = tmp_path / "headerless.csv"
    headerless.write_text(body, encoding="utf-8")
    bare, named = tmp_path / "bare.csv", tmp_path / "named.csv"
    assert main(["impute", "--input", str(headerless), "--output", str(bare),
                 "--no-header"]) == 0
    # no --no-header now: the first line is read as the header, not as data
    assert main(["impute", "--input", str(masked_csv), "--output", str(named)]) == 0
    assert named.read_bytes() == header.encode() + b"\r\n" + bare.read_bytes()
    # a different subcommand after impute takes only its own options
    report = tmp_path / "report.json"
    assert main(["metrics", "--truth", str(truth_csv), "--imputed", str(named),
                 "--mask", str(masked_csv), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["masked_cell_count"] == \
        int((~load_masked_csv(masked_csv).mask.observed).sum())
