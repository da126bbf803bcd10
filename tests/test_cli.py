"""End-to-end command-line checks via click's test runner."""

from __future__ import annotations

import json
import math
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from nhpplearn import cli, experiments
from nhpplearn.cli import main
from nhpplearn import load_events, load_model, poisson_test_days


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def simulate_small(runner, out_dir, seed=0):
    return run_ok(runner, [
        "simulate", "--seed", str(seed), "--days-train", "3", "--days-test", "2",
        "--out-dir", str(out_dir),
        "--config", _small_cfg(out_dir),
    ])


def _small_cfg(out_dir):
    cfg = out_dir / "cfg.json"
    cfg.write_text(json.dumps({"count_lo": 700, "count_hi": 800}))
    return str(cfg)


REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


@pytest.mark.parametrize("seed", [0, 1])
def test_tikhonov_pipeline_matches_stored_reference(runner, tmp_path, seed):
    # the benchmark's files workload: simulate, tikhonov learn at degree 1, eval
    data, fit = tmp_path / "data", tmp_path / "fit"
    run_ok(runner, [
        "simulate", "--seed", str(seed), "--days-train", "30", "--days-test", "8", "--out-dir", str(data),
    ])
    run_ok(runner, [
        "learn", "--input", str(data / "train.csv"), "--test-input", str(data / "test.csv"),
        "--method", "tikhonov", "--degree", "1", "--seed", str(seed), "--out-dir", str(fit),
    ])
    echoed = run_ok(runner, ["eval", "--model", str(fit / "model.json"), "--input", str(data / "test.csv")])
    model = json.loads((fit / "model.json").read_text())
    report = json.loads((fit / "report.json").read_text())
    got = {
        "model.knots": model["knots"],
        "report": {k: report[k] for k in ("knots", "n_bins", "gamma", "rmse_train", "rmse_test")},
        "eval": echoed.output.strip(),
    }
    with open(REFERENCE_DIR / "files.json") as fh:
        want = json.load(fh)["seeds"][str(seed)]["fit.json"]
    assert json.dumps(got, indent=1) + "\n" == want


def test_simulate_then_learn_then_eval(runner, tmp_path):
    result = simulate_small(runner, tmp_path)
    assert "train.csv" in result.output and "test.csv" in result.output
    assert (tmp_path / "train.csv").exists()

    result = run_ok(runner, [
        "learn", "--input", str(tmp_path / "train.csv"),
        "--test-input", str(tmp_path / "test.csv"),
        "--method", "equal:8", "--degree", "1",
        "--out-dir", str(tmp_path / "fit"),
    ])
    assert "bins=8" in result.output
    assert "rmse_test=" in result.output
    model = load_model(tmp_path / "fit" / "model.json")
    assert model.partition.n_bins == 8
    report = json.loads((tmp_path / "fit" / "report.json").read_text())
    assert report["method"] == "equal:8"
    assert report["n_bins"] == 8

    result = run_ok(runner, [
        "eval", "--model", str(tmp_path / "fit" / "model.json"),
        "--input", str(tmp_path / "test.csv"),
    ])
    assert result.output.startswith("rmse=")
    # eval on the test file reproduces the learn-time test RMSE
    rmse = float(result.output.split()[0].split("=")[1])
    assert rmse == pytest.approx(report["rmse_test"], rel=1e-4)


def test_eval_scores_at_the_model_resolution(runner, tmp_path):
    simulate_small(runner, tmp_path)
    result = run_ok(runner, [
        "learn", "--input", str(tmp_path / "train.csv"),
        "--test-input", str(tmp_path / "test.csv"),
        "--method", "equal:4", "--degree", "1", "--resolution", "60",
        "--out-dir", str(tmp_path / "fit"),
    ])
    report = json.loads((tmp_path / "fit" / "report.json").read_text())
    model_path = str(tmp_path / "fit" / "model.json")
    assert load_model(model_path).resolution == 60.0

    # no --resolution: the model's 60 s cells, reproducing the learn-time RMSE
    result = run_ok(runner, ["eval", "--model", model_path, "--input", str(tmp_path / "test.csv")])
    assert "cells=1440" in result.output
    rmse = float(result.output.split()[0].split("=")[1])
    assert rmse == pytest.approx(report["rmse_test"], rel=1e-4)

    # the old 300 s default would compare per-minute rates with 5-minute counts
    result = runner.invoke(main, [
        "eval", "--model", model_path, "--input", str(tmp_path / "test.csv"), "--resolution", "300",
    ])
    assert result.exit_code != 0
    assert "learned on 60 s cells" in result.output and "300 s cells" in result.output


def test_eval_without_model_resolution_defaults_to_300(runner, tmp_path):
    simulate_small(runner, tmp_path)
    run_ok(runner, [
        "learn", "--input", str(tmp_path / "train.csv"),
        "--method", "equal:4", "--degree", "1", "--out-dir", str(tmp_path / "fit"),
    ])
    model_path = tmp_path / "fit" / "model.json"
    payload = json.loads(model_path.read_text())
    del payload["resolution"]  # a model file from before the field existed
    model_path.write_text(json.dumps(payload))
    result = run_ok(runner, ["eval", "--model", str(model_path), "--input", str(tmp_path / "test.csv")])
    assert "cells=288" in result.output


def test_learn_adaptive_method_runs(runner, tmp_path):
    simulate_small(runner, tmp_path)
    result = run_ok(runner, [
        "learn", "--input", str(tmp_path / "train.csv"),
        "--method", "ivanov", "--degree", "1", "--seed", "5",
        "--out-dir", str(tmp_path / "fit"),
    ])
    assert "method=ivanov" in result.output
    # report.json holds the run's own facts and nothing else
    report = json.loads((tmp_path / "fit" / "report.json").read_text())
    assert list(report) == [
        "method", "knots", "n_bins", "bin_sizes", "binned_risk", "penalized_risk",
        "rmse_train", "rmse_test", "seed", "gamma", "epsilon", "eta_seconds",
    ]


@pytest.mark.parametrize("method, applied", [
    ("ivanov", {"epsilon"}),
    ("tikhonov", {"gamma", "penalized_risk"}),
    ("relaxed", {"eta_seconds"}),
    ("equal:4", set()),
])
def test_report_gives_null_for_each_setting_that_did_not_apply(runner, tmp_path, method, applied):
    # ivanov used to report the gamma, eta and penalized risk it never used
    simulate_small(runner, tmp_path)
    run_ok(runner, [
        "learn", "--input", str(tmp_path / "train.csv"), "--method", method, "--degree", "1",
        "--gamma", "0.5", "--eta", "120", "--epsilon", "0.05", "--out-dir", str(tmp_path / "fit"),
    ])
    report = json.loads((tmp_path / "fit" / "report.json").read_text())
    settings = ("gamma", "penalized_risk", "epsilon", "eta_seconds")
    assert {k for k in settings if report[k] is not None} == applied


def test_test_poisson_verdicts(runner, tmp_path):
    simulate_small(runner, tmp_path)
    # the built-in rate is far from constant over the full day
    result = run_ok(runner, ["test-poisson", "--input", str(tmp_path / "train.csv")])
    assert "verdict: FAIL" in result.output
    # mid-segment slice, small interval: close enough to constant to pass
    result = run_ok(runner, [
        "test-poisson", "--input", str(tmp_path / "train.csv"),
        "--lo", "36000", "--hi", "39600",
    ])
    assert "verdict:" in result.output
    assert "days=3" in result.output
    # the same verdict as testing masked copies of each day's arrivals
    series = load_events(tmp_path / "train.csv")
    masked = [arr[(arr >= 36000.0) & (arr < 39600.0)] for arr in series.days]
    want = poisson_test_days(masked, 36000.0, 39600.0)
    assert f"tested_days={want.n_tested}  passed_days={want.n_passed} " in result.output
    assert f"verdict: {'PASS' if want.passed else 'FAIL'}" in result.output


def test_exp1_cli_writes_csv(runner, tmp_path):
    run_ok(runner, [
        "exp1", "--seed", "0", "--out-dir", str(tmp_path),
        "--days-train", "2", "--days-test", "1", "--degree", "1",
        "--eta-sweep", "600,120",
        "--config", _small_cfg(tmp_path),
    ])
    lines = (tmp_path / "exp1.csv").read_text().splitlines()
    assert lines[0] == "eta,bins,rmse_train,rmse_test"
    assert len(lines) == 3


def test_exp1_cli_rejects_unknown_test_mode(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count_lo": 700, "count_hi": 800, "test_mode": "daily"}))
    result = runner.invoke(main, [
        "exp1", "--seed", "0", "--out-dir", str(tmp_path / "out"),
        "--days-train", "2", "--days-test", "1", "--eta-sweep", "600",
        "--config", str(cfg),
    ])
    assert result.exit_code != 0
    assert f"{cfg}: unknown aggregation mode 'daily'" in result.output
    assert not (tmp_path / "out").exists()


def test_exp3_cli_synthetic_fallback(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "count_lo": 150, "count_hi": 200,
        "max_depth": 3, "max_bins": 3, "max_restarts": 1, "max_retries": 1,
    }))
    run_ok(runner, [
        "exp3", "--seed", "0", "--out-dir", str(tmp_path / "out"),
        "--clusters", "3", "--days-train", "2", "--days-test", "1",
        "--config", str(cfg),
    ])
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert index["clusters"] == 3
    assert (tmp_path / "out" / "exp3_summary.csv").exists()


def test_exp3_simulates_with_the_settings_of_its_config(runner, tmp_path):
    # the synthetic city data ignored the config's count range, rate and
    # simulation mode, so each of these runs wrote the default's bytes
    small = {"max_depth": 3, "max_bins": 3, "max_restarts": 1, "max_retries": 1}
    flat = {"breakpoints": [0, 86400], "segments": [[0, 2]], "scale": 300}
    summaries = {}
    for name, extra in [
        ("default", {}),
        ("same range", {"count_lo": 600, "count_hi": 800}),
        ("range", {"count_lo": 5, "count_hi": 6}),
        ("thinning", {"sim_mode": "thinning", "rate": flat}),
        ("rate", {"rate": flat, "count_lo": 600, "count_hi": 800}),
    ]:
        cfg = tmp_path / f"{len(summaries)}.json"
        cfg.write_text(json.dumps({**small, **extra}))
        out = tmp_path / f"out{len(summaries)}"
        run_ok(runner, [
            "exp3", "--config", str(cfg), "--days-train", "3", "--days-test", "1", "--clusters", "2",
            "--out-dir", str(out),
        ])
        summaries[name] = (out / "exp3_summary.csv").read_bytes()
    # exp3's own count range is 600-800, the one the synthetic data always used
    assert summaries["same range"] == summaries["default"]
    for name in ("range", "thinning", "rate"):
        assert summaries[name] != summaries["default"], name
    events = [int(line.split(b",")[1]) for line in summaries["range"].splitlines()[1:]]
    assert sum(events) <= 4 * 6


def test_errors_exit_nonzero(runner, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    result = runner.invoke(main, ["learn", "--input", str(bad)])
    assert result.exit_code != 0
    assert "expected header" in result.output

    result = runner.invoke(main, ["learn", "--input", str(tmp_path / "missing.csv")])
    assert result.exit_code != 0

    # unknown method surfaces the parse error, not a stack trace
    good = tmp_path / "ok.csv"
    good.write_text("day,seconds\n0,10.0\n0,20.0\n")
    result = runner.invoke(main, ["learn", "--input", str(good), "--method", "bogus"])
    assert result.exit_code != 0
    assert "unknown method 'bogus'" in result.output
    # so does an equal:N whose N is not a number, or is more than the cells
    result = runner.invoke(main, ["learn", "--input", str(good), "--method", "equal:abc"])
    assert result.exit_code == 1
    assert "unknown method 'equal:abc' (expected ivanov, tikhonov, relaxed or equal:N" in result.output
    result = runner.invoke(main, ["learn", "--input", str(good), "--method", "equal:289"])
    assert result.exit_code == 1
    assert "asks for 289 bins, more than the 288 cells of the training window" in result.output
    assert not (tmp_path / "model.json").exists()


def test_field_over_the_size_limit_is_a_clean_error(runner, tmp_path):
    long = tmp_path / "long.csv"
    long.write_text("day,seconds\n0," + "0" * 140_000 + "1.5\n")
    result = runner.invoke(main, ["learn", "--input", str(long), "--method", "equal:2"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert f"{long}: line 2: field larger than field limit" in result.output


def test_learn_relaxed_requires_eta(runner, tmp_path):
    good = tmp_path / "ok.csv"
    good.write_text("day,seconds\n" + "\n".join(f"0,{t}.0" for t in range(100, 5000, 40)) + "\n")
    result = runner.invoke(main, ["learn", "--input", str(good), "--method", "relaxed"])
    assert result.exit_code != 0
    assert "eta" in result.output.lower()
    # named as the flag, in minutes, and before the events are read
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    result = runner.invoke(main, ["learn", "--input", str(bad), "--method", "relaxed"])
    assert result.exit_code == 1
    assert "Error: --method relaxed needs --eta, the smallest divisible half-interval in minutes" in result.output


@pytest.mark.parametrize("args, message", [
    (["--method", "tikhonov", "--gamma", "nan"], "gamma must be finite and nonnegative, got nan"),
    (["--method", "tikhonov", "--gamma", "inf"], "gamma must be finite and nonnegative, got inf"),
    (["--method", "relaxed", "--eta", "nan"], "--eta must be a finite, positive number of minutes, got nan"),
    (["--resolution", "0"], "resolution must be positive and finite, got 0.0"),
    (["--resolution", "-5"], "resolution must be positive and finite, got -5.0"),
    (["--resolution", "nan"], "resolution must be positive and finite, got nan"),
    (["--resolution", "1e-9"], "resolution 1e-09 cuts the 86400 s window into 8.64e+13 cells"),
    (["--method", "relaxed", "--eta", "0"], "--eta must be a finite, positive number of minutes, got 0.0"),
    (["--method", "ivanov", "--eta", "-5"], "--eta must be a finite, positive number of minutes, got -5.0"),
    (["--method", "relaxed", "--eta", "inf"], "--eta must be a finite, positive number of minutes, got inf"),
])
def test_learn_rejects_non_finite_and_non_positive_settings(runner, tmp_path, args, message):
    good = tmp_path / "ok.csv"
    good.write_text("day,seconds\n" + "\n".join(f"0,{t}.0" for t in range(100, 5000, 40)) + "\n")
    result = runner.invoke(main, ["learn", "--input", str(good), "--out-dir", str(tmp_path / "fit"), *args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert message in result.output
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("args, message", [
    (["learn", "--method", "equal:2", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["exp1", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["exp3", "--clusters", "0"], "clusters must be at least 1, got 0"),
    (["exp3", "--clusters", "-2"], "clusters must be at least 1, got -2"),
    # exp3 simulated one day, trained on it and wrote an empty rmse_test column
    (["exp3", "--days-train", "2", "--days-test", "-1", "--clusters", "2"], "n_test_days must be nonnegative, got -1"),
    # exp3 made --out-dir before it clustered, and left it behind
    (["exp3", "--days-train", "1", "--days-test", "1", "--clusters", "5000"], "cannot form 5000 clusters from"),
])
def test_a_bad_seed_or_cluster_count_is_named(runner, tmp_path, args, message):
    good = tmp_path / "ok.csv"
    good.write_text("day,seconds\n" + "\n".join(f"0,{t}.0" for t in range(100, 5000, 40)) + "\n")
    if args[0] == "learn":
        args = [*args, "--input", str(good)]
    result = runner.invoke(main, [*args, "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert f"Error: {message}" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload, message", [
    ({"max_restarts": 2.5}, "max_restarts must be an integer, got 2.5"),
    ({"degree": 1.5}, "degree must be an integer, got 1.5"),
    ({"max_depth": 2.5}, "max_depth must be an integer, got 2.5"),
    ({"count_lo": 1.5}, "count_lo must be an integer, got 1.5"),
    ({"rate": {"breakpoints": [0, 43200, 86400], "segments": [[0, 10], [0, math.nan]], "scale": 300}},
     "intercepts must be finite, got [10.0, nan]"),
])
def test_exp2_config_with_a_bad_setting_fails_by_name(runner, tmp_path, payload, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_train_days": 2, "n_test_days": 1, **payload}))
    result = runner.invoke(main, ["exp2", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert message in result.output
    assert not (tmp_path / "out" / "exp2.csv").exists()


@pytest.mark.parametrize("payload, message", [
    ({"resolution": "x"}, "resolution must be a number, got 'x'"),
    ({"gamma": "x"}, "gamma must be a number, got 'x'"),
    ({"epsilon": "x"}, "epsilon must be a number, got 'x'"),
    ({"epsilon": True}, "epsilon must be a number, got True"),
    ({"sim_mode": "x"}, "sim_mode must be one of conditioned, thinning, got 'x'"),
    ({"sim_mode": 1}, "sim_mode must be a string, got 1"),
    ({"test_method": ["log"]}, "test_method must be a string, got ['log']"),
    ({"clamp": "no"}, "clamp must be true or false, got 'no'"),
    ({"clamp": 0}, "clamp must be true or false, got 0"),
])
def test_a_config_setting_of_the_wrong_type_is_named_before_any_output(runner, tmp_path, payload, message):
    # a string resolution or gamma ended in a TypeError traceback (resolution
    # after --out-dir was made), a string epsilon in a comparison traceback,
    # a bad sim_mode after --out-dir was made, and "no" was taken as clamp=true
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    result = runner.invoke(main, [
        "exp2", "--config", str(cfg), "--days-train", "2", "--days-test", "1", "--out-dir", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert f"Error: {cfg}: {message}" in result.output
    assert not (tmp_path / "out").exists()


def test_a_config_keeps_the_type_of_each_value(tmp_path):
    # an int is a number, and it is not converted, so outputs keep their bytes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolution": 600, "gamma": 0, "epsilon": 0.1, "clamp": False}))
    read = experiments.ExperimentConfig.from_file(cfg)
    assert (read.resolution, read.gamma, read.epsilon, read.clamp) == (600, 0, 0.1, False)
    assert type(read.resolution) is int and type(read.gamma) is int


@pytest.mark.parametrize("command, payload, message", [
    ("exp2", {"resolution": 0}, "resolution must be positive and finite, got 0"),
    ("exp1", {"resolution": 0}, "resolution must be positive and finite, got 0"),
    ("exp2", {"resolution": 1e-9}, "resolution 1e-09 cuts the 86400 s window into 8.64e+13 cells"),
    ("exp1", {"count_lo": 10, "count_hi": 5}, "count_range must satisfy 0 <= lo <= hi, got (10, 5)"),
    ("exp1", {"count_lo": 10, "count_hi": 5, "sim_mode": "thinning"},
     "count_range must satisfy 0 <= lo <= hi, got (10, 5)"),
    ("exp2", {"count_lo": -1}, "count_range must satisfy 0 <= lo <= hi, got (-1, 8000)"),
    ("exp3", {"n_test_days": -1}, "n_test_days must be nonnegative, got -1"),
])
def test_a_config_setting_out_of_range_is_named_before_any_output(runner, tmp_path, command, payload, message):
    # a zero resolution or an inverted count range was refused only once exp1
    # or exp2 had made --out-dir, without the file named; a thinning config
    # never uses the count range and ran; exp3 ran with no test days
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    days = ["--days-train", "2"] + ([] if "n_test_days" in payload else ["--days-test", "1"])
    result = runner.invoke(main, [command, "--config", str(cfg), *days, "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert f"Error: {cfg}: {message}" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-5", "nan"])
def test_eval_rejects_a_bad_resolution(runner, tmp_path, value):
    simulate_small(runner, tmp_path)
    run_ok(runner, [
        "learn", "--input", str(tmp_path / "train.csv"), "--method", "equal:4", "--degree", "1",
        "--out-dir", str(tmp_path / "fit"),
    ])
    result = runner.invoke(main, [
        "eval", "--model", str(tmp_path / "fit" / "model.json"), "--input", str(tmp_path / "test.csv"),
        "--resolution", value,
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"resolution must be positive and finite, got {float(value)!r}" in result.output


@pytest.mark.parametrize("field, value, message", [
    ("window", {"start": [0], "end": 86400.0}, "field 'window' start must be a number, got [0]"),
    ("knots", "5", "field 'knots' must be a list of numbers"),
    ("degree", True, "field 'degree' must be a nonnegative integer"),
])
def test_eval_names_a_bad_model_field(runner, tmp_path, field, value, message):
    # a window start that float() refuses ended eval in a TypeError traceback
    simulate_small(runner, tmp_path)
    run_ok(runner, [
        "learn", "--input", str(tmp_path / "train.csv"), "--method", "equal:4", "--degree", "1",
        "--out-dir", str(tmp_path / "fit"),
    ])
    model_path = tmp_path / "fit" / "model.json"
    payload = json.loads(model_path.read_text())
    payload[field] = value
    model_path.write_text(json.dumps(payload))
    result = runner.invoke(main, ["eval", "--model", str(model_path), "--input", str(tmp_path / "test.csv")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {model_path}: {message}" in result.output


def test_eval_names_a_resolution_with_too_many_cells(runner, tmp_path):
    simulate_small(runner, tmp_path)
    run_ok(runner, [
        "learn", "--input", str(tmp_path / "train.csv"), "--method", "equal:4", "--degree", "1",
        "--out-dir", str(tmp_path / "fit"),
    ])
    result = runner.invoke(main, [
        "eval", "--model", str(tmp_path / "fit" / "model.json"), "--input", str(tmp_path / "test.csv"),
        "--resolution", "1e-9",
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a MemoryError traceback
    assert "Error: resolution 1e-09 cuts the 86400 s window into 8.64e+13 cells, more than the 1000000 allowed" in (
        result.output
    )


def test_exp1_rejects_an_eta_sweep_that_is_not_numbers(runner, tmp_path):
    result = runner.invoke(main, ["exp1", "--out-dir", str(tmp_path / "out"), "--eta-sweep", "a,b"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Invalid value for '--eta-sweep': 'a,b' is not a comma-separated list of numbers" in result.output
    assert not (tmp_path / "out").exists()


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulated before the settings were checked")


@pytest.mark.parametrize("args, message", [
    (["exp1", "--days-train", "0", "--days-test", "1"], "n_train_days must be at least 1 for this experiment, got 0"),
    (["exp1", "--days-train", "1", "--days-test", "0"], "n_test_days must be at least 1 for this experiment, got 0"),
    (["exp2", "--days-train", "0", "--days-test", "1"], "n_train_days must be at least 1 for this experiment, got 0"),
    (["exp2", "--days-train", "2", "--days-test", "0"], "n_test_days must be at least 1 for this experiment, got 0"),
])
def test_exp1_and_exp2_refuse_zero_days_before_simulating(runner, tmp_path, monkeypatch, args, message):
    # exp2 with no training days used to simulate and then stop at "count table has no observed days"
    monkeypatch.setattr(experiments, "make_dataset", _no_simulation)
    result = runner.invoke(main, [*args, "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert f"Error: {message}" in result.output
    assert not (tmp_path / "out" / f"{args[0]}.csv").exists()


def test_exp3_still_runs_without_test_days(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "count_lo": 150, "count_hi": 200, "max_depth": 3, "max_bins": 3, "max_restarts": 1, "max_retries": 1,
    }))
    run_ok(runner, [
        "exp3", "--out-dir", str(tmp_path / "out"), "--clusters", "2", "--days-train", "2", "--days-test", "0",
        "--config", str(cfg),
    ])
    assert (tmp_path / "out" / "exp3_summary.csv").exists()


def test_simulate_refuses_zero_training_days_before_simulating(runner, tmp_path, monkeypatch):
    # it used to write a header-only train.csv, which learn then refused
    monkeypatch.setattr(cli, "make_dataset", _no_simulation)
    result = runner.invoke(main, ["simulate", "--days-train", "0", "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert "Error: n_train_days must be at least 1, got 0" in result.output
    assert not (tmp_path / "out").exists()


def test_simulate_names_a_negative_test_day_count(runner, tmp_path):
    result = runner.invoke(main, ["simulate", "--days-test", "-1", "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Error: n_test_days must be nonnegative, got -1" in result.output
    assert not (tmp_path / "out").exists()


def test_simulate_refuses_a_day_with_no_arrivals(runner, tmp_path):
    # an event file cannot hold an empty day: this run wrote 13 events in 10
    # days, and train.csv loaded as 8 days
    cfg = tmp_path / "sparse.json"
    cfg.write_text(json.dumps({"count_lo": 0, "count_hi": 2}))
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", "--config", str(cfg), "--days-train", "10", "--out-dir", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert "Error: simulated train day 2 has no arrivals" in result.output
    assert not out.exists()


BAD_JSON = [
    ("[]", "config file must hold a JSON object, got list"),
    ("[1]", "config file must hold a JSON object, got list"),
    ('"x"', "config file must hold a JSON object, got str"),
    ("{x", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ('{"rate": {"breakpoints": [0, 86400]}}', "rate config missing field 'segments'"),
    ('{"rate": {"breakpoints": [0, 86400], "segments": [1]}}',
     "rate config segment 0 must be a pair of numbers [slope, intercept], got 1"),
    ('{"rate": {"breakpoints": [0, 86400], "segments": [[0, 1]], "scale": null}}',
     "rate config field 'scale' must be a number, got None"),
    ('{"rate": {"breakpoints": [0, 86400], "segments": [[0, 1]], "scale": "x"}}',
     "rate config field 'scale' must be a number, got 'x'"),
    ('{"rate": [0, 86400]}', "rate config must be an object, got [0, 86400]"),
]


@pytest.mark.parametrize("command", ["exp1", "exp2", "simulate"])
@pytest.mark.parametrize("text, message", BAD_JSON)
def test_a_bad_config_file_is_named_before_any_output(runner, tmp_path, command, text, message):
    # [] ended in a TypeError traceback, a bad rate after exp1 and exp2 had
    # made --out-dir, and neither JSON errors nor rate errors named the file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    result = runner.invoke(main, [command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert f"Error: {cfg}: {message}" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["day,seconds\n0,1.0\n", "\xff"])
def test_eval_names_a_model_file_that_is_not_json(runner, tmp_path, text):
    model = tmp_path / "train.csv"
    model.write_bytes(text.encode("latin-1"))
    result = runner.invoke(main, ["eval", "--model", str(model), "--input", str(model)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {model}: invalid JSON: " in result.output


@pytest.mark.parametrize("bounds, message", [
    (["--lo", "90000", "--hi", "95000"], "--hi 95000 is above the end of the window [0, 86400)"),
    (["--hi", "86400.5"], "--hi 86400.5 is above the end of the window [0, 86400)"),
    (["--lo", "-1", "--hi", "3600"], "--lo -1 is below the start of the window [0, 86400)"),
])
def test_test_poisson_refuses_an_interval_outside_the_window(runner, tmp_path, bounds, message):
    # the file holds no arrival there, so the interval used to pass with no day tested
    simulate_small(runner, tmp_path)
    result = runner.invoke(main, ["test-poisson", "--input", str(tmp_path / "train.csv"), *bounds])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: {message}" in result.output


def test_test_poisson_takes_the_whole_window_by_its_bounds(runner, tmp_path):
    simulate_small(runner, tmp_path)
    train = str(tmp_path / "train.csv")
    default = run_ok(runner, ["test-poisson", "--input", train]).output
    assert run_ok(runner, ["test-poisson", "--input", train, "--lo", "0", "--hi", "86400"]).output == default


def _no_clustering(*args, **kwargs):
    raise AssertionError("clustered before the days were checked")


def test_exp3_refuses_to_train_on_its_held_out_days(runner, tmp_path, monkeypatch):
    # it used to train on the one day it held out and write an empty rmse_test column
    monkeypatch.setattr(experiments, "learn_per_area", _no_clustering)
    result = runner.invoke(main, [
        "exp3", "--days-train", "0", "--days-test", "1", "--clusters", "2", "--out-dir", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Error: n_test_days=1 leaves none of the data's days to train on (it has 1)" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep, shown", [("600,nan", "nan"), ("0", "0.0"), ("600,-10", "-10.0"), ("inf", "inf")])
def test_exp1_refuses_an_eta_sweep_that_is_not_positive_before_simulating(
    runner, tmp_path, monkeypatch, sweep, shown
):
    # 600,nan used to run the whole 600-minute search and then fail on eta_seconds
    monkeypatch.setattr(experiments, "make_dataset", _no_simulation)
    result = runner.invoke(main, ["exp1", "--out-dir", str(tmp_path / "out"), "--eta-sweep", sweep])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"Error: eta_sweep_minutes must be finite and positive, got {shown}" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epsilon", ["0.5", "0.7"])
def test_test_poisson_refuses_a_per_day_epsilon_without_a_bar(runner, tmp_path, epsilon):
    # the default bar 1 - 2 * epsilon is <= 0 there: every file passed with no day tested
    simulate_small(runner, tmp_path)
    train = str(tmp_path / "train.csv")
    result = runner.invoke(main, ["test-poisson", "--input", train, "--epsilon", epsilon])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert (
        f"Error: epsilon must be in (0, 0.5) in per-day mode without min_pass_fraction, got {float(epsilon)!r}"
        in result.output
    )
    # pooled mode tests the merged days and keeps (0, 1)
    result = run_ok(runner, ["test-poisson", "--input", train, "--epsilon", epsilon, "--mode", "pooled"])
    assert "tested_days=3" in result.output
    assert "verdict: FAIL" in result.output  # the built-in rate is far from constant over the day


def _describe_type(param_type):
    if isinstance(param_type, click.Choice):
        return ("choice", tuple(param_type.choices))
    if isinstance(param_type, click.Path):
        return ("path", param_type.exists)
    return param_type.name


def _surface(params):
    """(flags, name, type, default, required, help, show_default) of each parameter."""
    rows = []
    for p in params:
        # click 8.3+ gives a required option a sentinel default; it is never used
        default = None if p.required else p.default
        rows.append((tuple(p.opts + p.secondary_opts), p.name, _describe_type(p.type), default, p.required,
                     p.help, p.show_default))
    return rows


# Every command's help line and parameters as the commands declared them one by
# one, before the config-backed flags moved into one table.  Frozen: a change
# here adds, drops or changes a flag.
FLAG_SURFACE = {
    "simulate": ("Generate train/test event files from the built-in or configured rate.", [
        (("--config",), "config_path", ("path", True), None, False, "JSON config file.", None),
        (("--seed",), "seed", "integer", None, False, None, None),
        (("--days-train",), "days_train", "integer", None, False, None, None),
        (("--days-test",), "days_test", "integer", None, False, None, None),
        (("--mode",), "mode", ("choice", ("conditioned", "thinning")), None, False, None, None),
        (("--out-dir",), "out_dir", ("path", False), None, False, None, None),
    ]),
    "test-poisson": ("Test an event file for the homogeneous-Poisson property on an interval.", [
        (("--input",), "input_path", ("path", True), None, True, None, None),
        (("--epsilon",), "epsilon", "float", 0.05, False, None, True),
        (("--method",), "method", ("choice", ("log", "ks-uniform")), "log", False, None, True),
        (("--mode",), "mode", ("choice", ("per-day", "pooled")), "per-day", False, None, True),
        (("--lo",), "lo", "float", None, False, "Interval start (default: window start).", None),
        (("--hi",), "hi", "float", None, False, "Interval end (default: window end).", None),
    ]),
    "learn": ("Fit a piecewise rate model to an event file; writes model.json and report.json.", [
        (("--input",), "input_path", ("path", True), None, True, "Training events CSV.", None),
        (("--test-input",), "test_input", ("path", True), None, False, "Held-out events CSV.", None),
        (("--config",), "config_path", ("path", True), None, False, None, None),
        (("--method",), "method", "text", None, False, "ivanov | tikhonov | relaxed | equal:N", None),
        (("--degree",), "degree", "integer", None, False, None, None),
        (("--gamma",), "gamma", "float", None, False, None, None),
        (("--epsilon",), "epsilon", "float", None, False, None, None),
        (("--eta",), "eta_minutes", "float", None, False, "2*eta is the smallest divisible interval (minutes).", None),
        (("--resolution",), "resolution", "float", None, False, None, None),
        (("--seed",), "seed", "integer", None, False, None, None),
        (("--out-dir",), "out_dir", ("path", False), None, False, None, None),
    ]),
    "exp1": ("Bin-budget sweep (train/test error versus bin count).", [
        (("--config",), "config_path", ("path", True), None, False, None, None),
        (("--seed",), "seed", "integer", None, False, None, None),
        (("--out-dir",), "out_dir", ("path", False), None, False, None, None),
        (("--days-train",), "days_train", "integer", None, False, None, None),
        (("--days-test",), "days_test", "integer", None, False, None, None),
        (("--degree",), "degree", "integer", None, False, None, None),
        (("--epsilon",), "epsilon", "float", None, False, None, None),
        (("--eta-sweep",), "eta_sweep", "text", None, False, "Comma-separated eta grid in minutes.", None),
    ]),
    "exp2": ("Adaptive binning versus unbinned and equal-length baselines.", [
        (("--config",), "config_path", ("path", True), None, False, None, None),
        (("--seed",), "seed", "integer", None, False, None, None),
        (("--out-dir",), "out_dir", ("path", False), None, False, None, None),
        (("--days-train",), "days_train", "integer", None, False, None, None),
        (("--days-test",), "days_test", "integer", None, False, None, None),
        (("--degree",), "degree", "integer", None, False, None, None),
        (("--gamma",), "gamma", "float", None, False, None, None),
        (("--epsilon",), "epsilon", "float", None, False, None, None),
    ]),
    "exp3": ("Cluster locations into areas and learn one rate model per area.", [
        (("--config",), "config_path", ("path", True), None, False, None, None),
        (("--input",), "geo_path", ("path", True), None, False, "Geo events CSV; omitted -> synthetic city data.", None),
        (("--seed",), "seed", "integer", None, False, None, None),
        (("--out-dir",), "out_dir", ("path", False), None, False, None, None),
        (("--clusters",), "clusters", "integer", None, False, None, None),
        (("--days-train",), "days_train", "integer", None, False, None, None),
        (("--days-test",), "days_test", "integer", None, False, None, None),
    ]),
    "eval": ("Score a saved model against an event file (RMSE on cell counts).", [
        (("--model",), "model_path", ("path", True), None, True, None, None),
        (("--input",), "input_path", ("path", True), None, True, None, None),
        (("--resolution",), "resolution", "float", None, False,
         "Cell length in seconds [default: the model's, else 300].", None),
    ]),
}

# click's parameter name of a config-backed flag is now the field it sets;
# the name is internal, the flag the user types is unchanged
RENAMED = {"days_train": "n_train_days", "days_test": "n_test_days", "eta_sweep": "eta_sweep_minutes"}


@pytest.mark.parametrize("command", sorted(FLAG_SURFACE))
def test_flag_surface_is_unchanged(command):
    assert sorted(main.commands) == sorted(FLAG_SURFACE)
    help_line, frozen = FLAG_SURFACE[command]
    renamed = {**RENAMED, "mode": "sim_mode"} if command == "simulate" else RENAMED

    def allowed(rows, rename):
        # options may change order, and --config may gain its help text
        out = []
        for flags, name, *rest in rows:
            if flags == ("--config",) and rest[3] is None:
                rest[3] = "JSON config file."
            out.append((flags, rename.get(name, name), *rest))
        return sorted(out, key=repr)

    assert main.commands[command].help == help_line
    assert allowed(_surface(main.commands[command].params), {}) == allowed(frozen, renamed)
