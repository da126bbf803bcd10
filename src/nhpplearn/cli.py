"""Command-line entry points: simulate, test, learn, experiments, evaluate."""

from __future__ import annotations

import json
from pathlib import Path

import click
import numpy as np

from .binning import learn as learn_model
from .core import CountTable, TimeWindow
from .dataio import load_events, load_geo_events, load_model, save_events, save_model
from .experiments import (
    ExperimentConfig,
    make_synthetic_geo,
    run_experiment_1,
    run_experiment_2,
    run_experiment_3,
)
from .regression import evaluate as evaluate_model
from .simulate import make_dataset
from .stat_tests import poisson_test_days


def _fail_on_value_error(fn):
    """Surface domain validation errors as clean nonzero exits."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            raise click.ClickException(str(exc))

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _load_cfg(config_path: str | None, defaults: ExperimentConfig, **overrides) -> ExperimentConfig:
    cfg = defaults
    if config_path:
        cfg = ExperimentConfig.from_file(config_path, defaults=defaults)
    return cfg.with_overrides(**overrides)


@click.group()
def main() -> None:
    """Learn time-of-day rate profiles from event streams."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="JSON config file.")
@click.option("--seed", type=int, default=None)
@click.option("--days-train", type=int, default=None)
@click.option("--days-test", type=int, default=None)
@click.option("--mode", type=click.Choice(["conditioned", "thinning"]), default=None)
@click.option("--out-dir", type=click.Path(), default=None)
@_fail_on_value_error
def simulate(config_path, seed, days_train, days_test, mode, out_dir):
    """Generate train/test event files from the built-in or configured rate."""
    cfg = _load_cfg(
        config_path, ExperimentConfig(),
        seed=seed, n_train_days=days_train, n_test_days=days_test, sim_mode=mode, out_dir=out_dir,
    )
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train, test = make_dataset(
        cfg.build_rate(), cfg.n_train_days, cfg.n_test_days,
        seed=cfg.seed, mode=cfg.sim_mode, count_range=(cfg.count_lo, cfg.count_hi),
    )
    save_events(train, out / "train.csv")
    save_events(test, out / "test.csv")
    click.echo(f"wrote {out / 'train.csv'} ({train.total_events} events, {train.n_days} days)")
    click.echo(f"wrote {out / 'test.csv'} ({test.total_events} events, {test.n_days} days)")


@main.command("test-poisson")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--epsilon", type=float, default=0.05, show_default=True)
@click.option("--method", type=click.Choice(["log", "ks-uniform"]), default="log", show_default=True)
@click.option("--mode", type=click.Choice(["per-day", "pooled"]), default="per-day", show_default=True)
@click.option("--lo", type=float, default=None, help="Interval start (default: window start).")
@click.option("--hi", type=float, default=None, help="Interval end (default: window end).")
@_fail_on_value_error
def test_poisson(input_path, epsilon, method, mode, lo, hi):
    """Test an event file for the homogeneous-Poisson property on an interval."""
    series = load_events(input_path)
    lo = series.window.start if lo is None else lo
    hi = series.window.end if hi is None else hi
    slices = [arr[arr.searchsorted(lo) : arr.searchsorted(hi)] for arr in series.days]
    outcome = poisson_test_days(slices, lo, hi, epsilon, method, mode)
    click.echo(
        f"interval [{lo:g}, {hi:g})  days={outcome.n_days}  tested_days={outcome.n_tested}  "
        f"passed_days={outcome.n_passed}  required_fraction={outcome.required_fraction:.6g}"
    )
    click.echo(f"verdict: {'PASS' if outcome.passed else 'FAIL'}")


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True), required=True, help="Training events CSV.")
@click.option("--test-input", type=click.Path(exists=True), default=None, help="Held-out events CSV.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--method", default=None, help="ivanov | tikhonov | relaxed | equal:N")
@click.option("--degree", type=int, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--epsilon", type=float, default=None)
@click.option("--eta", "eta_minutes", type=float, default=None, help="2*eta is the smallest divisible interval (minutes).")
@click.option("--resolution", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(), default=None)
@_fail_on_value_error
def learn(input_path, test_input, config_path, method, degree, gamma, epsilon, eta_minutes, resolution, seed, out_dir):
    """Fit a piecewise rate model to an event file; writes model.json and report.json."""
    cfg = _load_cfg(
        config_path, ExperimentConfig(),
        seed=seed, degree=degree, gamma=gamma, epsilon=epsilon, out_dir=out_dir, resolution=resolution,
    )
    method = method or "ivanov"
    series = load_events(input_path)
    table = CountTable.from_events(series, cfg.resolution)
    test_table = None
    if test_input:
        test_table = CountTable.from_events(load_events(test_input), cfg.resolution)
    search = cfg.search_config(
        eta_seconds=eta_minutes * 60.0 if eta_minutes is not None else None
    )
    report = learn_model(
        series, table, test_table, method=method,
        fit_config=cfg.fit_config(), config=search,
    )
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_model(report.model, out / "model.json")
    (out / "report.json").write_text(json.dumps(report.summary_dict(), indent=2) + "\n")
    test_part = f"  rmse_test={report.rmse_test:.6g}" if report.rmse_test is not None else ""
    click.echo(
        f"method={method}  bins={report.n_bins}  rmse_train={report.rmse_train:.6g}{test_part}"
    )
    click.echo(f"wrote {out / 'model.json'} and {out / 'report.json'}")


def _sweep_option(_, __, value):
    if value is None:
        return None
    try:
        return tuple(float(v) for v in value.split(","))
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated list of numbers") from None


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(), default=None)
@click.option("--days-train", type=int, default=None)
@click.option("--days-test", type=int, default=None)
@click.option("--degree", type=int, default=None)
@click.option("--epsilon", type=float, default=None)
@click.option("--eta-sweep", callback=_sweep_option, default=None, help="Comma-separated eta grid in minutes.")
@_fail_on_value_error
def exp1(config_path, seed, out_dir, days_train, days_test, degree, epsilon, eta_sweep):
    """Bin-budget sweep (train/test error versus bin count)."""
    cfg = _load_cfg(
        config_path, ExperimentConfig.exp1_defaults(),
        seed=seed, out_dir=out_dir, n_train_days=days_train, n_test_days=days_test,
        degree=degree, epsilon=epsilon, eta_sweep_minutes=eta_sweep,
    )
    path = run_experiment_1(cfg)
    click.echo(f"wrote {path}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(), default=None)
@click.option("--days-train", type=int, default=None)
@click.option("--days-test", type=int, default=None)
@click.option("--degree", type=int, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--epsilon", type=float, default=None)
@_fail_on_value_error
def exp2(config_path, seed, out_dir, days_train, days_test, degree, gamma, epsilon):
    """Adaptive binning versus unbinned and equal-length baselines."""
    cfg = _load_cfg(
        config_path, ExperimentConfig.exp2_defaults(),
        seed=seed, out_dir=out_dir, n_train_days=days_train, n_test_days=days_test,
        degree=degree, gamma=gamma, epsilon=epsilon,
    )
    path = run_experiment_2(cfg)
    click.echo(f"wrote {path}")


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--input", "geo_path", type=click.Path(exists=True), default=None, help="Geo events CSV; omitted -> synthetic city data.")
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(), default=None)
@click.option("--clusters", type=int, default=None)
@click.option("--days-train", type=int, default=None)
@click.option("--days-test", type=int, default=None)
@_fail_on_value_error
def exp3(config_path, geo_path, seed, out_dir, clusters, days_train, days_test):
    """Cluster locations into areas and learn one rate model per area."""
    cfg = _load_cfg(
        config_path, ExperimentConfig.exp3_defaults(),
        seed=seed, out_dir=out_dir, clusters=clusters,
        n_train_days=days_train, n_test_days=days_test, geo_path=geo_path,
    )
    geo = None
    if cfg.geo_path is None:
        geo = make_synthetic_geo(
            seed=cfg.seed, n_days=cfg.n_train_days + cfg.n_test_days, k_centers=cfg.clusters
        )
    path = run_experiment_3(cfg, geo=geo)
    click.echo(f"wrote {path}")


@main.command("eval")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option(
    "--resolution", type=float, default=None,
    help="Cell length in seconds [default: the model's, else 300].",
)
@_fail_on_value_error
def eval_cmd(model_path, input_path, resolution):
    """Score a saved model against an event file (RMSE on cell counts)."""
    model = load_model(model_path)
    if resolution is None:
        resolution = 300.0 if model.resolution is None else model.resolution
    series = load_events(input_path, window=model.partition.window)
    table = CountTable.from_events(series, resolution)
    rmse = evaluate_model(model, table)
    click.echo(f"rmse={rmse:.6g}  days={table.n_days}  cells={table.n_cells}")


if __name__ == "__main__":
    main()
