"""Command-line entry points: simulate, test, learn, experiments, evaluate."""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import click

from .binning import learn as learn_model
from .core import CountTable
from .dataio import check_storable, load_events, load_model, save_events, save_model
from .experiments import (
    ExperimentConfig,
    make_synthetic_geo,
    run_experiment_1,
    run_experiment_2,
    run_experiment_3,
)
from .regression import CellData
from .regression import evaluate as evaluate_model
from .simulate import SIM_MODES, make_dataset
from .stat_tests import poisson_test_days


class _Main(click.Group):
    """The command group; a bad setting or file ends a command with an error line, not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
            raise click.ClickException(str(exc))


@click.group(cls=_Main)
def main() -> None:
    """Learn time-of-day rate profiles from event streams."""


def _sweep_option(_, __, value):
    if value is None:
        return None
    try:
        return tuple(float(v) for v in value.split(","))
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated list of numbers") from None


def _field_type(field):
    """The type of an int or float ``ExperimentConfig`` field, read as ``__post_init__`` reads it."""
    return {"int": int, "float": float}[ExperimentConfig.__dataclass_fields__[field].type.partition(" | ")[0]]


# each flag that sets an ExperimentConfig field, keyed by that field, which is
# also click's parameter name; a flag with no settings of its own parses its
# field's type
_CONFIG_FLAGS = {
    field: click.option(flag, field, default=None, **(attrs or dict(type=_field_type(field))))
    for field, flag, attrs in [
        ("seed", "--seed", {}),
        ("n_train_days", "--days-train", {}),
        ("n_test_days", "--days-test", {}),
        ("sim_mode", "--mode", dict(type=click.Choice(SIM_MODES))),
        ("degree", "--degree", {}),
        ("gamma", "--gamma", {}),
        ("epsilon", "--epsilon", {}),
        ("resolution", "--resolution", {}),
        ("clusters", "--clusters", {}),
        ("eta_sweep_minutes", "--eta-sweep", dict(callback=_sweep_option, help="Comma-separated eta grid in minutes.")),
        ("geo_path", "--input", dict(
            type=click.Path(exists=True), help="Geo events CSV; omitted -> synthetic city data.",
        )),
        ("out_dir", "--out-dir", dict(type=click.Path())),
    ]
}


def _configured(defaults, *fields):
    """Add ``--config`` and the flags of ``fields``; the command takes the merged config first.

    The config is ``defaults()``, then the config file, then the flags given.
    """

    def decorate(command):
        @functools.wraps(command)
        def callback(config_path, **params):
            cfg = defaults() if config_path is None else ExperimentConfig.from_file(config_path, defaults())
            return command(cfg.with_overrides(**{f: params.pop(f) for f in fields}), **params)

        for field in reversed(fields):
            callback = _CONFIG_FLAGS[field](callback)
        return click.option(
            "--config", "config_path", type=click.Path(exists=True), default=None, help="JSON config file."
        )(callback)

    return decorate


@main.command()
@_configured(ExperimentConfig, "seed", "n_train_days", "n_test_days", "sim_mode", "out_dir")
def simulate(cfg):
    """Generate train/test event files from the built-in or configured rate."""
    if cfg.n_train_days < 1:  # a training file with no rows is one learn cannot read
        raise ValueError(f"n_train_days must be at least 1, got {cfg.n_train_days!r}")
    train, test = make_dataset(
        cfg.sim_rate, cfg.n_train_days, cfg.n_test_days,
        seed=cfg.seed, mode=cfg.sim_mode, count_range=(cfg.count_lo, cfg.count_hi),
    )
    check_storable(train, "simulated train")
    check_storable(test, "simulated test")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
def test_poisson(input_path, epsilon, method, mode, lo, hi):
    """Test an event file for the homogeneous-Poisson property on an interval."""
    series = load_events(input_path)
    window = series.window
    # the file holds no arrival outside its window, so such an interval would pass untested
    if lo is not None and lo < window.start:
        raise ValueError(f"--lo {lo:g} is below the start of the window [{window.start:g}, {window.end:g})")
    if hi is not None and hi > window.end:
        raise ValueError(f"--hi {hi:g} is above the end of the window [{window.start:g}, {window.end:g})")
    lo = window.start if lo is None else lo
    hi = window.end if hi is None else hi
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
@click.option("--method", default=None, help="ivanov | tikhonov | relaxed | equal:N")
@click.option("--eta", "eta_minutes", type=float, default=None, help="2*eta is the smallest divisible interval (minutes).")
@_configured(ExperimentConfig, "degree", "gamma", "epsilon", "resolution", "seed", "out_dir")
def learn(cfg, input_path, test_input, method, eta_minutes):
    """Fit a piecewise rate model to an event file; writes model.json and report.json."""
    method = method or "ivanov"
    # NaN fails every comparison, so a bare sign check would let it through
    if eta_minutes is not None and not (math.isfinite(eta_minutes) and eta_minutes > 0):
        raise ValueError(f"--eta must be a finite, positive number of minutes, got {eta_minutes!r}")
    if method == "relaxed" and eta_minutes is None:
        raise ValueError("--method relaxed needs --eta, the smallest divisible half-interval in minutes")
    data = CellData.from_events(load_events(input_path), cfg.resolution, cfg.fit_config())
    test_table = None
    if test_input:
        test_table = CountTable.from_events(load_events(test_input), cfg.resolution)
    search = cfg.search_config(eta_seconds=None if eta_minutes is None else eta_minutes * 60.0)
    report = learn_model(data, test_table, method=method, config=search)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_model(report.model, out / "model.json")
    (out / "report.json").write_text(json.dumps(report.summary_dict(), indent=2) + "\n")
    test_part = f"  rmse_test={report.rmse_test:.6g}" if report.rmse_test is not None else ""
    click.echo(f"method={method}  bins={report.n_bins}  rmse_train={report.rmse_train:.6g}{test_part}")
    click.echo(f"wrote {out / 'model.json'} and {out / 'report.json'}")


@main.command()
@_configured(
    ExperimentConfig.exp1_defaults, "seed", "out_dir", "n_train_days", "n_test_days", "degree", "epsilon",
    "eta_sweep_minutes",
)
def exp1(cfg):
    """Bin-budget sweep (train/test error versus bin count)."""
    click.echo(f"wrote {run_experiment_1(cfg)}")


@main.command()
@_configured(
    ExperimentConfig.exp2_defaults, "seed", "out_dir", "n_train_days", "n_test_days", "degree", "gamma", "epsilon"
)
def exp2(cfg):
    """Adaptive binning versus unbinned and equal-length baselines."""
    click.echo(f"wrote {run_experiment_2(cfg)}")


@main.command()
@_configured(ExperimentConfig.exp3_defaults, "geo_path", "seed", "out_dir", "clusters", "n_train_days", "n_test_days")
def exp3(cfg):
    """Cluster locations into areas and learn one rate model per area."""
    geo = None
    if cfg.geo_path is None:
        geo = make_synthetic_geo(
            seed=cfg.seed, n_days=cfg.n_train_days + cfg.n_test_days, k_centers=cfg.clusters,
            count_range=(cfg.count_lo, cfg.count_hi), rate=cfg.sim_rate, mode=cfg.sim_mode,
        )
    click.echo(f"wrote {run_experiment_3(cfg, geo=geo)}")


@main.command("eval")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option(
    "--resolution", type=float, default=None,
    help="Cell length in seconds [default: the model's, else 300].",
)
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
