"""The four workloads: what one pass runs and how its outputs are checked.

A pass runs one workload on one instance seed and returns its outputs as
``{name: text}``.  ``prepare`` builds the pass's settings and does no I/O; it
is the per-workload part of set-up.  ``check`` returns the structural
problems of a pass's outputs, for seeds that have no stored reference.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from nhpplearn import cli
from nhpplearn import experiments as E


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int  # instance seeds per round, so one round averages their work
    prepare: Callable[[int, Path], object]
    run: Callable[[object], dict[str, str]]
    check: Callable[[dict[str, str], object], list[str]]


def _csv_rows(text: str, header: str, n_rows: int) -> tuple[list[dict], list[str]]:
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != header:
        problems.append(f"header {lines[:1]} != {header!r}")
    rows = list(csv.DictReader(lines))
    if len(rows) != n_rows:
        problems.append(f"{len(rows)} rows, expected {n_rows}")
    return rows, problems


def _finite(row: dict, *keys: str) -> list[str]:
    bad = []
    for key in keys:
        try:
            ok = math.isfinite(float(row[key]))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            bad.append(f"{key}={row.get(key)!r} is not a finite number")
    return bad


def _bins_ok(bins, max_bins: int) -> list[str]:
    return [] if 1 <= int(bins) <= max_bins else [f"bins={bins} outside [1, {max_bins}]"]


# -- sweep: relaxed divider over the eta grid (fits only, no tests) ----------

def _sweep_prepare(seed: int, work: Path) -> E.ExperimentConfig:
    return E.ExperimentConfig.exp1_defaults(seed=seed, out_dir=str(work))


def _sweep_run(cfg: E.ExperimentConfig) -> dict[str, str]:
    return {"exp1.csv": E.run_experiment_1(cfg).read_text()}


def _sweep_check(out: dict[str, str], cfg: E.ExperimentConfig) -> list[str]:
    rows, problems = _csv_rows(out["exp1.csv"], E.EXP1_HEADER, len(cfg.eta_sweep_minutes))
    for row in rows:
        problems += _finite(row, "rmse_train", "rmse_test") + _bins_ok(row["bins"], cfg.max_bins)
    return problems


# -- compare: unbinned, ivanov and tikhonov on 120 days ----------------------

def _compare_prepare(seed: int, work: Path) -> E.ExperimentConfig:
    return E.ExperimentConfig.exp2_defaults(seed=seed, out_dir=str(work))


def _compare_run(cfg: E.ExperimentConfig) -> dict[str, str]:
    return {"exp2.csv": E.run_experiment_2(cfg).read_text()}


def _compare_check(out: dict[str, str], cfg: E.ExperimentConfig) -> list[str]:
    rows, problems = _csv_rows(out["exp2.csv"], E.EXP2_HEADER, 3)
    methods = [row["method"] for row in rows]
    if methods != ["unbinned", "dbm_ivanov", "dbm_tikhonov"]:
        problems.append(f"methods {methods}")
    for row in rows:
        problems += _finite(row, "rmse_train", "rmse_test") + _bins_ok(row["bins"], cfg.max_bins)
    for row in rows[1:]:
        problems += _finite(row, "rmse_train_equal", "rmse_test_equal", "improvement_pct")
    return problems


# -- areas: k-means, then one small ivanov search per area -------------------

def _areas_prepare(seed: int, work: Path) -> E.ExperimentConfig:
    return E.ExperimentConfig.exp3_defaults(seed=seed, out_dir=str(work))


def _areas_run(cfg: E.ExperimentConfig) -> dict[str, str]:
    geo = E.make_synthetic_geo(
        seed=cfg.seed, n_days=cfg.n_train_days + cfg.n_test_days, k_centers=cfg.clusters
    )
    summary = E.run_experiment_3(cfg, geo=geo)
    return {"exp3_summary.csv": summary.read_text(), "index.json": (summary.parent / "index.json").read_text()}


def _areas_check(out: dict[str, str], cfg: E.ExperimentConfig) -> list[str]:
    rows, problems = _csv_rows(out["exp3_summary.csv"], E.EXP3_HEADER, cfg.clusters)
    for row in rows:
        problems += _finite(row, "rmse_train", "rmse_test") + _bins_ok(row["bins"], cfg.max_bins)
    index = json.loads(out["index.json"])
    if len(index["models"]) != cfg.clusters:
        problems.append(f"index lists {len(index['models'])} models, expected {cfg.clusters}")
    return problems


# -- files: simulate -> learn -> eval through the click entry point ----------

@dataclass(frozen=True)
class FilesPass:
    commands: tuple[tuple[str, ...], ...]
    fit_dir: Path
    max_bins: int


def _files_prepare(seed: int, work: Path) -> FilesPass:
    data, fit = work / "data", work / "fit"
    return FilesPass(
        commands=(
            ("simulate", "--seed", str(seed), "--days-train", "30", "--days-test", "8",
             "--out-dir", str(data)),
            ("learn", "--input", str(data / "train.csv"), "--test-input", str(data / "test.csv"),
             "--method", "tikhonov", "--degree", "1", "--seed", str(seed), "--out-dir", str(fit)),
            ("eval", "--model", str(fit / "model.json"), "--input", str(data / "test.csv")),
        ),
        fit_dir=fit,
        max_bins=E.ExperimentConfig().max_bins,
    )


def _files_run(p: FilesPass) -> dict[str, str]:
    for argv in p.commands:
        echoed = io.StringIO()
        with contextlib.redirect_stdout(echoed):
            cli.main(list(argv), standalone_mode=False)
    model = json.loads((p.fit_dir / "model.json").read_text())
    report = json.loads((p.fit_dir / "report.json").read_text())
    # knots and RMSEs only: the rest of the model file may change format
    fit = {
        "model.knots": model["knots"],
        "report": {k: report[k] for k in ("knots", "n_bins", "gamma", "rmse_train", "rmse_test")},
        "eval": echoed.getvalue().strip(),
    }
    return {"fit.json": json.dumps(fit, indent=1) + "\n"}


def _files_check(out: dict[str, str], p: FilesPass) -> list[str]:
    fit = json.loads(out["fit.json"])
    report = fit["report"]
    problems = _bins_ok(report["n_bins"], p.max_bins) + _finite(report, "rmse_train", "rmse_test")
    if fit["model.knots"] != report["knots"] or len(report["knots"]) + 1 != report["n_bins"]:
        problems.append("model knots, report knots and n_bins disagree")
    if not problems and not fit["eval"].startswith(f"rmse={report['rmse_test']:.6g} "):
        problems.append(f"eval printed {fit['eval']!r}, report rmse_test={report['rmse_test']}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", 3, _sweep_prepare, _sweep_run, _sweep_check),
        Workload("compare", 2, _compare_prepare, _compare_run, _compare_check),
        Workload("areas", 5, _areas_prepare, _areas_run, _areas_check),
        Workload("files", 2, _files_prepare, _files_run, _files_check),
    )
}


def instance_seeds(workload: Workload, seed: int) -> list[int]:
    """The instance seeds one run covers; distinct runs seeds never share one."""
    return [seed * workload.instances + j for j in range(workload.instances)]
