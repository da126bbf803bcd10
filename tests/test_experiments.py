"""Experiment drivers: output schemas, internal consistency, reproducibility.

These run the drivers on deliberately tiny configurations; the full
protocols live in the acceptance suite.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from nhpplearn.binning import equal_partition, learn
from nhpplearn.experiments import (
    EXP1_HEADER,
    EXP2_HEADER,
    EXP3_HEADER,
    ExperimentConfig,
    _dataset,
    _fmt,
    make_synthetic_geo,
    run_experiment_1,
    run_experiment_2,
    run_experiment_3,
)
from nhpplearn import load_model
from nhpplearn.regression import CellData, evaluate, fit_partition

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def tiny_exp1(out_dir, seed=0):
    return ExperimentConfig.exp1_defaults(
        seed=seed, out_dir=str(out_dir),
        n_train_days=2, n_test_days=2, count_lo=900, count_hi=1000,
        degree=1, max_restarts=1, eta_sweep_minutes=(600.0, 120.0, 60.0),
    )


def tiny_exp2(out_dir, seed=0):
    return ExperimentConfig.exp2_defaults(
        seed=seed, out_dir=str(out_dir),
        n_train_days=4, n_test_days=2, count_lo=900, count_hi=1000,
        max_depth=4, max_bins=4, max_restarts=2, max_retries=1,
    )


# --- config plumbing ----------------------------------------------------------

def test_config_from_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 9, "n_train_days": 3, "eta_sweep_minutes": [30, 10]}))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.seed == 9
    assert cfg.n_train_days == 3
    assert cfg.eta_sweep_minutes == (30, 10)
    assert cfg.degree == 3  # untouched default


def test_config_from_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seeed": 1, "foo": 2}))
    with pytest.raises(ValueError, match=r"unknown config keys \['foo', 'seeed'\]"):
        ExperimentConfig.from_file(path)


def test_config_rejects_unknown_test_settings(tmp_path):
    with pytest.raises(ValueError, match="unknown test method 'ad'"):
        ExperimentConfig(test_method="ad")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"test_mode": "daily"}))
    with pytest.raises(ValueError, match=rf"{path}: unknown aggregation mode 'daily'"):
        ExperimentConfig.from_file(path)


def test_config_rejects_a_negative_seed_and_too_few_clusters(tmp_path):
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        ExperimentConfig(seed=-1)
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"clusters must be at least 1, got {bad}"):
            ExperimentConfig.exp3_defaults(clusters=bad)
    assert ExperimentConfig(seed=0, clusters=1).clusters == 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": -2}))
    with pytest.raises(ValueError, match=rf"{path}: seed must be nonnegative, got -2"):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("name", [
    "n_train_days", "n_test_days", "count_lo", "count_hi", "clusters",
    "max_depth", "max_bins", "max_restarts", "max_retries", "seed", "degree",
])
def test_config_refuses_settings_that_are_not_integers(tmp_path, name):
    for bad in (1.5, 2.0, False):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            ExperimentConfig(**{name: bad})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: 2.5}))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {name} must be an integer, got 2.5$"):
        ExperimentConfig.from_file(path)
    # a count_hi must clear the default count_lo of 7000
    value = 8000 if name == "count_hi" else 3
    assert getattr(ExperimentConfig(**{name: np.int64(value)}), name) == value


def test_config_keeps_the_eta_sweep_as_a_tuple(tmp_path):
    assert ExperimentConfig(eta_sweep_minutes=[600.0, 10.0]).eta_sweep_minutes == (600.0, 10.0)
    assert ExperimentConfig().with_overrides(eta_sweep_minutes=[30.0]).eta_sweep_minutes == (30.0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -5.0, 0, "10", True, None])
def test_config_refuses_an_eta_sweep_that_is_not_positive_minutes(tmp_path, bad):
    # a NaN or zero eta used to fail only when the sweep reached it, after the simulation
    message = f"eta_sweep_minutes must be finite and positive, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(eta_sweep_minutes=(600.0, bad))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eta_sweep_minutes": [600, bad]}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: eta_sweep_minutes must be finite and positive"):
        ExperimentConfig.from_file(path)
    path.write_text(json.dumps({"eta_sweep_minutes": 600}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: eta_sweep_minutes must be a list of minutes, got 600$"):
        ExperimentConfig.from_file(path)


def test_config_with_overrides_skips_none():
    cfg = ExperimentConfig.exp2_defaults()
    out = cfg.with_overrides(seed=None, degree=2)
    assert out.seed == cfg.seed
    assert out.degree == 2


def test_exp2_defaults_follow_comparison_protocol():
    cfg = ExperimentConfig.exp2_defaults()
    assert (cfg.n_train_days, cfg.n_test_days) == (120, 31)
    assert cfg.degree == 1
    assert cfg.max_bins == 7


def stored_reference(workload: str, seed: int) -> dict[str, str]:
    """Outputs recorded for one instance seed of a benchmark workload (opened read-only)."""
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)["seeds"][str(seed)]


# --- experiment 1 -------------------------------------------------------------

def test_exp1_schema_and_shape(tmp_path):
    path = run_experiment_1(tiny_exp1(tmp_path))
    lines = path.read_text().splitlines()
    assert lines[0] == EXP1_HEADER == "eta,bins,rmse_train,rmse_test"
    assert len(lines) == 4  # header + one row per eta
    etas, bins = [], []
    for line in lines[1:]:
        eta, nb, tr, te = line.split(",")
        etas.append(float(eta))
        bins.append(int(nb))
        assert float(tr) > 0 and float(te) > 0
    assert etas == [600.0, 120.0, 60.0]
    assert bins == sorted(bins)  # smaller floor, more bins


def test_exp1_is_byte_reproducible(tmp_path):
    a = run_experiment_1(tiny_exp1(tmp_path / "a", seed=3)).read_bytes()
    b = run_experiment_1(tiny_exp1(tmp_path / "b", seed=3)).read_bytes()
    c = run_experiment_1(tiny_exp1(tmp_path / "c", seed=4)).read_bytes()
    assert a == b
    assert a != c


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exp1_defaults_match_stored_reference(tmp_path, seed):
    # full-size sweep; the relaxed divider breaks ties between restarts by the
    # last bit of the risk, so any change in fit rounding shows up here
    want = stored_reference("sweep", seed)["exp1.csv"]
    path = run_experiment_1(ExperimentConfig.exp1_defaults(seed=seed, out_dir=str(tmp_path)))
    assert path.read_text() == want


# --- experiment 2 -------------------------------------------------------------

def test_exp2_defaults_match_stored_reference(tmp_path):
    # full-size comparison: any change in a homogeneity verdict moves the
    # ivanov partition, and with it the dbm_ivanov row
    want = stored_reference("compare", 0)["exp2.csv"]
    path = run_experiment_2(ExperimentConfig.exp2_defaults(seed=0, out_dir=str(tmp_path)))
    assert path.read_text() == want


def test_exp2_schema_and_improvement_consistency(tmp_path):
    path = run_experiment_2(tiny_exp2(tmp_path))
    lines = path.read_text().splitlines()
    assert lines[0] == EXP2_HEADER
    labels = [line.split(",")[1] for line in lines[1:]]
    assert labels == ["unbinned", "dbm_ivanov", "dbm_tikhonov"]

    unbinned = lines[1].split(",")
    assert unbinned[4] == "1"
    assert unbinned[5] == unbinned[6] == unbinned[7] == ""  # no baseline columns

    for line in lines[2:]:
        cells = line.split(",")
        rmse_test, bins = float(cells[3]), int(cells[4])
        eq_test, imp = float(cells[6]), float(cells[7])
        assert bins >= 1
        # the improvement column restates the two test columns (6 sig figs)
        expected = (eq_test - rmse_test) * 100.0 / eq_test
        assert imp == pytest.approx(expected, abs=5e-2)


def assert_baseline_columns_refit(cfg, path):
    """Each adaptive row's baseline columns are the scores of an equal-length fit at its bin count."""
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    assert len(rows) == 2
    for row, method in zip(rows, ("ivanov", "tikhonov")):
        data, test_table = _dataset(cfg)
        train_table = data.table
        rep = learn(data, test_table, method=method, config=cfg.search_config())
        assert row[3:5] == [_fmt(rep.rmse_test), f"{rep.n_bins}"]
        model, _, _ = fit_partition(data, equal_partition(train_table.window, rep.n_bins))
        eq_train, eq_test = evaluate(model, train_table), evaluate(model, test_table)
        assert row[5:] == [_fmt(eq_train), _fmt(eq_test), _fmt((eq_test - rep.rmse_test) * 100.0 / eq_test)]
    return rows


def test_exp2_baseline_columns_equal_a_fit_of_the_equal_partition(tmp_path):
    cfg = tiny_exp2(tmp_path)
    assert_baseline_columns_refit(cfg, run_experiment_2(cfg))


def test_exp2_baseline_may_have_more_bins_than_cells(tmp_path):
    # learn's equal:N is capped at the cell count; the baseline of a search
    # that leaves more bins than cells is not
    cfg = tiny_exp2(tmp_path).with_overrides(resolution=3600.0, max_bins=64, max_depth=10, gamma=1e-6)
    rows = assert_baseline_columns_refit(cfg, run_experiment_2(cfg))
    assert rows[1][1] == "dbm_tikhonov" and int(rows[1][4]) > 24


def test_exp2_is_byte_reproducible(tmp_path):
    a = run_experiment_2(tiny_exp2(tmp_path / "a", seed=1)).read_bytes()
    b = run_experiment_2(tiny_exp2(tmp_path / "b", seed=1)).read_bytes()
    assert a == b


# --- fits shared across the learn calls of one experiment ---------------------

@pytest.mark.parametrize("run, tiny", [(run_experiment_1, tiny_exp1), (run_experiment_2, tiny_exp2)])
def test_experiment_fits_each_interval_once_per_table(tmp_path, monkeypatch, run, tiny):
    # every learn call on the training table reads one CellData, so no
    # (lo, hi) and no constant cell slice is fitted twice on that table; the
    # gamma selection fits a table of its own
    keys = []
    tables = []  # keeps each table alive, so its id stays unique
    fit = CellData._fit

    def counted(self, lo, hi, sl):
        tables.append(self.table)
        constant = min(self.config.degree, sl.stop - sl.start - 1) <= 0
        keys.append((id(self.table), "cells", sl.start, sl.stop) if constant else (id(self.table), lo, hi))
        return fit(self, lo, hi, sl)

    monkeypatch.setattr(CellData, "_fit", counted)
    run(tiny(tmp_path))
    assert keys
    assert len(keys) == len(set(keys))


# --- experiment 3 -------------------------------------------------------------

def tiny_exp3(out_dir, seed=0):
    return ExperimentConfig.exp3_defaults(
        seed=seed, out_dir=str(out_dir), clusters=3,
        n_test_days=1, max_depth=3, max_bins=3, max_restarts=1, max_retries=1,
    )


def tiny_geo(seed=0):
    return make_synthetic_geo(seed=seed, n_days=3, k_centers=3, count_range=(150, 200))


def test_exp3_outputs(tmp_path):
    cfg = tiny_exp3(tmp_path)
    geo = tiny_geo()
    summary = run_experiment_3(cfg, geo=geo)
    lines = summary.read_text().splitlines()
    assert lines[0] == EXP3_HEADER
    assert len(lines) == 4  # one row per area

    index = json.loads((tmp_path / "index.json").read_text())
    assert index["clusters"] == 3
    assert sum(index["events_per_area"]) == geo.day.size
    assert index["train_days"] == [0, 1]
    assert index["test_days"] == [2]
    assert len(index["models"]) == 3
    for name in index["models"]:
        model = load_model(tmp_path / name)
        assert model.partition.window.end == 86400.0
    # per-row event counts in the CSV match the index
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert counts == index["events_per_area"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exp3_defaults_match_stored_reference(tmp_path, seed):
    # 20 small ivanov searches per seed, built as the areas benchmark builds them
    want = stored_reference("areas", seed)
    cfg = ExperimentConfig.exp3_defaults(seed=seed, out_dir=str(tmp_path))
    geo = make_synthetic_geo(
        seed=cfg.seed, n_days=cfg.n_train_days + cfg.n_test_days, k_centers=cfg.clusters
    )
    summary = run_experiment_3(cfg, geo=geo)
    assert summary.read_text() == want["exp3_summary.csv"]
    assert (summary.parent / "index.json").read_text() == want["index.json"]


def test_exp3_requires_geo_source(tmp_path):
    with pytest.raises(ValueError, match="needs a geo event file"):
        run_experiment_3(tiny_exp3(tmp_path))


def test_exp3_is_reproducible(tmp_path):
    a = run_experiment_3(tiny_exp3(tmp_path / "a"), geo=tiny_geo()).read_bytes()
    b = run_experiment_3(tiny_exp3(tmp_path / "b"), geo=tiny_geo()).read_bytes()
    assert a == b
    ia = (tmp_path / "a" / "index.json").read_bytes()
    ib = (tmp_path / "b" / "index.json").read_bytes()
    assert ia == ib


def test_synthetic_geo_depends_on_seed():
    g0, g1 = tiny_geo(seed=0), tiny_geo(seed=1)
    assert g0.day.size != g1.day.size or not np.array_equal(g0.lon, g1.lon)
