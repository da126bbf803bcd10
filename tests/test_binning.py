"""Partition search: dividers, budgets, restarts, and the learn() wrapper."""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhpplearn import (
    CountTable,
    EventSeries,
    FitConfig,
    Partition,
    SearchConfig,
    TimeWindow,
    binned_risk,
    equal_partition,
    divide,
    fit_partition,
    learn,
    penalized_risk,
    poisson_test_days,
)
from nhpplearn import binning
from nhpplearn.binning import DIVIDERS, GAMMA_GRID, _SearchEngine, parse_method
from nhpplearn.experiments import ETA_SWEEP_MINUTES, ExperimentConfig, _dataset
from nhpplearn.regression import CellData
from nhpplearn.simulate import af_rate, make_dataset

W = TimeWindow(0.0, 86400.0)


def steep_series(n_days=6, per_day=300, seed=0):
    # arrival density proportional to t: every homogeneity test should reject
    rng = np.random.default_rng(seed)
    days = tuple(np.sort(86400.0 * np.sqrt(rng.uniform(size=per_day))) for _ in range(n_days))
    return EventSeries(W, days)


def uniform_series(n_days=6, per_day=300, seed=0):
    rng = np.random.default_rng(seed)
    days = tuple(np.sort(rng.uniform(0.0, 86400.0, size=per_day)) for _ in range(n_days))
    return EventSeries(W, days)


# --- method plumbing ----------------------------------------------------------

def test_equal_partition_knots():
    p = equal_partition(TimeWindow(0.0, 100.0), 4)
    np.testing.assert_allclose(p.edges(), [0.0, 25.0, 50.0, 75.0, 100.0])
    assert equal_partition(W, 1).n_bins == 1
    with pytest.raises(ValueError, match="at least one bin"):
        equal_partition(W, 0)


def test_parse_method_forms():
    assert parse_method("ivanov") == ("ivanov", None)
    assert parse_method("tikhonov") == ("tikhonov", None)
    assert parse_method("relaxed") == ("relaxed", None)
    assert parse_method("equal:12") == ("equal", 12)
    with pytest.raises(ValueError, match="equal:N needs N >= 1"):
        parse_method("equal:0")
    with pytest.raises(ValueError, match="unknown method 'dbm'"):
        parse_method("dbm")
    for bad in ("equal:abc", "equal:", "equal:-2", "equal"):
        with pytest.raises(ValueError) as info:
            parse_method(bad)
        assert str(info.value) == (
            f"unknown method '{bad}' (expected ivanov, tikhonov, relaxed or equal:N with N a positive integer)"
        )


@pytest.mark.parametrize("name", ["max_depth", "max_bins", "max_restarts", "max_retries", "seed"])
def test_search_config_refuses_settings_that_are_not_integers(name):
    for bad in (2.5, 3.0, True, "3", None, np.float64(2.0)):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            SearchConfig(**{name: bad})
    assert getattr(SearchConfig(**{name: np.int64(3)}), name) == 3


def test_search_budgets_name_their_field():
    for name in ("max_depth", "max_bins", "max_restarts"):
        with pytest.raises(ValueError, match=rf"^search budgets must be positive, got {name}=0$"):
            SearchConfig(**{name: 0})


def test_search_config_validation():
    with pytest.raises(ValueError, match="budgets must be positive"):
        SearchConfig(max_depth=0)
    with pytest.raises(ValueError, match="nonnegative"):
        SearchConfig(max_retries=-1)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        SearchConfig(seed=-1)
    assert SearchConfig(seed=0).seed == 0
    with pytest.raises(ValueError, match="epsilon"):
        SearchConfig(epsilon=0.7)
    with pytest.raises(ValueError, match="gamma"):
        SearchConfig(gamma=-1.0)
    with pytest.raises(ValueError, match="eta_seconds"):
        SearchConfig(eta_seconds=0.0)
    # NaN slips past a sign check: a NaN gamma ranks no state, a NaN floor never stops a split
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="gamma must be finite and nonnegative"):
            SearchConfig(gamma=bad)
        with pytest.raises(ValueError, match="eta_seconds must be finite and positive"):
            SearchConfig(eta_seconds=bad)
    for bad in (math.nan, -0.1, 1.5):
        with pytest.raises(ValueError, match="min_pass_fraction must be in"):
            SearchConfig(min_pass_fraction=bad)
    assert SearchConfig(min_pass_fraction=1.0).min_pass_fraction == 1.0


@pytest.mark.parametrize("kwargs, message", [
    ({"test_method": "ad"}, "unknown test method 'ad'"),
    ({"test_mode": "daily"}, "unknown aggregation mode 'daily'"),
    ({"test_method": "ad", "test_mode": "daily"}, "unknown aggregation mode 'daily'"),
])
def test_search_config_rejects_unknown_test_settings(kwargs, message):
    # tikhonov and relaxed runs never test, so a typo must fail here
    with pytest.raises(ValueError, match=message):
        SearchConfig(**kwargs)


def test_search_config_accepts_every_test_setting():
    for method in ("log", "ks-uniform"):
        for mode in ("per-day", "pooled"):
            assert SearchConfig(test_method=method, test_mode=mode).test_mode == mode


def test_divider_prerequisites():
    counts = CountTable.from_events(uniform_series(2, 50), 300.0)
    with pytest.raises(ValueError, match="requires gamma"):
        divide("tikhonov", CellData(counts))  # gamma left unset
    with pytest.raises(ValueError, match="requires eta_seconds"):
        divide("relaxed", CellData(counts))
    with pytest.raises(ValueError, match="requires training arrival times"):
        divide("ivanov", CellData(counts))


@pytest.mark.parametrize("method", ["equal:3", "dbm"])
def test_divide_rejects_what_is_not_a_divider(method):
    counts = CountTable.from_events(uniform_series(1, 50), 300.0)
    with pytest.raises(ValueError, match=f"unknown divider '{method}'"):
        divide(method, CellData(counts))


# --- relaxed division ---------------------------------------------------------

def test_relaxed_divides_down_to_the_length_floor():
    counts = CountTable.from_events(uniform_series(2, 400), 300.0)
    eta = 7200.0
    trace = divide("relaxed", CellData(counts), config=SearchConfig(max_depth=30, max_bins=64, eta_seconds=eta))
    part = trace.best_partition()
    assert part.n_bins >= 6  # 86400 / (2 * 7200) = 6 is the fewest possible
    assert (part.lengths() <= 2.0 * eta + 1e-9).all()
    # no interval at or below the floor was ever split
    for entry in trace.entries:
        if entry.kind == "split":
            lo, hi = entry.interval
            assert hi - lo > 2.0 * eta


def test_relaxed_is_deterministic_per_restart_index():
    counts = CountTable.from_events(uniform_series(1, 200), 300.0)
    cfg = SearchConfig(eta_seconds=10000.0, seed=5)
    a = divide("relaxed", CellData(counts), config=cfg, restart_index=2)
    b = divide("relaxed", CellData(counts), config=cfg, restart_index=2)
    c = divide("relaxed", CellData(counts), config=cfg, restart_index=3)
    assert a.best_partition() == b.best_partition()
    assert a.best_partition() != c.best_partition()


# --- ivanov division ----------------------------------------------------------

def test_ivanov_splits_inhomogeneous_data():
    events = steep_series()
    cfg = SearchConfig(max_depth=6, max_bins=8, max_retries=3)
    trace = divide("ivanov", CellData.from_events(events, 300.0, FitConfig(degree=1)), cfg)
    assert trace.best_partition().n_bins >= 2
    kinds = {e.kind for e in trace.entries}
    assert "split" in kinds and "root" in kinds


def test_ivanov_split_entries_carry_failing_half():
    events = steep_series(4, 200, seed=3)
    cfg = SearchConfig(max_depth=5, max_bins=6, max_retries=2)
    trace = divide("ivanov", CellData.from_events(events, 300.0, FitConfig(degree=1)), cfg)
    splits = [e for e in trace.entries if e.kind == "split"]
    assert splits
    for e in splits:
        assert e.left_test is not None
        # a failing left half settles the probe: the right half is not tested
        assert (e.right_test is None) == (not e.left_test["passed"])
        assert not (e.left_test["passed"] and e.right_test["passed"])


def test_ivanov_zero_bar_probe_leafs_immediately():
    # min_pass_fraction 0 makes every probe report two passing halves, so a
    # zero retry budget must leave the trivial one-bin partition
    events = steep_series(3, 100, seed=1)
    cfg = SearchConfig(max_retries=0, min_pass_fraction=0.0)
    trace = divide("ivanov", CellData.from_events(events, 300.0, FitConfig(degree=1)), cfg)
    assert trace.best_partition().n_bins == 1
    assert [e.kind for e in trace.entries] == ["root", "probe", "leaf"]


def test_ivanov_homogeneous_data_stays_coarse():
    events = uniform_series(8, 120, seed=2)
    cfg = SearchConfig(max_depth=8, max_bins=32, max_retries=2, min_pass_fraction=0.5)
    trace = divide("ivanov", CellData.from_events(events, 300.0, FitConfig(degree=0)), cfg)
    # with a forgiving pass bar, uniform arrivals rarely fail a probe, so the
    # retry budget runs out near the root
    assert trace.best_partition().n_bins <= 6


def test_probe_halves_equal_tests_of_masked_days():
    # a queued interval carries its days and a probe only searches them for
    # its point; the halves, which a split's children carry on, must be
    # exactly the masked arrivals
    series = steep_series(n_days=4, per_day=400, seed=9)
    engine = _SearchEngine(CellData.from_events(series, 300.0), "ivanov", SearchConfig())
    t = series.days[1]
    left_failed = 0
    for lo, hi in ((0.0, 86400.0), (3600.0, 7200.0), (t[10], t[300])):
        days = [a[(a >= lo) & (a < hi)] for a in series.days]
        inside = t[(t > lo) & (t < hi)]
        for p in (0.5 * (lo + hi), inside[inside.size // 2], float(np.nextafter(lo, hi))):
            left, right, (left_days, right_days) = engine._test_halves(days, lo, hi, p)
            for a, got_left, got_right in zip(series.days, left_days, right_days):
                assert got_left.tobytes() == a[(a >= lo) & (a < p)].tobytes()
                assert got_right.tobytes() == a[(a >= p) & (a < hi)].tobytes()
            assert left == poisson_test_days([a[(a >= lo) & (a < p)] for a in series.days], lo, p)
            if not left.passed:
                assert right is None  # the probe splits whatever the right half would say
                left_failed += 1
                continue
            assert right == poisson_test_days([a[(a >= p) & (a < hi)] for a in series.days], p, hi)
    assert 0 < left_failed < 9  # both branches ran


# --- bookkeeping and budgets --------------------------------------------------

@given(
    method=st.sampled_from(DIVIDERS),
    steep=st.booleans(),
    data_seed=st.integers(0, 10_000),
    search_seed=st.integers(0, 10_000),
    restart=st.integers(0, 3),
    degree=st.integers(0, 3),
    gamma=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2]),
    eta=st.sampled_from([600.0, 1800.0, 7200.0]),
)
@settings(max_examples=60, deadline=None)
def test_trace_risk_matches_full_refit(method, steep, data_seed, search_seed, restart, degree, gamma, eta):
    # the engine's running sums must equal a fresh fit of its best partition
    events = (steep_series if steep else uniform_series)(3, 250, seed=data_seed)
    fit = FitConfig(degree=degree)
    data = CellData.from_events(events, 300.0, fit)
    counts = data.table
    cfg = SearchConfig(max_depth=6, max_bins=10, max_retries=2, gamma=gamma, eta_seconds=eta, seed=search_seed)
    trace = divide(method, data, cfg, restart_index=restart)
    part = trace.best_partition()
    _, risks, sizes = fit_partition(CellData(counts, fit), part)
    penalized = penalized_risk(sizes, risks, part, gamma)
    knots, best_risk, best_penalized = trace.best_state(gamma)
    assert knots == part.knots
    # the training risk, whatever the divider ranks its states by
    np.testing.assert_allclose(best_risk, binned_risk(sizes, risks), rtol=1e-9)
    np.testing.assert_allclose(best_penalized, penalized, rtol=1e-9)
    # knots are inserted in order, so every entry holds them sorted and distinct
    for entry in trace.entries:
        assert list(entry.knots) == sorted(set(entry.knots))
    # the best state may be the root; the last state has every split in it
    last = trace.entries[-1]
    _, risks, sizes = fit_partition(CellData(counts, fit), Partition(W, last.knots))
    np.testing.assert_allclose(last.risk, binned_risk(sizes, risks), rtol=1e-9)


@pytest.mark.parametrize("method", ["tikhonov", "relaxed"])
def test_ties_keep_the_earliest_state(method):
    # zero counts fit exactly, so every visited state ties with the root at 0
    counts = CountTable(W, 300.0, np.zeros((2, 288)))
    cfg = SearchConfig(max_depth=4, max_bins=8, gamma=1e-2, eta_seconds=600.0)
    trace = divide(method, CellData(counts, FitConfig(degree=1)), cfg)
    assert sum(e.kind == "split" for e in trace.entries) > 0
    assert trace.best_partition().knots == ()
    assert trace.best_state(1.0) == ((), 0.0, 0.0)


def test_max_bins_budget_is_respected():
    counts = CountTable.from_events(uniform_series(1, 400), 300.0)
    cfg = SearchConfig(max_bins=5, max_depth=20, gamma=1e-4)
    trace = divide("tikhonov", CellData(counts, FitConfig(degree=0)), cfg)
    # the divider never grows past the cap
    assert max(e.n_bins for e in trace.entries) <= 5
    assert any(e.kind == "leaf" and e.reason == "max-bins" for e in trace.entries)


def test_max_depth_budget_is_respected():
    counts = CountTable.from_events(uniform_series(1, 400), 300.0)
    cfg = SearchConfig(max_depth=2, max_bins=64, gamma=1e-4)
    trace = divide("tikhonov", CellData(counts, FitConfig(degree=0)), cfg)
    assert max(e.n_bins for e in trace.entries) <= 4  # depth 2 caps at 4 bins
    assert any(e.reason == "max-depth" for e in trace.entries)


def test_worst_bin_is_refined_first():
    # after the root split, the engine must visit whichever child fits worse
    rng = np.random.default_rng(9)
    flat = rng.poisson(5.0, size=(4, 144))
    step = np.concatenate([rng.poisson(2.0, size=(4, 72)), rng.poisson(40.0, size=(4, 72))], axis=1)
    counts = CountTable(W, 300.0, np.concatenate([flat, step], axis=1).astype(float))
    cfg = SearchConfig(max_bins=3, max_depth=10, gamma=1e-6)
    trace = divide("tikhonov", CellData(counts, FitConfig(degree=0)), cfg)
    root_split = next(e for e in trace.entries if e.kind == "split" and e.depth == 0)
    p = root_split.proposed_knot
    data = CellData(counts, FitConfig(degree=0))
    risk_left = data.fit_interval(W.start, p)[1]
    risk_right = data.fit_interval(p, W.end)[1]
    worse = (W.start, p) if risk_left > risk_right else (p, W.end)
    second = next(e for e in trace.entries if e.kind == "split" and e.depth == 1)
    assert second.interval == pytest.approx(worse)


# --- learn() ------------------------------------------------------------------

def test_learn_equal_method_reports_requested_bins():
    counts = CountTable.from_events(uniform_series(2, 200), 300.0)
    rep = learn(CellData(counts, FitConfig(degree=1)), method="equal:6")
    assert rep.n_bins == 6
    assert rep.method == "equal:6"
    assert rep.rmse_test is None
    assert sum(rep.bin_sizes) == counts.counts.size


def test_learn_equal_method_refuses_a_trace_path(tmp_path):
    # equal:N runs no search, so a trace path was accepted and no file written
    counts = CountTable.from_events(uniform_series(2, 200), 300.0)
    path = tmp_path / "t.jsonl"
    with pytest.raises(ValueError, match="method 'equal:6' runs no search.*trace_path"):
        learn(CellData(counts), method="equal:6", config=SearchConfig(trace_path=str(path)))
    assert not path.exists()


def test_learn_equal_bins_are_capped_by_the_cell_count():
    counts = CountTable.from_events(uniform_series(2, 200), 300.0)
    assert learn(CellData(counts), method=f"equal:{counts.n_cells}").n_bins == counts.n_cells
    n = counts.n_cells
    with pytest.raises(ValueError, match=f"asks for {n + 1} bins, more than the {n} cells"):
        learn(CellData(counts), method=f"equal:{n + 1}")


def test_learn_requires_events_for_ivanov():
    counts = CountTable.from_events(uniform_series(1, 50), 300.0)
    with pytest.raises(ValueError, match="requires training arrival times"):
        learn(CellData(counts), method="ivanov")


def test_ivanov_needs_the_arrivals_its_counts_came_from():
    # one table with and without its arrivals: only CellData.from_events attaches them
    events = steep_series(3, 200, seed=1)
    data = CellData.from_events(events, 300.0)
    cfg = SearchConfig(max_depth=4, max_bins=4, max_restarts=2, max_retries=1)
    assert learn(data, config=cfg).n_bins >= 1
    assert divide("ivanov", data, cfg).entries
    bare = CellData(data.table)
    assert bare.arrivals is None
    refused = []
    for run in (lambda: learn(bare, config=cfg), lambda: divide("ivanov", bare, cfg)):
        with pytest.raises(ValueError) as info:
            run()
        refused.append(str(info.value))
    assert refused == ["ivanov division requires training arrival times"] * 2


def test_the_divider_is_checked_once_per_call_not_once_per_restart(monkeypatch):
    events = steep_series(6, 300, seed=1)
    cfg = SearchConfig(max_depth=4, max_bins=4, max_restarts=3, max_retries=1)
    calls = []
    check = binning._check_divider
    monkeypatch.setattr(binning, "_check_divider", lambda *a: calls.append(a) or check(*a))
    learn(CellData.from_events(events, 300.0), config=cfg)
    divide("ivanov", CellData.from_events(events, 300.0), config=cfg)
    assert len(calls) == 2


def test_learn_gamma_autoselection_uses_grid():
    events = steep_series(4, 150, seed=11)
    counts = CountTable.from_events(events, 300.0)
    rep = learn(CellData(counts, FitConfig(degree=1)), method="tikhonov",
                config=SearchConfig(max_depth=4, max_bins=6, max_restarts=2, seed=1))
    assert rep.gamma in GAMMA_GRID
    assert rep.penalized_risk is not None
    assert rep.penalized_risk >= rep.binned_risk  # penalty only adds


def test_learn_one_day_tikhonov_falls_back_to_gamma_1e_2():
    # one training day leaves none to hold out, so no grid value is scored
    counts = CountTable.from_events(steep_series(1, 200, seed=5), 300.0)
    rep = learn(CellData(counts, FitConfig(degree=1)), method="tikhonov",
                config=SearchConfig(max_depth=4, max_bins=6, max_restarts=2))
    assert rep.gamma == 0.01


def select_gamma_by_learn(train_counts, fit_config, config):
    # one full learn per grid value on the held-out split: the oracle for the
    # selection that scores every gamma from one search per restart
    n_days = train_counts.n_days
    n_fit = min(max(1, math.ceil(0.75 * n_days)), n_days - 1)
    fit_table = CountTable(train_counts.window, train_counts.resolution, train_counts.counts[:n_fit])
    val_table = CountTable(train_counts.window, train_counts.resolution, train_counts.counts[n_fit:])
    best_gamma, best_rmse = GAMMA_GRID[0], math.inf
    for g in GAMMA_GRID:
        sub = replace(config, gamma=g)
        rep = learn(CellData(fit_table, fit_config), val_table, method="tikhonov", config=sub)
        if rep.rmse_test < best_rmse:
            best_gamma, best_rmse = g, rep.rmse_test
    return best_gamma


def bits(*values):
    return np.asarray(values, dtype=float).tobytes()


@given(
    seed=st.integers(0, 10_000),
    n_days=st.integers(2, 6),
    degree=st.integers(0, 3),
    restarts=st.integers(1, 3),
    steep=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_gamma_selection_equals_one_learn_per_grid_value(seed, n_days, degree, restarts, steep):
    # sparse days on a fine grid, so the selection lands on both ends of the grid
    events = (steep_series if steep else uniform_series)(n_days, 100, seed=seed)
    counts = CountTable.from_events(events, 300.0)
    test = CountTable.from_events(steep_series(2, 100, seed=seed + 1), 300.0)
    fit = FitConfig(degree=degree)
    cfg = SearchConfig(max_depth=8, max_bins=24, max_restarts=restarts, seed=seed)
    gamma = select_gamma_by_learn(counts, fit, cfg)
    want = learn(CellData(counts, fit), test, method="tikhonov", config=replace(cfg, gamma=gamma))
    got = learn(CellData(counts, fit), test, method="tikhonov", config=cfg)
    assert got.gamma == gamma
    assert bits(*got.partition.knots) == bits(*want.partition.knots)
    assert bits(got.rmse_train, got.rmse_test, got.penalized_risk) == bits(
        want.rmse_train, want.rmse_test, want.penalized_risk
    )


@pytest.mark.parametrize("seed", range(4))
def test_tikhonov_search_path_does_not_depend_on_gamma(seed):
    events = steep_series(3, 250, seed=seed)
    counts = CountTable.from_events(events, 300.0)
    fit = FitConfig(degree=1)
    cfg = SearchConfig(max_depth=6, max_bins=16, seed=seed)
    data = CellData(counts, fit)
    runs = {g: divide("tikhonov", data, replace(cfg, gamma=g), restart_index=seed) for g in (1e-7, 0.3)}
    small, large = runs.values()
    # every event matches but the penalized risk, which is reported under each run's gamma
    assert [replace(e, penalized=None) for e in small.entries] == [replace(e, penalized=None) for e in large.entries]
    assert small.states == large.states and small.events == large.events
    # gamma only picks the best visited state, and here it picks a different one
    assert small.best_partition() != large.best_partition()
    for g, run in runs.items():
        other = large if run is small else small
        knots, risk, penalized = other.best_state(g)
        assert bits(*knots) == bits(*run.best_partition().knots)
        assert bits(risk, penalized) == bits(*run.best_state(run.gamma)[1:])


def test_learn_is_deterministic_for_fixed_seed():
    events = steep_series(3, 200, seed=17)
    cfg = SearchConfig(max_depth=5, max_bins=8, max_restarts=3, max_retries=2, seed=42)
    a = learn(CellData.from_events(events, 300.0, FitConfig(degree=1)), method="ivanov", config=cfg)
    b = learn(CellData.from_events(events, 300.0, FitConfig(degree=1)), method="ivanov", config=cfg)
    assert a.partition.knots == b.partition.knots
    assert a.rmse_train == b.rmse_train


def test_learn_writes_jsonl_trace(tmp_path):
    events = steep_series(2, 150, seed=19)
    path = tmp_path / "trace.jsonl"
    cfg = SearchConfig(max_depth=4, max_bins=4, max_restarts=2, max_retries=1, seed=0, trace_path=str(path))
    learn(CellData.from_events(events, 300.0, FitConfig(degree=1)), method="ivanov", config=cfg)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines
    best_rows = [r for r in lines if r["event"] == "best"]
    assert len(best_rows) == 2  # one summary row per restart
    assert {r["restart"] for r in lines} == {0, 1}


GOLDEN_TRACES = Path(__file__).parent / "data"


@pytest.mark.parametrize("method, extra", [
    ("ivanov", {}),
    ("tikhonov", {}),  # gamma picked from the grid
    ("relaxed", {"eta_seconds": 3600.0}),
])
def test_learn_trace_matches_its_golden_file(tmp_path, method, extra):
    # the files pin every byte of the JSONL trace format: fields, order and float reprs
    train, _ = make_dataset(af_rate(), 4, 0, seed=0, count_range=(300, 400))
    path = tmp_path / "trace.jsonl"
    cfg = SearchConfig(max_depth=6, max_bins=8, max_restarts=2, max_retries=2, seed=0, trace_path=str(path), **extra)
    learn(CellData.from_events(train, 300.0, FitConfig(degree=1)), method=method, config=cfg)
    assert path.read_bytes() == (GOLDEN_TRACES / f"trace_{method}.jsonl").read_bytes()


def test_trace_entries_replay_states_and_events():
    events = steep_series(3, 250, seed=5)
    cfg = SearchConfig(max_depth=5, max_bins=6, gamma=1e-3)
    trace = divide("ivanov", CellData.from_events(events, 300.0, FitConfig(degree=1)), cfg)
    entries = trace.entries
    assert len(entries) == len(trace.events)
    made = [e for e in entries if e.kind in ("root", "split")]
    assert made[-1].knots == tuple(sorted(k for k, _, _ in trace.states[1:]))
    assert [(e.risk, e.penalized) for e in made] == [(r, r + 1e-3 * s) for _, r, s in trace.states]
    for entry, (kind, interval, knot, depth, reason, left, right) in zip(entries, trace.events):
        assert (entry.kind, entry.interval, entry.proposed_knot, entry.depth, entry.reason) == (
            kind, interval, knot, depth, reason
        )
        assert entry.left_test == (None if left is None else left.to_dict())
        assert entry.right_test == (None if right is None else right.to_dict())
        assert entry.n_bins == len(entry.knots) + 1
    # tikhonov ranks states only under a gamma
    counts = CountTable.from_events(events, 300.0)
    tik = divide("tikhonov", CellData(counts, FitConfig(degree=1)), SearchConfig(max_bins=4, gamma=1e-3))
    with pytest.raises(ValueError, match="ranked under a gamma"):
        tik.best_state(None)


# --- one CellData shared by several learn calls -------------------------------

def report_bytes(rep):
    # every FitReport field, floats by repr, plus the fitted coefficients
    return json.dumps(rep.summary_dict()), rep.model.coefficients.tobytes()


def learn_alone_and_shared(tmp_path, calls, train_events, fit_config):
    """Run each (method, config, kwargs) call twice: on a CellData of its own, and on one shared one.

    Returns the pairs of (report, JSONL trace bytes); the shared calls run in
    order, so each finds the fits of the calls before it.  ``equal:N`` runs no
    search, so it is given no trace path.
    """
    shared = CellData.from_events(train_events, 300.0, fit_config)
    pairs = []
    for i, (method, config, kwargs) in enumerate(calls):
        out = []
        for side, data in (("alone", CellData.from_events(train_events, 300.0, fit_config)), ("shared", shared)):
            path = tmp_path / f"{i}-{side}.jsonl"
            trace_path = None if method.startswith("equal:") else str(path)
            rep = learn(data, method=method, config=replace(config, trace_path=trace_path), **kwargs)
            out.append((report_bytes(rep), path.read_bytes() if path.exists() else None))
        pairs.append(out)
    return pairs


@pytest.mark.parametrize("seed", range(3))
def test_shared_data_over_the_eta_grid_equals_learn_alone(tmp_path, seed):
    events = steep_series(3, 400, seed=seed)
    test = CountTable.from_events(steep_series(2, 400, seed=seed + 100), 300.0)
    cfg = SearchConfig(max_depth=12, max_bins=96, max_restarts=3, seed=seed)
    calls = [("relaxed", replace(cfg, eta_seconds=eta * 60.0), {"test_counts": test}) for eta in ETA_SWEEP_MINUTES]
    for alone, shared in learn_alone_and_shared(tmp_path, calls, events, FitConfig(degree=3)):
        assert shared == alone


@pytest.mark.parametrize("seed", range(3))
def test_shared_data_over_ivanov_then_tikhonov_equals_learn_alone(tmp_path, seed):
    events = steep_series(6, 300, seed=seed)
    test = CountTable.from_events(steep_series(2, 300, seed=seed + 100), 300.0)
    cfg = SearchConfig(max_depth=8, max_bins=8, max_restarts=4, max_retries=2, seed=seed)
    with_test = {"test_counts": test}
    calls = [
        ("equal:1", cfg, with_test),
        ("ivanov", cfg, with_test),
        ("tikhonov", cfg, with_test),  # gamma picked on a held-out tail, from a CellData of its own
    ]
    pairs = learn_alone_and_shared(tmp_path, calls, events, FitConfig(degree=1))
    for alone, shared in pairs:
        assert shared == alone
    assert pairs[1][0][1] and pairs[2][0][1]  # both searches wrote a trace


def test_learn_and_divide_refuse_data_that_is_not_a_cell_data():
    counts = CountTable.from_events(steep_series(2, 200, seed=7), 300.0)
    for run in (
        lambda: learn(counts, method="equal:2"),
        lambda: learn(counts, method="tikhonov"),  # before the gamma is picked
        lambda: learn(counts),
        lambda: divide("ivanov", counts),
        lambda: divide("relaxed", counts, config=SearchConfig(eta_seconds=600.0)),
    ):
        with pytest.raises(TypeError, match="^data must be a CellData, got CountTable$"):
            run()


# learn picks tikhonov's gamma itself, so only divide can lack it
@pytest.mark.parametrize("method, message", [
    ("relaxed", "relaxed division requires eta_seconds"),
    ("ivanov", "ivanov division requires training arrival times"),
])
def test_learn_and_divide_refuse_a_missing_requirement_alike(method, message):
    counts = CountTable.from_events(steep_series(3, 200, seed=8), 300.0)
    refused = []
    for run in (lambda: learn(CellData(counts), method=method),
                lambda: divide(method, CellData(counts))):
        with pytest.raises(ValueError) as info:
            run()
        refused.append(str(info.value))
    assert refused == [message, message]


# --- restarts ranked by binned_risk -------------------------------------------

def outer_score(data, knots):
    """Frozen copy of the scorer that ranked restarts before ``binned_risk`` did.

    Training risk of a restart's best partition, summed bin by bin in order.
    """
    edges = Partition(window=data.window, knots=knots).edges()
    weighted = 0.0
    total = 0
    for k in range(len(knots) + 1):
        _, risk, m = data.fit_interval(edges[k], edges[k + 1])
        weighted += m * risk
        total += m
    return weighted / total


def oracle_winner(data, traces, gamma):
    """The restart the frozen scorer picks: the lowest score, the earlier on a tie."""
    best_score, best_knots = math.inf, ()
    for trace in traces:
        knots = trace.best_state(gamma)[0]
        score = outer_score(data, knots)
        if score < best_score:
            best_score, best_knots = score, knots
    return best_knots, best_score


def assert_oracle_winners(data, kind, config, gammas):
    winners, traces = binning._search_best(data, kind, config, gammas)
    for gamma, (model, risks, sizes) in zip(gammas, winners):
        knots, score = oracle_winner(data, traces, gamma)
        assert bits(*model.partition.knots) == bits(*knots)
        assert bits(binned_risk(sizes, risks)) == bits(score)


@pytest.mark.parametrize("seed", range(3))
def test_search_best_picks_the_oracle_winners_over_the_eta_grid(seed):
    # exp1's relaxed restarts tie down to the last bit, so the rounding of the score picks these winners
    cfg = ExperimentConfig.exp1_defaults(seed=seed)
    data, _ = _dataset(cfg)
    for eta_minutes in cfg.eta_sweep_minutes:
        assert_oracle_winners(data, "relaxed", cfg.search_config(eta_seconds=eta_minutes * 60.0), (None,))


def test_search_best_picks_the_oracle_winners_over_the_gamma_grid():
    # the fit days of exp2's gamma selection at seed 0
    cfg = ExperimentConfig.exp2_defaults(seed=0)
    train_table = _dataset(cfg)[0].table
    n_fit = min(max(1, math.ceil(0.75 * train_table.n_days)), train_table.n_days - 1)
    fit_table = CountTable(train_table.window, train_table.resolution, train_table.counts[:n_fit])
    assert_oracle_winners(CellData(fit_table, cfg.fit_config()), "tikhonov", cfg.search_config(), GAMMA_GRID)


@pytest.mark.parametrize("method", ["ivanov", "tikhonov", "relaxed"])
def test_reported_binned_risk_is_the_score_that_ranked_the_restarts(method):
    train, _ = make_dataset(af_rate(), 30, 0, seed=0)
    config = SearchConfig(max_depth=12, max_bins=12, max_restarts=4, max_retries=3, seed=0,
                          eta_seconds=1200.0 if method == "relaxed" else None)
    data = CellData.from_events(train, 300.0, FitConfig(degree=1))
    report = learn(data, method=method, config=config)
    assert bits(report.binned_risk) == bits(outer_score(data, report.partition.knots))
