"""Acceptance gate: nine end-to-end criteria, one test (and one verdict line) each.

Every test computes its quantities first, prints a single summary line
(visible with -s or on failure), then asserts both the tolerance and the
runtime budget.  Oracles here are written from the defining formulas with
plain loops, independent of the library code under test.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
from click.testing import CliRunner
from scipy.stats import spearmanr

from nhpplearn import (
    CountTable,
    Partition,
    PiecewiseLinearRate,
    TimeWindow,
    af_rate,
    binned_risk,
    fit_partition,
    kmeans,
    ks_critical,
    penalized_risk,
    simulate_conditioned,
    simulate_thinning,
)
from nhpplearn.cli import main as cli_main
from nhpplearn.experiments import ExperimentConfig, run_experiment_1, run_experiment_2
from nhpplearn.regression import CellData, FitConfig
from nhpplearn.simulate import day_stream
from oracles import ks_statistic, log_test, uniform_ks_test, vc_bound_xi


def _verdict(num: int, label: str, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    status = "PASS" if (ok and elapsed < limit) else "FAIL"
    print(f"criterion {num} ({label}): {status}  {detail}  [{elapsed:.2f}s, limit {limit:g}s]")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} overran: {elapsed:.2f}s >= {limit:g}s"


def _rel_err(got: float, want: float) -> float:
    scale = max(abs(want), 1e-30)
    return abs(got - want) / scale


# --- 1: closed-form quantities against brute-force oracles --------------------

def test_criterion_1_formula_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0

    for _ in range(100):
        k = int(rng.integers(1, 9))
        sizes = rng.integers(0, 21, size=k)
        if sizes.sum() == 0:
            sizes[0] = 1
        risks = rng.uniform(0.0, 5.0, size=k)
        want = sum(int(m) * float(r) for m, r in zip(sizes, risks)) / int(sizes.sum())
        worst = max(worst, _rel_err(binned_risk(sizes, risks), want))

    for _ in range(100):
        k = int(rng.integers(1, 7))
        edges = np.sort(rng.uniform(0.0, 100.0, size=k + 1))
        edges = edges + np.arange(k + 1) * 0.5  # keep lengths well away from zero
        part = Partition(TimeWindow(edges[0], edges[-1]), tuple(edges[1:-1]))
        sizes = rng.integers(1, 30, size=k)
        risks = rng.uniform(0.0, 3.0, size=k)
        gamma = float(rng.uniform(0.0, 2.0))
        base = sum(int(m) * float(r) for m, r in zip(sizes, risks)) / int(sizes.sum())
        pen = sum(
            int(sizes[j]) * float(risks[j]) / (edges[j + 1] - edges[j]) for j in range(k - 1)
        )
        want = base + gamma * pen
        worst = max(worst, _rel_err(penalized_risk(sizes, risks, part, gamma), want))

    for _ in range(100):
        h = int(rng.integers(1, 40))
        m = int(rng.integers(h + 1, 5000))
        eta = float(rng.uniform(0.001, 0.999))
        want = (h * (math.log(2.0 * m / h) + 1.0) - math.log(eta / 4.0)) / m
        worst = max(worst, _rel_err(vc_bound_xi(m, h, eta), want))

    for _ in range(100):
        m = int(rng.integers(1, 2000))
        eps = float(rng.uniform(0.001, 0.5))
        want = math.sqrt(-0.5 * math.log(eps / 2.0) / m)
        worst = max(worst, _rel_err(ks_critical(m, eps), want))

    for _ in range(100):
        lo, hi = 0.0, float(rng.uniform(10.0, 1000.0))
        m = int(rng.integers(2, 21))
        arr = np.sort(rng.uniform(lo, hi, size=m) * 0.999)
        span = hi - lo
        xs = []
        prev = 0.0
        for i, t in enumerate(arr, start=1):
            xs.append(-(m + 1 - i) * math.log((span - (t - lo)) / (span - prev)))
            prev = t - lo
        xs.sort()
        stat = 0.0
        for i, x in enumerate(xs, start=1):
            f = 1.0 - math.exp(-x)
            stat = max(stat, abs(f - i / m), abs(f - (i - 1) / m))
        worst = max(worst, _rel_err(log_test(arr, lo, hi).statistic, stat))

    elapsed = time.perf_counter() - t0
    _verdict(1, "formula oracles", worst <= 1e-9, f"max rel err {worst:.3g} over 5x100 instances", elapsed, 1.0)


# --- 2: refining a partition never increases binned training risk -------------

def test_criterion_2_refinement_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    window = TimeWindow(0.0, 86400.0)
    worst = -math.inf
    n_trials = 200
    for trial in range(n_trials):
        n_days = int(rng.integers(1, 4))
        counts = rng.poisson(rng.uniform(1.0, 30.0), size=(n_days, 144)).astype(float)
        table = CountTable(window, 600.0, counts)
        degree = trial % 4

        k = int(rng.integers(0, 5))
        coarse_knots = np.sort(rng.uniform(0.0, 86400.0, size=k))
        extra = rng.uniform(0.0, 86400.0, size=int(rng.integers(1, 4)))
        fine_knots = np.unique(np.concatenate([coarse_knots, extra]))

        coarse = Partition(window, tuple(coarse_knots))
        fine = Partition(window, tuple(fine_knots))
        cfg = FitConfig(degree=degree)
        _, r_c, m_c = fit_partition(CellData(table, cfg), coarse)
        _, r_f, m_f = fit_partition(CellData(table, cfg), fine)
        worst = max(worst, binned_risk(m_f, r_f) - binned_risk(m_c, r_c))
    elapsed = time.perf_counter() - t0
    _verdict(
        2, "refinement monotonicity", worst <= 1e-10,
        f"max risk increase {worst:.3g} over {n_trials} triples, degrees 0-3", elapsed, 30.0,
    )


# --- 3: built-in daily profile is continuous with the right mass --------------

def test_criterion_3_daily_profile_integrity():
    t0 = time.perf_counter()
    rate = af_rate()
    jumps = []
    for j, b in enumerate(rate.breakpoints[1:-1]):
        u = b / rate.scale
        s0, i0 = rate.segments[j]
        s1, i1 = rate.segments[j + 1]
        jumps.append(abs((s0 * u + i0) - (s1 * u + i1)))
    max_jump = max(jumps)

    # trapezoid oracle: exact for a piecewise-linear function once the grid
    # contains every breakpoint (1 s steps do, knots being multiples of 10800)
    ts = np.arange(0.0, 86400.0 + 1.0)
    integral = float(np.trapezoid(rate.value(ts), ts)) / rate.scale
    int_err = _rel_err(integral, 8334.0)
    impl_err = _rel_err(rate.total_mass(), 8334.0)

    elapsed = time.perf_counter() - t0
    ok = max_jump <= 1e-12 and int_err <= 1e-9 and impl_err <= 1e-9
    _verdict(
        3, "daily profile integrity", ok,
        f"max knot jump {max_jump:.3g}, trapezoid mass rel err {int_err:.3g} (impl {impl_err:.3g}) vs 8334",
        elapsed, 1.0,
    )


# --- 4: simulator calibration -------------------------------------------------

def test_criterion_4_simulator_calibration():
    t0 = time.perf_counter()
    lam, horizon, n_runs = 2.0, 1000.0, 1000
    flat = PiecewiseLinearRate(breakpoints=(0.0, horizon), segments=((0.0, lam),), scale=1.0)
    window = TimeWindow(0.0, horizon)
    counts = np.array([
        simulate_thinning(flat, window, day_stream(404, i)).size for i in range(n_runs)
    ])
    target = lam * horizon
    se = math.sqrt(target / n_runs)
    mean_dev_se = abs(counts.mean() - target) / se

    samples = simulate_conditioned(af_rate(), TimeWindow(0.0, 86400.0), day_stream(405, 0),
                                   count_range=(100_000, 100_000))
    rate = af_rate()
    total = rate.total_mass()
    ks = ks_statistic(samples, lambda t: rate.cumulative_mass(t) / total)

    elapsed = time.perf_counter() - t0
    ok = mean_dev_se <= 4.0 and ks <= 0.01
    _verdict(
        4, "simulator calibration", ok,
        f"thinning mean off by {mean_dev_se:.2f} SE (1000 runs); inverse-CDF KS {ks:.4f} at 1e5",
        elapsed, 60.0,
    )


# --- 5: homogeneity tests calibrated and powered ------------------------------

def test_criterion_5_test_calibration_and_power():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    eps, horizon, n_trials = 0.05, 3600.0, 1000
    rejects_log = rejects_ks = 0
    for _ in range(n_trials):
        m = max(2, int(rng.poisson(100)))
        arr = np.sort(rng.uniform(0.0, horizon, size=m)) * (1.0 - 1e-12)
        if not log_test(arr, 0.0, horizon, eps).passed:
            rejects_log += 1
        if not uniform_ks_test(arr, 0.0, horizon, eps).passed:
            rejects_ks += 1
    rate_log = rejects_log / n_trials
    rate_ks = rejects_ks / n_trials

    power_hits = 0
    n_power = 400
    for _ in range(n_power):
        # density proportional to t: inverse CDF is the square root
        arr = np.sort(horizon * np.sqrt(rng.uniform(size=200))) * (1.0 - 1e-12)
        if not log_test(arr, 0.0, horizon, eps).passed:
            power_hits += 1
    power = power_hits / n_power

    elapsed = time.perf_counter() - t0
    lo, hi = eps - 0.03, eps + 0.04
    ok = lo <= rate_log <= hi and lo <= rate_ks <= hi and power >= 0.9
    _verdict(
        5, "test calibration and power", ok,
        f"reject rates log {rate_log:.3f} / ks {rate_ks:.3f} in [{lo:.2f}, {hi:.2f}]; "
        f"power vs growing rate {power:.3f}",
        elapsed, 60.0,
    )


# --- 6: bin sweep reproduces the under/overfitting shape ----------------------

def test_criterion_6_sweep_shape(tmp_path):
    t0 = time.perf_counter()
    n_seeds, needed = 20, 18
    good = 0
    details = []
    for seed in range(n_seeds):
        cfg = ExperimentConfig.exp1_defaults(seed=seed, out_dir=str(tmp_path / f"s{seed}"))
        path = run_experiment_1(cfg)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        bins = np.array([int(r[1]) for r in rows])
        train = np.array([float(r[2]) for r in rows])
        test = np.array([float(r[3]) for r in rows])

        rho = spearmanr(bins, train).statistic
        order = np.argsort(bins, kind="stable")
        test_sorted = test[order]
        i_min = int(np.argmin(test_sorted))
        interior = 0 < i_min < len(test_sorted) - 1
        tail_rises = test_sorted[-1] > test_sorted[i_min]
        if rho <= -0.9 and interior and tail_rises:
            good += 1
        else:
            details.append(f"seed {seed}: rho={rho:.3f} i_min={i_min} tail={tail_rises}")
    elapsed = time.perf_counter() - t0
    _verdict(
        6, "sweep shape", good >= needed,
        f"{good}/{n_seeds} seeds show the shape (need {needed})"
        + (f"; failures: {'; '.join(details)}" if details else ""),
        elapsed, 600.0,
    )


# --- 7: adaptive binning beats equal-length at matched bin count --------------

def test_criterion_7_method_comparison(tmp_path):
    t0 = time.perf_counter()
    n_seeds, needed = 20, 16
    sigma_target, band = 4.74, 0.30
    wins = {"dbm_ivanov": 0, "dbm_tikhonov": 0}
    sigma = {"dbm_ivanov": [], "dbm_tikhonov": []}
    for seed in range(n_seeds):
        cfg = ExperimentConfig.exp2_defaults(seed=seed, out_dir=str(tmp_path / f"s{seed}"))
        path = run_experiment_2(cfg)
        for line in path.read_text().splitlines()[1:]:
            cells = line.split(",")
            label = cells[1]
            if label in wins:
                rmse_test = float(cells[3])
                improvement = float(cells[7])
                sigma[label].append(rmse_test)
                if improvement > 0.0:
                    wins[label] += 1
    means = {k: float(np.mean(v)) for k, v in sigma.items()}
    lo, hi = sigma_target * (1 - band), sigma_target * (1 + band)
    ok = all(wins[k] >= needed for k in wins) and all(lo <= means[k] <= hi for k in means)
    elapsed = time.perf_counter() - t0
    _verdict(
        7, "method comparison", ok,
        f"positive improvement: ivanov {wins['dbm_ivanov']}/{n_seeds}, "
        f"tikhonov {wins['dbm_tikhonov']}/{n_seeds} (need {needed}); "
        f"mean test RMSE ivanov {means['dbm_ivanov']:.2f}, tikhonov {means['dbm_tikhonov']:.2f} "
        f"vs band [{lo:.2f}, {hi:.2f}]",
        elapsed, 900.0,
    )


# --- 8: identical config and seed give byte-identical outputs -----------------

def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    runner = CliRunner()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "count_lo": 700, "count_hi": 800,
        "max_depth": 5, "max_bins": 8, "max_restarts": 2, "max_retries": 2,
    }))

    def run(args):
        result = runner.invoke(cli_main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output

    pairs = []
    for rep in ("a", "b"):
        d = tmp_path / rep
        run(["simulate", "--seed", "7", "--days-train", "2", "--days-test", "1",
             "--config", str(cfg_path), "--out-dir", str(d)])
        run(["learn", "--input", str(d / "train.csv"), "--test-input", str(d / "test.csv"),
             "--method", "ivanov", "--degree", "1", "--seed", "7",
             "--config", str(cfg_path), "--out-dir", str(d / "fit")])
        run(["exp1", "--seed", "7", "--days-train", "2", "--days-test", "1", "--degree", "1",
             "--eta-sweep", "600,120", "--config", str(cfg_path), "--out-dir", str(d)])
        pairs.append({
            "train.csv": (d / "train.csv").read_bytes(),
            "test.csv": (d / "test.csv").read_bytes(),
            "model.json": (d / "fit" / "model.json").read_bytes(),
            "report.json": (d / "fit" / "report.json").read_bytes(),
            "exp1.csv": (d / "exp1.csv").read_bytes(),
        })
    mismatched = [name for name in pairs[0] if pairs[0][name] != pairs[1][name]]
    elapsed = time.perf_counter() - t0
    _verdict(
        8, "determinism", not mismatched,
        ("all 5 outputs byte-identical across reruns" if not mismatched
         else f"mismatched: {mismatched}"),
        elapsed, 60.0,
    )


# --- 9: clustering agrees with the exhaustive assignment rule -----------------

def test_criterion_9_kmeans_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 9.0]])
    points = np.concatenate([c + 0.6 * rng.standard_normal((20, 2)) for c in centers])
    result = kmeans(points, 3, seed=1)

    centroids = result.centroids
    agree = 0
    for p, label in zip(points, result.labels):
        dists = [float(np.sum((p - c) ** 2)) for c in centroids]
        if int(np.argmin(dists)) == label:
            agree += 1
    agreement = agree / len(points)
    drops = np.diff(np.asarray(result.wcss_history))
    monotone = bool(np.all(drops <= 1e-9))

    elapsed = time.perf_counter() - t0
    ok = agreement >= 0.95 and monotone
    _verdict(
        9, "k-means oracle", ok,
        f"nearest-centroid agreement {agreement:.3f} on 60 points; WCSS nonincreasing: {monotone}",
        elapsed, 1.0,
    )
