"""Per-bin least squares and partition fitting."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhpplearn import (
    CountTable,
    EventSeries,
    FitConfig,
    Partition,
    RateModel,
    TimeWindow,
    binned_risk,
    fit_partition,
)
from nhpplearn.regression import CellData, evaluate
from oracles import fit_bin


def table_from_counts(counts, window=None, resolution=10.0):
    counts = np.asarray(counts, dtype=float)
    window = window or TimeWindow(0.0, resolution * counts.shape[1])
    return CountTable(window, resolution, counts)


# --- single-bin fits ----------------------------------------------------------

def test_fit_bin_recovers_exact_polynomials():
    rng = np.random.default_rng(2)
    lo, hi = 10.0, 50.0
    times = np.linspace(lo, hi, 25, endpoint=False) + 0.8
    for degree in range(4):
        coef_true = rng.normal(size=degree + 1)
        u = (2.0 * times - (lo + hi)) / (hi - lo)
        y = np.polynomial.polynomial.polyval(u, coef_true)
        got = fit_bin(times, y, (lo, hi), FitConfig(degree=degree))
        np.testing.assert_allclose(got, coef_true, atol=1e-9)


def test_fit_bin_pads_reduced_degrees_with_zeros():
    # two distinct abscissae support at most a line, rest of the cubic is zero
    times = np.array([1.0, 1.0, 3.0, 3.0])
    y = np.array([2.0, 4.0, 8.0, 10.0])
    coef = fit_bin(times, y, (0.0, 4.0), FitConfig(degree=3))
    assert coef.shape == (4,)
    np.testing.assert_allclose(coef[2:], 0.0, atol=1e-12)
    u = (2.0 * times - 4.0) / 4.0
    fitted = np.polynomial.polynomial.polyval(u, coef)
    np.testing.assert_allclose(fitted, [3.0, 3.0, 9.0, 9.0], atol=1e-9)


def test_fit_bin_single_point_is_constant():
    coef = fit_bin(np.array([5.0]), np.array([7.0]), (0.0, 10.0), FitConfig(degree=3))
    np.testing.assert_allclose(coef, [7.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_fit_bin_validations():
    with pytest.raises(ValueError, match="lo < hi"):
        fit_bin(np.array([1.0]), np.array([1.0]), (5.0, 5.0), FitConfig())
    with pytest.raises(ValueError, match="matching shapes"):
        fit_bin(np.array([1.0, 2.0]), np.array([1.0]), (0.0, 10.0), FitConfig())


def test_fit_config_validations():
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        FitConfig(degree=-1)
    for bad in (1.5, 1.0, True, "1", None):
        with pytest.raises(ValueError, match=rf"^degree must be an integer, got {re.escape(repr(bad))}$"):
            FitConfig(degree=bad)
    assert FitConfig(degree=np.int32(2)).degree == 2


def test_few_distinct_points_reduce_degree():
    # 3 points cannot support a cubic; expect a quadratic at most
    times = np.array([1.0, 2.0, 3.0])
    y = np.array([1.0, 4.0, 9.0])
    coef = fit_bin(times, y, (0.0, 4.0), FitConfig(degree=3))
    assert coef[3] == 0.0


# --- cell views ---------------------------------------------------------------

def test_interval_slice_half_open_with_tail():
    table = table_from_counts(np.arange(12.0).reshape(2, 6))
    data = CellData(table)
    # midpoints at 5, 15, ..., 55
    assert data.interval_slice(0.0, 20.0) == slice(0, 2)
    assert data.interval_slice(15.0, 25.0) == slice(1, 2)
    assert data.interval_slice(50.0, 60.0) == slice(5, 6)
    assert data.interval_slice(0.0, 60.0) == slice(0, 6)


def test_fit_interval_risk_is_mean_squared_residual():
    counts = np.array([[1.0, 5.0, 3.0], [3.0, 7.0, 5.0]])
    table = table_from_counts(counts)
    data = CellData(table, FitConfig(degree=0))
    coef, risk, m = data.fit_interval(0.0, 30.0)
    assert m == 6
    mean = counts.mean()
    np.testing.assert_allclose(coef[0], mean, atol=1e-12)
    np.testing.assert_allclose(risk, np.mean((counts - mean) ** 2), atol=1e-12)


def test_fit_interval_empty_is_zero():
    table = table_from_counts(np.ones((1, 4)))
    data = CellData(table, FitConfig(degree=2))
    coef, risk, m = data.fit_interval(11.0, 14.0)  # no midpoint inside
    assert m == 0 and risk == 0.0
    np.testing.assert_array_equal(coef, np.zeros(3))


def _oracle_fit(table, lo, hi, config):
    """The per-interval fit as plain ``fit_bin`` on the cells tiled over days."""
    sl = CellData(table).interval_slice(lo, hi)
    mids = table.cell_midpoints()[sl]
    if mids.size == 0:
        return np.zeros(config.degree + 1), 0.0, 0
    x = np.tile(mids, table.n_days)
    y = table.counts[:, sl].ravel()
    coef = fit_bin(x, y, (lo, hi), config)
    u = (2.0 * x - (lo + hi)) / (hi - lo)
    resid = y - np.polynomial.polynomial.polyval(u, coef)
    return coef, float(np.mean(resid * resid)), int(y.size)


@st.composite
def interval_fits(draw):
    resolution = draw(st.sampled_from([60.0, 300.0, 1800.0]))
    n_cells = draw(st.integers(1, 40))
    ragged = draw(st.sampled_from([0.0, 0.3, 0.9])) * resolution
    length = (n_cells - 1) * resolution + (ragged or resolution)
    start = float(draw(st.integers(0, int(86400.0 - length))))
    window = TimeWindow(start, start + length)
    n_days = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.poisson(draw(st.sampled_from([0.5, 4.0, 40.0])), size=(n_days, n_cells))
    table = CountTable(window, resolution, counts)
    edges = table.cell_edges()
    n = table.n_cells
    i = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["empty", "one-cell", "window-end", "random"]))
    if kind == "empty":  # from past cell i's midpoint to its right edge
        lo, hi = 0.5 * (table.cell_midpoints()[i] + edges[i + 1]), edges[i + 1]
    elif kind == "one-cell":
        lo, hi = edges[i], edges[i + 1]
    elif kind == "window-end":
        lo, hi = edges[i], window.end
    else:
        a, b = sorted(draw(st.lists(st.floats(window.start, window.end), min_size=2, max_size=2, unique=True)))
        lo, hi = a, b
    degree = draw(st.integers(0, 4))
    return table, float(lo), float(hi), FitConfig(degree=degree)


@settings(max_examples=300, deadline=None)
@given(interval_fits())
def test_fit_interval_is_bitwise_fit_bin(case):
    table, lo, hi, config = case
    coef, risk, m = CellData(table, config).fit_interval(lo, hi)
    want_coef, want_risk, want_m = _oracle_fit(table, lo, hi, config)
    assert np.array_equal(coef, want_coef)
    assert risk == want_risk
    assert m == want_m


@settings(max_examples=50, deadline=None)
@given(interval_fits())
def test_fit_interval_memo_matches_fresh_and_is_read_only(case):
    table, lo, hi, config = case
    data = CellData(table, config)
    first = data.fit_interval(lo, hi)
    again = data.fit_interval(lo, hi)
    fresh = CellData(table, config).fit_interval(lo, hi)
    assert again is first
    assert np.array_equal(again[0], fresh[0]) and again[1:] == fresh[1:]
    assert not first[0].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0][0] = 1.0


def _cut_around(mids, window, i, j, a, b):
    """An interval holding exactly cells i..j: lo in (mids[i-1], mids[i]], hi in (mids[j], mids[j+1]]."""
    left = mids[i - 1] if i > 0 else window.start
    right = mids[j + 1] if j + 1 < mids.size else window.end
    return mids[i] - a * (mids[i] - left), mids[j] + b * (right - mids[j])


@st.composite
def shared_cell_fits(draw):
    """One table and many intervals that share cells: single cells cut many
    ways, empty gaps, runs of cells (constant fits at degree 0) and random ones."""
    resolution = draw(st.sampled_from([60.0, 300.0]))
    n_cells = draw(st.integers(1, 12))
    start = float(draw(st.integers(0, 3600)))
    window = TimeWindow(start, start + n_cells * resolution)
    n_days = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.poisson(draw(st.sampled_from([0.5, 4.0, 40.0])), size=(n_days, n_cells))
    table = CountTable(window, resolution, counts)
    mids = table.cell_midpoints()
    fraction = st.floats(0.0, 1.0, exclude_max=True)
    intervals = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["one-cell", "one-cell", "empty", "run", "random"]))
        i = draw(st.integers(0, n_cells - 1))
        a, b = draw(fraction), 1.0 - draw(fraction)  # a in [0, 1), b in (0, 1]
        if kind == "one-cell":
            lo, hi = _cut_around(mids, window, i, i, a, b)
        elif kind == "run":
            lo, hi = _cut_around(mids, window, i, draw(st.integers(i, n_cells - 1)), a, b)
        elif kind == "empty" and i + 1 < n_cells:  # inside the gap after cell i's midpoint
            gap = mids[i + 1] - mids[i]
            lo = mids[i] + max(a, 0.01) * gap
            hi = lo + b * (mids[i + 1] - lo)
        else:
            lo, hi = sorted(draw(st.lists(st.floats(window.start, window.end), min_size=2, max_size=2, unique=True)))
        if lo < hi:
            intervals.append((float(lo), float(hi)))
    return table, intervals, FitConfig(degree=draw(st.integers(0, 3)))


@settings(max_examples=200, deadline=None)
@given(shared_cell_fits())
def test_fits_sharing_cells_equal_fresh_fit_bin(case):
    table, intervals, config = case
    data = CellData(table, config)
    for lo, hi in intervals:
        coef, risk, m = data.fit_interval(lo, hi)
        want_coef, want_risk, want_m = _oracle_fit(table, lo, hi, config)
        assert np.array_equal(coef, want_coef)
        assert risk == want_risk
        assert m == want_m
        assert not coef.flags.writeable


def test_constant_fits_run_once_per_cell_slice(monkeypatch):
    made = []
    fit = CellData._fit

    def counting_fit(self, lo, hi, sl):
        made.append((lo, hi))
        return fit(self, lo, hi, sl)

    monkeypatch.setattr(CellData, "_fit", counting_fit)
    rng = np.random.default_rng(3)
    table = table_from_counts(rng.poisson(5.0, size=(3, 10)).astype(float))  # midpoints 5, 15, ..., 95
    data = CellData(table, FitConfig(degree=1))
    for k in range(10):  # each cell cut five ways
        for lo, hi in ((10 * k, 10 * k + 10), (10 * k + 5, 10 * k + 6), (10 * k + 1, 10 * k + 15),
                       (10 * k - 4.5, 10 * k + 9), (10 * k + 4.75, 10 * k + 5.5)):
            assert data.fit_interval(float(lo), float(hi))[2] == 3
    assert len(made) == 10
    for lo, hi in ((5.5, 6.0), (6.0, 15.0), (7.25, 8.0)):  # empty, all between midpoints 5 and 15
        assert data.fit_interval(lo, hi)[2] == 0
    assert len(made) == 11
    data.fit_interval(0.0, 30.0)
    data.fit_interval(1.0, 30.0)  # the same three cells, but a line depends on the bounds
    assert len(made) == 13
    # at degree 0 every fit is constant: one per slice, whatever the bounds
    data = CellData(table, FitConfig(degree=0))
    made.clear()
    for lo, hi in ((0.0, 30.0), (4.0, 26.0), (5.0, 25.5), (0.0, 100.0), (2.0, 100.0)):
        data.fit_interval(lo, hi)
    assert len(made) == 2
    # a constant fit reached through new bounds is the remembered, read-only one
    assert data.fit_interval(3.0, 29.0) is data.fit_interval(0.0, 30.0)


def test_cell_data_requires_days():
    with pytest.raises(ValueError, match="no observed days"):
        CellData(CountTable(TimeWindow(0.0, 10.0), 10.0, np.zeros((0, 1))))


@pytest.mark.parametrize("resolution", [300.0, 7.0, 3600.0])
def test_cell_data_from_events_counts_what_count_table_counts(resolution):
    rng = np.random.default_rng(4)
    window = TimeWindow(100.0, 30000.0)
    series = EventSeries(window, tuple(np.sort(rng.uniform(100.0, 30000.0, n)) for n in (0, 40, 250)))
    config = FitConfig(degree=2, clamp=False)
    data = CellData.from_events(series, resolution, config)
    table = CountTable.from_events(series, resolution)
    assert (data.table.window, data.table.resolution) == (table.window, table.resolution)
    assert data.table.counts.shape == table.counts.shape
    assert data.table.counts.tobytes() == table.counts.tobytes()
    assert data.arrivals is series and data.config is config
    assert CellData(table, config).arrivals is None


# --- partition fits -----------------------------------------------------------

def test_fit_partition_matches_per_bin_fits():
    rng = np.random.default_rng(8)
    counts = rng.poisson(6.0, size=(3, 24)).astype(float)
    table = table_from_counts(counts)
    part = Partition(table.window, (60.0, 150.0))
    model, risks, sizes = fit_partition(CellData(table, FitConfig(degree=1)), part)
    assert sizes.sum() == counts.size
    data = CellData(table, FitConfig(degree=1))
    edges = part.edges()
    for k in range(part.n_bins):
        coef, risk, m = data.fit_interval(edges[k], edges[k + 1])
        np.testing.assert_allclose(model.coefficients[k], coef, atol=1e-12)
        assert math.isclose(risks[k], risk, rel_tol=1e-12)
        assert sizes[k] == m


def test_training_risk_equals_unweighted_global_mse():
    # occupancy-weighted binned risk over midpoint cells is the plain MSE
    rng = np.random.default_rng(13)
    counts = rng.poisson(9.0, size=(4, 30)).astype(float)
    table = table_from_counts(counts)
    part = Partition(table.window, (90.0, 170.0, 250.0))
    cfg = FitConfig(degree=2, clamp=False)
    model, risks, sizes = fit_partition(CellData(table, cfg), part)
    weighted = binned_risk(sizes, risks)
    pred = model.evaluate(table.cell_midpoints())
    direct = np.mean((counts - pred[None, :]) ** 2)
    np.testing.assert_allclose(weighted, direct, rtol=1e-12)


def test_fit_partition_checks_window():
    table = table_from_counts(np.ones((1, 4)))
    with pytest.raises(ValueError, match="does not match"):
        fit_partition(CellData(table), Partition(TimeWindow(0.0, 50.0), ()))


def test_fit_partition_reuses_fits_of_its_cell_data():
    rng = np.random.default_rng(5)
    table = table_from_counts(rng.poisson(6.0, size=(3, 24)).astype(float))
    part = Partition(table.window, (60.0, 150.0))
    data = CellData(table, FitConfig(degree=1))
    held = data.fit_interval(60.0, 150.0)
    model, risks, sizes = fit_partition(data, part)
    assert np.array_equal(model.coefficients[1], held[0]) and risks[1] == held[1]
    assert model.resolution == table.resolution and model.coefficients.shape == (3, 2)
    fresh, fresh_risks, _ = fit_partition(CellData(table, FitConfig(degree=1)), part)
    assert np.array_equal(model.coefficients, fresh.coefficients)
    assert np.array_equal(risks, fresh_risks)


def test_refinement_never_raises_training_risk():
    # adding knots to any partition can only reduce the weighted training risk
    rng = np.random.default_rng(21)
    for trial in range(50):
        n_cells = int(rng.integers(12, 40))
        counts = rng.poisson(5.0, size=(2, n_cells)).astype(float)
        table = table_from_counts(counts)
        span = table.window.end
        coarse_knots = np.sort(rng.uniform(5.0, span - 5.0, size=int(rng.integers(0, 3))))
        extra = rng.uniform(5.0, span - 5.0, size=int(rng.integers(1, 3)))
        fine_knots = np.unique(np.concatenate([coarse_knots, extra]))
        cfg = FitConfig(degree=int(rng.integers(0, 4)))
        coarse = Partition(table.window, tuple(coarse_knots))
        fine = Partition(table.window, tuple(fine_knots))
        _, r_c, s_c = fit_partition(CellData(table, cfg), coarse)
        _, r_f, s_f = fit_partition(CellData(table, cfg), fine)
        assert binned_risk(s_f, r_f) <= binned_risk(s_c, r_c) + 1e-10


def test_fitted_cubic_beats_random_perturbations():
    # local optimality of the least-squares solution inside one bin
    rng = np.random.default_rng(34)
    times = np.sort(rng.uniform(0.0, 100.0, size=50))
    y = rng.poisson(10.0, size=50).astype(float)
    cfg = FitConfig(degree=3)
    coef = fit_bin(times, y, (0.0, 100.0), cfg)
    u = (2.0 * times - 100.0) / 100.0
    base = np.mean((y - np.polynomial.polynomial.polyval(u, coef)) ** 2)
    for _ in range(1000):
        trial = coef + rng.normal(scale=0.05, size=4)
        risk = np.mean((y - np.polynomial.polynomial.polyval(u, trial)) ** 2)
        assert base <= risk + 1e-12


def test_evaluate_is_rmse_over_cells():
    counts = np.array([[2.0, 4.0], [4.0, 6.0]])
    table = table_from_counts(counts)
    part = Partition(table.window, ())
    model, _, _ = fit_partition(CellData(table, FitConfig(degree=0)), part)
    # constant fit at the grand mean 4; residuals (-2, 0, 0, 2)
    assert math.isclose(evaluate(model, table), math.sqrt(2.0), rel_tol=1e-12)


def test_evaluate_rejects_counts_at_another_resolution():
    # a model learned on 60 s cells predicts counts per minute; scoring it on
    # 300 s cells compared per-minute rates with five-minute counts
    rng = np.random.default_rng(7)
    window = TimeWindow(0.0, 3600.0)
    days = tuple(np.sort(rng.uniform(0.0, 3600.0, size=400)) for _ in range(3))
    series = EventSeries(window, days)
    fine = CountTable.from_events(series, 60.0)
    coarse = CountTable.from_events(series, 300.0)
    model, _, _ = fit_partition(CellData(fine, FitConfig(degree=1)), Partition(window, (1800.0,)))
    assert model.resolution == 60.0
    assert math.isfinite(evaluate(model, fine))
    with pytest.raises(ValueError, match="learned on 60 s cells .* has 300 s cells"):
        evaluate(model, coarse)


def test_evaluate_accepts_any_resolution_when_the_model_has_none():
    table = table_from_counts([[2.0, 4.0], [4.0, 6.0]])
    model, _, _ = fit_partition(CellData(table, FitConfig(degree=0)), Partition(table.window, ()))
    unknown = RateModel(model.partition, model.coefficients, model.clamp)
    coarse = CountTable(table.window, 20.0, [[6.0], [10.0]])
    assert evaluate(unknown, coarse) == evaluate(replace(model, resolution=20.0), coarse)
