"""Window/partition geometry, count tables, and the risk functionals."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhpplearn
from nhpplearn import (
    CountTable,
    EventSeries,
    Partition,
    RateModel,
    TimeWindow,
    binned_risk,
    penalized_risk,
)
from nhpplearn.core import MAX_CELLS
from oracles import generalization_bound, vc_bound_xi

DAY = TimeWindow(0.0, 86400.0)


# --- windows and event series -------------------------------------------------

def test_window_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        TimeWindow(10.0, 10.0)
    with pytest.raises(ValueError):
        TimeWindow(500.0, 100.0)


def test_event_series_sorts_each_day():
    s = EventSeries(DAY, (np.array([500.0, 100.0, 300.0]),))
    np.testing.assert_array_equal(s.days[0], [100.0, 300.0, 500.0])


def test_event_series_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        EventSeries(DAY, (np.array([100.0, 90000.0]),))


def test_event_series_rejects_matrix_day():
    with pytest.raises(ValueError, match="1-D"):
        EventSeries(DAY, (np.zeros((2, 2)),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_event_series_rejects_non_finite_arrivals(bad):
    # NaN compares false against both window bounds, so only an explicit check catches it
    with pytest.raises(ValueError, match="day 1: arrival times must be finite"):
        EventSeries(DAY, (np.array([10.0]), np.array([100.0, bad, 300.0])))


# --- count tables -------------------------------------------------------------

def test_count_table_conserves_events():
    s = EventSeries(DAY, (np.array([10.0, 3600.0, 50000.0]), np.array([100.0])))
    table = CountTable.from_events(s, resolution=300.0)
    assert table.counts.shape == (2, 288)
    assert table.counts.sum() == 4


def test_count_table_cell_count_is_ceiling():
    w = TimeWindow(0.0, 1000.0)
    s = EventSeries(w, (np.array([999.5]),))
    table = CountTable.from_events(s, resolution=300.0)
    # 1000/300 = 3.33 cells; the ragged final cell still catches the event
    assert table.n_cells == 4
    assert table.cell_edges()[-1] == 1000.0
    assert table.counts[0, -1] == 1


def test_count_table_validates_inputs():
    with pytest.raises(ValueError, match="resolution must be positive"):
        CountTable(DAY, 0.0, np.zeros((1, 1)))
    series = EventSeries(DAY, (np.array([1.0]),))
    for bad in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"resolution must be positive and finite, got {bad!r}"):
            CountTable(DAY, bad, np.zeros((1, 1)))
        with pytest.raises(ValueError, match=f"resolution must be positive and finite, got {bad!r}"):
            CountTable.from_events(series, bad)
    with pytest.raises(ValueError, match="resolution larger than the window"):
        CountTable.from_events(series, 1e20)
    # a fine grid is named before numpy is asked for terabytes
    for bad, cells in ((1e-9, "8.64e+13"), (5e-324, "inf"), (86400.0 / (MAX_CELLS + 0.5), "1000001")):
        message = f"resolution {bad!r} cuts the 86400 s window into {cells} cells, more than the 1000000 allowed"
        with pytest.raises(ValueError, match=re.escape(message)):
            CountTable.from_events(series, bad)
    assert CountTable.from_events(series, 86400.0 / MAX_CELLS).n_cells == MAX_CELLS
    with pytest.raises(ValueError, match="nonnegative"):
        CountTable(TimeWindow(0.0, 60.0), 60.0, np.array([[-1.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="counts must be finite"):
            CountTable(TimeWindow(0.0, 120.0), 60.0, np.array([[1.0, bad]]))


def test_count_table_oversized_resolution_gives_single_cell():
    table = CountTable.from_events(EventSeries(TimeWindow(0.0, 50.0), (np.array([1.0]),)), 60.0)
    assert table.n_cells == 1
    np.testing.assert_array_equal(table.cell_edges(), [0.0, 50.0])


@st.composite
def event_series_and_resolution(draw):
    start = draw(st.floats(0.0, 80000.0))
    end = draw(st.floats(start + 1.0, 86400.0))
    window = TimeWindow(start, end)
    edge_near = [start, float(np.nextafter(end, start))]
    arrivals = st.one_of(
        st.floats(start, end, exclude_max=True),
        st.sampled_from(edge_near),
    )
    days = draw(st.lists(st.lists(arrivals, max_size=30), max_size=4))
    resolution = draw(st.sampled_from([0.5, 1.0, 60.0, 300.0, 1800.0, 7.3, end - start]))
    return EventSeries(window, tuple(np.array(d, dtype=float) for d in days)), resolution


@given(event_series_and_resolution())
@settings(max_examples=200, deadline=None)
def test_count_table_conserves_every_event(case):
    series, resolution = case
    table = CountTable.from_events(series, resolution)
    assert table.counts.shape == (series.n_days, table.n_cells)
    np.testing.assert_array_equal(table.counts.sum(axis=1), [arr.size for arr in series.days])
    assert table.counts.sum() == series.total_events


# --- partitions ---------------------------------------------------------------

def test_partition_edges_include_window_bounds():
    p = Partition(DAY, (21600.0, 43200.0))
    np.testing.assert_array_equal(p.edges(), [0.0, 21600.0, 43200.0, 86400.0])
    np.testing.assert_array_equal(p.lengths(), [21600.0, 21600.0, 43200.0])
    assert p.n_bins == 3


def test_partition_rejects_bad_knots():
    with pytest.raises(ValueError, match="strictly inside"):
        Partition(DAY, (0.0,))
    with pytest.raises(ValueError, match="strictly inside"):
        Partition(DAY, (86400.0,))
    with pytest.raises(ValueError, match="ascending"):
        Partition(DAY, (500.0, 500.0))


def test_bin_index_half_open_with_end_fold():
    p = Partition(TimeWindow(0.0, 90.0), (30.0, 60.0))
    idx = p.bin_index(np.array([0.0, 29.999, 30.0, 59.999, 60.0, 90.0]))
    np.testing.assert_array_equal(idx, [0, 0, 1, 1, 2, 2])


def test_bin_index_rejects_outside_window():
    p = Partition(TimeWindow(0.0, 90.0), ())
    with pytest.raises(ValueError, match="outside the partition window"):
        p.bin_index(np.array([-1.0]))


@pytest.mark.parametrize("t", [[math.nan, 1.0], [1.0, math.nan], [math.nan]])
def test_nan_times_are_outside_the_window(t):
    # NaN fails both bounds of an outside test, so evaluate returned the last bin's rate for it
    model = RateModel(Partition(TimeWindow(0.0, 90.0), (30.0,)), np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError, match="outside the partition window"):
        model.partition.bin_index(np.array(t))
    with pytest.raises(ValueError, match="outside the partition window"):
        model.evaluate(t)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1.0, max_value=86399.0), min_size=1, max_size=8, unique=True))
def test_bin_index_matches_linear_scan(raw_knots):
    p = Partition(DAY, tuple(sorted(raw_knots)))
    edges = p.edges()
    ts = np.linspace(0.0, 86400.0, 101)
    idx = p.bin_index(ts)
    for t, k in zip(ts, idx):
        lo, hi = edges[k], edges[k + 1]
        if hi == DAY.end:
            assert lo <= t <= hi
        else:
            assert lo <= t < hi


def test_assign_bins_counts_every_event_once():
    p = Partition(DAY, (21600.0,))
    times = np.array([100.0, 30000.0, 86399.0])
    idx = p.bin_index(times)
    sizes = np.bincount(idx, minlength=p.n_bins)
    np.testing.assert_array_equal(idx, [0, 1, 1])
    np.testing.assert_array_equal(sizes, [1, 2])
    assert sizes.sum() == len(times)


# --- rate models --------------------------------------------------------------

def test_rate_model_evaluates_scaled_polynomials():
    # one bin over [0, 10] holding 2 + 3u in u = (2t - 10)/10
    p = Partition(TimeWindow(0.0, 10.0), ())
    model = RateModel(p, np.array([[2.0, 3.0]]), clamp=False)
    np.testing.assert_allclose(model.evaluate(np.array([0.0, 5.0, 10.0])), [-1.0, 2.0, 5.0])


def test_rate_model_clamp_floors_at_zero():
    p = Partition(TimeWindow(0.0, 10.0), ())
    model = RateModel(p, np.array([[2.0, 3.0]]), clamp=True)
    np.testing.assert_allclose(model.evaluate(np.array([0.0, 10.0])), [0.0, 5.0])


def test_bin_polynomial_round_trips_evaluation():
    p = Partition(TimeWindow(0.0, 100.0), (40.0,))
    coefs = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]])
    model = RateModel(p, coefs, clamp=False)
    edges = p.edges()
    for k, probes in ((0, np.linspace(0.0, 39.9, 7)), (1, np.linspace(40.0, 100.0, 7))):
        # bin k's polynomial in raw time: its domain maps onto u in [-1, 1]
        poly = np.polynomial.Polynomial(coefs[k], domain=[edges[k], edges[k + 1]], window=[-1.0, 1.0])
        np.testing.assert_allclose(poly(probes), model.evaluate(probes), atol=1e-12)


def test_rate_model_coefficient_shape_checked():
    p = Partition(TimeWindow(0.0, 10.0), (5.0,))
    with pytest.raises(ValueError):
        RateModel(p, np.zeros((1, 2)))


def evaluate_by_bin(model, t):
    """RateModel.evaluate as it was, one mask and one polyval per bin: the oracle."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    idx = model.partition.bin_index(t)
    edges = model.partition.edges()
    out = np.empty_like(t)
    for k in np.unique(idx):
        lo, hi = edges[k], edges[k + 1]
        u = (2.0 * t[idx == k] - (lo + hi)) / (hi - lo)
        out[idx == k] = np.polynomial.polynomial.polyval(u, model.coefficients[k])
    if model.clamp:
        out = np.maximum(out, 0.0)
    return out


@st.composite
def rate_models_and_points(draw):
    start = draw(st.floats(0.0, 80000.0))
    end = draw(st.floats(start + 1.0, 86400.0))
    inner = st.floats(start, end, exclude_min=True, exclude_max=True)
    knots = tuple(sorted(draw(st.lists(inner, max_size=8, unique=True))))
    degree = draw(st.integers(0, 4))
    value = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))
    row = st.lists(value, min_size=degree + 1, max_size=degree + 1)
    coef = draw(st.lists(row, min_size=len(knots) + 1, max_size=len(knots) + 1))
    model = RateModel(Partition(TimeWindow(start, end), knots), np.array(coef), clamp=draw(st.booleans()))
    # knots, window ends and their neighbours, then anything in the window
    edges = [float(e) for e in model.partition.edges()]
    near = [float(np.nextafter(e, d)) for e in edges for d in (start, end)]
    points = draw(st.lists(st.one_of(st.sampled_from(edges + near), st.floats(start, end)), max_size=40))
    return model, np.array(points, dtype=float)


@given(rate_models_and_points())
@settings(max_examples=300, deadline=None)
def test_evaluate_is_bitwise_the_per_bin_loop(case):
    model, points = case
    got, want = model.evaluate(points), evaluate_by_bin(model, points)
    assert got.shape == want.shape
    assert (got == want).all()
    assert got.tobytes() == want.tobytes()  # signed zeros too


@pytest.mark.parametrize("clamp", [False, True])
def test_evaluate_on_knots_and_window_end(clamp):
    p = Partition(TimeWindow(0.0, 100.0), (40.0, 70.0))
    model = RateModel(p, np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0], [-0.25, 1.5, 0.0]]), clamp=clamp)
    points = np.array([0.0, 40.0, np.nextafter(40.0, 0.0), 70.0, 99.5, 100.0])
    got = model.evaluate(points)
    assert got.tobytes() == evaluate_by_bin(model, points).tobytes()
    # t == 100 folds into the last bin, at u = 1
    assert got[-1] == max(-0.25 + 1.5, 0.0)


def test_evaluate_keeps_the_sign_of_zero():
    # polyval starts from c[-1] + u*0, which is -0.0 only where u < 0
    model = RateModel(Partition(TimeWindow(0.0, 10.0), ()), np.array([[-0.0]]), clamp=False)
    got = model.evaluate(np.array([2.0, 8.0]))
    assert got.tobytes() == np.array([-0.0, 0.0]).tobytes()


def test_evaluate_does_not_import_numpy_polynomial():
    code = (
        "import sys, numpy as np\n"
        "from nhpplearn import Partition, RateModel, TimeWindow\n"
        "before = 'numpy.polynomial' in sys.modules\n"
        "m = RateModel(Partition(TimeWindow(0.0, 10.0), (5.0,)), np.ones((2, 3)))\n"
        "m.evaluate(np.linspace(0.0, 10.0, 7))\n"
        "print(before or 'numpy.polynomial' not in sys.modules)\n"
    )
    src = str(Path(nhpplearn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "True"


# --- risk functionals ---------------------------------------------------------

def test_binned_risk_is_occupancy_weighted_mean():
    sizes = [3, 5, 2]
    risks = [1.0, 4.0, 10.0]
    expected = (3 * 1.0 + 5 * 4.0 + 2 * 10.0) / 10
    assert math.isclose(binned_risk(sizes, risks), expected, rel_tol=1e-15)


def in_order_risk(sizes, risks):
    """(1/m) * sum_k m_k * R_k, the terms added left to right in plain floats."""
    weighted = 0.0
    for m_k, r_k in zip(sizes, risks):
        weighted += float(m_k) * float(r_k)
    return weighted / float(sum(sizes))


@given(
    st.lists(
        st.tuples(st.integers(0, 10**6), st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)),
        min_size=1,
        max_size=40,
    ).filter(lambda bins: sum(m for m, _ in bins) > 0)
)
@settings(max_examples=200, deadline=None)
def test_binned_risk_is_the_in_order_sum_bit_for_bit(bins):
    sizes = [m for m, _ in bins]
    risks = [r for _, r in bins]
    assert binned_risk(sizes, risks) == in_order_risk(sizes, risks)
    assert binned_risk(np.array(sizes), np.array(risks)) == in_order_risk(sizes, risks)


def test_binned_risk_rounds_as_the_in_order_sum_not_as_a_dot_product():
    # each 1e-16 is below half an ulp of 1.0, so the in-order sum stays at 1.0;
    # a blocked sum (np.dot gives 0.0625000000000001 here) adds them first
    sizes = [1] * 16
    risks = [1.0] + [1e-16] * 15
    assert binned_risk(sizes, risks) == 0.0625


def test_binned_risk_rejects_zero_occupancy():
    with pytest.raises(ValueError, match="zero total occupancy"):
        binned_risk([0, 0], [1.0, 1.0])


def test_penalized_risk_excludes_final_bin_from_penalty():
    p = Partition(TimeWindow(0.0, 100.0), (20.0, 50.0))  # lengths 20, 30, 50
    sizes = [2, 3, 5]
    risks = [1.0, 2.0, 4.0]
    gamma = 0.25
    base = (2 * 1.0 + 3 * 2.0 + 5 * 4.0) / 10
    penalty = 2 * 1.0 / 20.0 + 3 * 2.0 / 30.0  # last bin carries no penalty
    assert math.isclose(penalized_risk(sizes, risks, p, gamma), base + gamma * penalty, rel_tol=1e-15)


def test_penalized_risk_validates_gamma_and_lengths():
    p = Partition(TimeWindow(0.0, 100.0), (50.0,))
    with pytest.raises(ValueError, match="gamma must be nonnegative"):
        penalized_risk([1, 1], [1.0, 1.0], p, -0.1)
    with pytest.raises(ValueError, match="length must equal"):
        penalized_risk([1], [1.0], p, 0.1)


def test_vc_bound_xi_frozen_value():
    # (h (ln(2m/h) + 1) - ln(eta/4)) / m at m=1000, h=10, eta=0.05
    assert math.isclose(vc_bound_xi(1000, 10, 0.05), 0.06736520030015425, rel_tol=1e-12)


def test_vc_bound_xi_validates_arguments():
    with pytest.raises(ValueError, match="h must be >= 1"):
        vc_bound_xi(100, 0, 0.05)
    with pytest.raises(ValueError, match="must exceed capacity"):
        vc_bound_xi(10, 10, 0.05)
    with pytest.raises(ValueError, match="eta must be in"):
        vc_bound_xi(100, 5, 0.0)


def test_generalization_bound_closed_form():
    r_emp, b, m, h, eta = 0.8, 2.0, 500, 6, 0.05
    xi = vc_bound_xi(m, h, eta)
    expected = r_emp + 2 * b * xi * (1.0 + math.sqrt(1.0 + r_emp / (b * xi)))
    assert math.isclose(generalization_bound(r_emp, b, m, h, eta), expected, rel_tol=1e-12)
    with pytest.raises(ValueError, match="nonnegative"):
        generalization_bound(-0.1, b, m, h, eta)
    with pytest.raises(ValueError, match="positive"):
        generalization_bound(0.1, 0.0, m, h, eta)
