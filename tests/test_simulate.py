"""Rate curves and the two arrival samplers."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from nhpplearn import PiecewiseLinearRate, TimeWindow, af_rate, make_dataset, simulate_conditioned, simulate_thinning
from nhpplearn.simulate import day_stream

KNOT_TIMES = np.arange(9) * 10800.0
KNOT_VALUES = np.array([7.0, 20.0, 25.0, 50.0, 32.0, 30.0, 42.0, 26.0, 6.0])
# exact trapezoid cumulative at the knots, in five-minute units
KNOT_CUMULATIVE = np.array([0.0, 486.0, 1296.0, 2646.0, 4122.0, 5238.0, 6534.0, 7758.0, 8334.0])


# --- the traffic profile ------------------------------------------------------

def test_af_rate_hits_the_published_knot_values():
    rate = af_rate()
    np.testing.assert_allclose(rate.value(KNOT_TIMES), KNOT_VALUES, atol=1e-12)


def test_af_rate_is_continuous_at_interior_knots():
    rate = af_rate()
    eps = 1e-6
    for t in KNOT_TIMES[1:-1]:
        left = rate.value(np.array([t - eps]))[0]
        right = rate.value(np.array([t + eps]))[0]
        assert abs(left - right) < 1e-4


def test_af_rate_cumulative_matches_exact_trapezoids():
    rate = af_rate()
    got = rate.cumulative_mass(KNOT_TIMES)
    np.testing.assert_allclose(got, KNOT_CUMULATIVE, rtol=1e-12)
    assert abs(rate.total_mass() - 8334.0) < 1e-9


def test_af_rate_cumulative_agrees_with_dense_quadrature():
    rate = af_rate()
    ts = np.linspace(0.0, 86400.0, 86401)
    dense = np.trapezoid(rate.value(ts) / rate.scale, ts)
    np.testing.assert_allclose(dense, 8334.0, rtol=1e-9)


def test_rate_validation_errors():
    with pytest.raises(ValueError, match="per breakpoint gap"):
        PiecewiseLinearRate((0.0, 1.0, 2.0), ((0.0, 1.0),))
    with pytest.raises(ValueError, match="ascending"):
        PiecewiseLinearRate((0.0, 0.0), ((0.0, 1.0),))
    with pytest.raises(ValueError, match="scale must be positive"):
        PiecewiseLinearRate((0.0, 1.0), ((0.0, 1.0),), scale=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rate_refuses_numbers_that_are_not_finite(bad):
    with pytest.raises(ValueError, match=r"^breakpoints must be finite"):
        PiecewiseLinearRate((0.0, bad), ((0.0, 1.0),))
    with pytest.raises(ValueError, match=r"^slopes must be finite"):
        PiecewiseLinearRate((0.0, 10.0), ((bad, 1.0),))
    with pytest.raises(ValueError, match=r"^intercepts must be finite"):
        PiecewiseLinearRate((0.0, 10.0, 20.0), ((0.0, 10.0), (0.0, bad)))
    with pytest.raises(ValueError, match=r"^scale must be positive and finite"):
        PiecewiseLinearRate((0.0, 10.0), ((0.0, 1.0),), scale=bad)
    with pytest.raises(ValueError, match=r"^intercepts must be finite"):
        PiecewiseLinearRate.from_dict({"breakpoints": [0, 10, 20], "segments": [[0, 10], [0, bad]]})


def test_negative_segments_clamp_to_zero():
    # slope -1 from 5: crosses zero at t=5, stays clamped after
    rate = PiecewiseLinearRate((0.0, 10.0), ((-1.0, 5.0),))
    assert rate.value(8.0) == 0.0
    # mass stops accruing past the crossing: triangle area 5*5/2
    np.testing.assert_allclose(rate.total_mass(), 12.5, rtol=1e-12)


def test_inverse_mass_round_trip():
    rate = af_rate()
    probes = np.array([500.0, 10800.0, 30000.0, 55555.5, 86000.0])
    q = rate.cumulative_mass(probes)
    back = rate.inverse_mass(q)
    np.testing.assert_allclose(back, probes, atol=1e-6)


def test_inverse_mass_rejects_out_of_range():
    rate = af_rate()
    with pytest.raises(ValueError, match="outside"):
        rate.inverse_mass(-1.0)
    with pytest.raises(ValueError, match="outside"):
        rate.inverse_mass(8335.0)


def test_rate_dict_round_trip():
    rate = af_rate()
    clone = PiecewiseLinearRate.from_dict(rate.to_dict())
    ts = np.linspace(0.0, 86400.0, 997)
    np.testing.assert_array_equal(clone.value(ts), rate.value(ts))


def test_rate_from_dict_validates_payload():
    payload = af_rate().to_dict()
    del payload["segments"]
    with pytest.raises(ValueError, match="missing field 'segments'"):
        PiecewiseLinearRate.from_dict(payload)
    # scale is optional and defaults to seconds
    bare = {"breakpoints": [0.0, 10.0], "segments": [[0.0, 3.0]]}
    assert PiecewiseLinearRate.from_dict(bare).scale == 1.0


@pytest.mark.parametrize("payload, message", [
    ([0.0, 10.0], "rate config must be an object, got [0.0, 10.0]"),
    ({"breakpoints": 10, "segments": [[0, 1]]}, "rate config field 'breakpoints' must be a list of numbers, got 10"),
    ({"breakpoints": [0, "10"], "segments": [[0, 1]]}, "field 'breakpoints' must be a list of numbers"),
    ({"breakpoints": [0, 10], "segments": {"a": 1}}, "rate config field 'segments' must be a list of pairs"),
    ({"breakpoints": [0, 10], "segments": [1]}, "rate config segment 0 must be a pair of numbers"),
    ({"breakpoints": [0, 10, 20], "segments": [[0, 1], [0, 1, 2]]}, "rate config segment 1 must be a pair"),
    ({"breakpoints": [0, 10], "segments": [[0, None]]}, "rate config segment 0 must be a pair of numbers"),
    ({"breakpoints": [0, 10], "segments": [[True, 1]]}, "rate config segment 0 must be a pair of numbers"),
    ({"breakpoints": [0, 10], "segments": [[0, 1]], "scale": None}, "field 'scale' must be a number, got None"),
    ({"breakpoints": [0, 10], "segments": [[0, 1]], "scale": "x"}, "field 'scale' must be a number, got 'x'"),
])
def test_rate_from_dict_names_a_field_of_the_wrong_type(payload, message):
    # each of these ended in a TypeError, or in float()'s message naming no field
    with pytest.raises(ValueError, match=re.escape(message)):
        PiecewiseLinearRate.from_dict(payload)


# --- samplers -----------------------------------------------------------------

def test_thinning_constant_rate_mean():
    # lambda = 2/s over [0, 1000]: 30-run average within 5 sigma of 2000
    rate = PiecewiseLinearRate((0.0, 1000.0), ((0.0, 2.0),), scale=1.0)
    w = TimeWindow(0.0, 1000.0)
    counts = []
    for s in range(30):
        arr = simulate_thinning(rate, w, np.random.default_rng(s))
        assert ((arr >= 0.0) & (arr < 1000.0)).all()
        assert (np.diff(arr) >= 0).all()
        counts.append(arr.size)
    se = np.sqrt(2000.0 / 30)
    assert abs(np.mean(counts) - 2000.0) < 5 * se


def test_thinning_rejects_bound_below_supremum():
    rate = af_rate()
    with pytest.raises(ValueError, match="below the rate supremum"):
        simulate_thinning(rate, rate.window(), np.random.default_rng(0), rate_bound=10.0)


def test_thinning_is_reproducible():
    rate = af_rate()
    a = simulate_thinning(rate, rate.window(), np.random.default_rng(42))
    b = simulate_thinning(rate, rate.window(), np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_conditioned_counts_stay_in_range():
    rate = af_rate()
    w = rate.window()
    for s in range(5):
        arr = simulate_conditioned(rate, w, np.random.default_rng(s), count_range=(7000, 8000))
        assert 7000 <= arr.size <= 8000
        assert ((arr >= 0.0) & (arr < 86400.0)).all()
        assert (np.diff(arr) >= 0).all()


def test_conditioned_rejects_flat_zero_rate():
    rate = PiecewiseLinearRate((0.0, 100.0), ((0.0, 0.0),))
    with pytest.raises(ValueError, match="identically zero"):
        simulate_conditioned(rate, TimeWindow(0.0, 100.0), np.random.default_rng(0), (1, 5))


def test_conditioned_validates_count_range():
    rate = af_rate()
    with pytest.raises(ValueError, match="count_range"):
        simulate_conditioned(rate, rate.window(), np.random.default_rng(0), (5, 2))


def test_conditioned_arrivals_follow_the_rate_shape():
    # empirical mass in [0, 6h] vs expected fraction 1296/8334
    rate = af_rate()
    arr = simulate_conditioned(rate, rate.window(), np.random.default_rng(11))
    frac = np.mean(arr < 21600.0)
    expected = 1296.0 / 8334.0
    assert abs(frac - expected) < 0.02


# --- dataset assembly ---------------------------------------------------------

def test_make_dataset_shapes_and_determinism():
    rate = af_rate()
    tr1, te1 = make_dataset(rate, 3, 2, seed=9)
    tr2, te2 = make_dataset(rate, 3, 2, seed=9)
    assert tr1.n_days == 3 and te1.n_days == 2
    for a, b in zip(tr1.days + te1.days, tr2.days + te2.days):
        np.testing.assert_array_equal(a, b)


def test_make_dataset_test_days_continue_the_stream():
    # test days are the day indices after the training block, so growing the
    # training set must not change what the test days contain
    rate = af_rate()
    _, te_small = make_dataset(rate, 2, 2, seed=5)
    _, te_big = make_dataset(rate, 2, 2, seed=5)
    for a, b in zip(te_small.days, te_big.days):
        np.testing.assert_array_equal(a, b)
    tr3, _ = make_dataset(rate, 3, 1, seed=5)
    tr2, _ = make_dataset(rate, 2, 1, seed=5)
    np.testing.assert_array_equal(tr3.days[0], tr2.days[0])


@pytest.mark.parametrize("n_train, n_test, named", [(-1, 2, "n_train_days"), (3, -1, "n_test_days")])
def test_make_dataset_names_a_negative_day_count(n_train, n_test, named):
    with pytest.raises(ValueError, match=f"^{named} must be nonnegative, got -1$"):
        make_dataset(af_rate(), n_train, n_test)


def test_day_stream_substreams_are_distinct():
    a = day_stream(0, 0).random(4)
    b = day_stream(0, 1).random(4)
    c = day_stream(1, 0).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_make_dataset_thinning_mode():
    rate = af_rate()
    tr, te = make_dataset(rate, 1, 1, seed=0, mode="thinning")
    assert tr.n_days == 1 and te.n_days == 1
    assert tr.days[0].size > 7000  # a full AF day carries ~8334 arrivals
    with pytest.raises(ValueError, match="unknown simulation mode"):
        make_dataset(rate, 1, 1, seed=0, mode="bogus")
