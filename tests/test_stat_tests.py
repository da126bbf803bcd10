"""Homogeneity tests: statistics against brute-force, scipy and loop oracles."""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from nhpplearn import ks_critical, ks_statistic, log_test, poisson_test_days
from nhpplearn.stat_tests import TestOutcome as Outcome
from nhpplearn.stat_tests import uniform_ks_test


# --- the straightforward per-day code, kept as the oracle ---------------------
# The library computes the same statistics with fewer passes (no re-sort of
# sorted input, one log per arrival, no abs temporaries); these are the plain
# versions it must equal bit for bit.

def oracle_ks_statistic(samples, cdf):
    x = np.sort(np.asarray(samples, dtype=float))
    m = x.size
    if m == 0:
        raise ValueError("KS statistic of an empty sample is undefined")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, m + 1, dtype=float)
    upper = np.abs(f - i / m)
    lower = np.abs(f - (i - 1.0) / m)
    return float(np.max(np.maximum(upper, lower)))


def _oracle_validate(arrivals, lo, hi):
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    arr = np.sort(np.asarray(arrivals, dtype=float))
    if arr.size and not (lo <= arr[0] and arr[-1] < hi):
        raise ValueError(f"arrivals must lie in [{lo}, {hi})")
    return arr


def oracle_log_test(arrivals, lo, hi, epsilon=0.05):
    arr = _oracle_validate(np.asarray(arrivals), lo, hi)
    m = arr.size
    if m == 0:
        return Outcome(0.0, math.inf, 0, epsilon, True, "log")
    prev = np.concatenate(([lo], arr[:-1]))
    weights = np.arange(m, 0, -1, dtype=float)
    x = weights * (np.log(hi - prev) - np.log(hi - arr))
    stat = oracle_ks_statistic(x, lambda v: 1.0 - np.exp(-v))
    crit = ks_critical(m, epsilon)
    return Outcome(stat, crit, m, epsilon, bool(stat <= crit or m <= 1), "log")


def oracle_uniform_ks_test(arrivals, lo, hi, epsilon=0.05):
    arr = _oracle_validate(np.asarray(arrivals), lo, hi)
    m = arr.size
    if m == 0:
        return Outcome(0.0, math.inf, 0, epsilon, True, "ks-uniform")
    span = hi - lo
    stat = oracle_ks_statistic(arr, lambda t: (t - lo) / span)
    crit = ks_critical(m, epsilon)
    return Outcome(stat, crit, m, epsilon, bool(stat <= crit or m <= 1), "ks-uniform")


ORACLES = {"log": (log_test, oracle_log_test), "ks-uniform": (uniform_ks_test, oracle_uniform_ks_test)}


def assert_same_outcome(got, want):
    assert asdict(got) == asdict(want)


SPANS = (1e-9, 1e-3, 1.0, 300.0, 3600.0, 86400.0)
EPSILONS = (1e-3, 0.01, 0.05, 0.1, 0.25, 0.9)


@st.composite
def intervals(draw):
    """[lo, hi) with tiny to full-day spans inside the day."""
    span = draw(st.sampled_from(SPANS) | st.floats(1e-6, 86400.0))
    lo = draw(st.sampled_from((0.0, 1e-3)) | st.floats(0.0, 86400.0 - span))
    hi = lo + span
    if not lo < hi:
        hi = float(np.nextafter(lo, np.inf))
    return lo, hi


@st.composite
def arrivals_in(draw, lo, hi, max_size=60):
    """Arrivals in [lo, hi): ties, both ends, sorted or not."""
    below_hi = float(np.nextafter(hi, -np.inf))
    fractions = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=max_size))
    times = [min(lo + u * (hi - lo), below_hi) for u in fractions]
    times += draw(st.lists(st.sampled_from((lo, below_hi)), max_size=3))
    if times:
        times += [times[0]] * draw(st.integers(0, 3))  # tied arrivals
    if draw(st.booleans()):
        times.sort()
    return [t for t in times if lo <= t < hi]


def ks_brute(samples, cdf):
    # direct two-sided scan over the order statistics
    xs = np.sort(np.asarray(samples, dtype=float))
    m = xs.size
    d = 0.0
    for i, x in enumerate(xs, start=1):
        f = float(cdf(np.array([x]))[0])
        d = max(d, abs(f - i / m), abs(f - (i - 1) / m))
    return d


# --- KS statistic -------------------------------------------------------------

def test_ks_statistic_matches_brute_force():
    rng = np.random.default_rng(3)
    for size in (1, 2, 7, 40, 311):
        xs = rng.exponential(1.0, size=size)
        cdf = lambda v: 1.0 - np.exp(-np.asarray(v))
        assert math.isclose(ks_statistic(xs, cdf), ks_brute(xs, cdf), rel_tol=1e-12)


def test_ks_statistic_matches_scipy():
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.0, 1.0, size=100)
    ours = ks_statistic(xs, lambda v: np.asarray(v))
    ref = scipy.stats.kstest(xs, "uniform").statistic
    assert math.isclose(ours, ref, rel_tol=1e-12)


CDFS = {
    "exponential": lambda v: 1.0 - np.exp(-v),
    "uniform": lambda v: (v - 2.0) / 5.0,
    "identity": lambda v: v,  # returns the sorted samples themselves
}


@settings(max_examples=200, deadline=None)
@given(
    xs=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=80),
    cdf=st.sampled_from(sorted(CDFS)),
)
def test_ks_statistic_equals_oracle(xs, cdf):
    xs = xs + xs[: len(xs) // 3]  # ties
    assert ks_statistic(xs, CDFS[cdf]) == oracle_ks_statistic(xs, CDFS[cdf])


def test_ks_statistic_rejects_empty():
    with pytest.raises(ValueError, match="empty sample"):
        ks_statistic([], lambda v: np.asarray(v))


def test_ks_critical_frozen_value():
    # sqrt(-ln(eps/2) / (2 m)) at m=100, eps=0.05
    assert math.isclose(ks_critical(100, 0.05), 0.13581015157406195, rel_tol=1e-12)


def test_ks_critical_validates_arguments():
    with pytest.raises(ValueError, match="at least one sample"):
        ks_critical(0, 0.05)
    with pytest.raises(ValueError, match="epsilon must be in"):
        ks_critical(10, 1.0)


# --- the log transform --------------------------------------------------------

def test_log_test_hand_computed_case():
    # [0, 10) with arrivals 2, 3, 7: X_i = (m+1-i) ln((L-t_{i-1})/(L-t_i))
    out = log_test([2.0, 3.0, 7.0], 0.0, 10.0)
    assert out.n == 3
    assert math.isclose(out.statistic, 3.0 / 7.0, rel_tol=1e-12)
    assert math.isclose(out.critical, ks_critical(3, 0.05), rel_tol=1e-15)
    assert out.passed


def test_log_transform_values_are_exponential_spacings():
    # same case, checked against independently computed transform values
    expected = [0.6694306539426305, 0.26706278524904503, 0.8472978603872034]
    l, u, ts = 0.0, 10.0, [2.0, 3.0, 7.0]
    prev = 0.0
    xs = []
    for i, t in enumerate(ts):
        xs.append((len(ts) - i) * (math.log(u - l - prev) - math.log(u - l - t)))
        prev = t
    np.testing.assert_allclose(xs, expected, rtol=1e-12)
    d = ks_brute(xs, lambda v: 1.0 - np.exp(-np.asarray(v)))
    assert math.isclose(log_test(ts, l, u).statistic, d, rel_tol=1e-12)


def test_log_test_empty_and_singleton_pass():
    empty = log_test([], 0.0, 10.0)
    assert empty.passed and empty.n == 0 and empty.critical == math.inf
    single = log_test([9.99], 0.0, 10.0)
    assert single.passed and single.n == 1
    assert np.isfinite(single.statistic)


def test_log_test_arrivals_within_rounding_of_the_window_end():
    # with lo != 0, span - (t - lo) rounds to 0 for t one ulp below hi, which
    # made the statistic NaN and failed the day
    t = float(np.nextafter(1.0, 0.0))
    out = log_test([0.65, t, t], 0.3, 1.0)
    assert math.isfinite(out.statistic)
    assert out == oracle_log_test([0.65, t, t], 0.3, 1.0)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), method=st.sampled_from(sorted(ORACLES)), epsilon=st.sampled_from(EPSILONS))
def test_day_test_equals_oracle(data, method, epsilon):
    lo, hi = data.draw(intervals())
    times = data.draw(arrivals_in(lo, hi))
    fast, oracle = ORACLES[method]
    want = oracle(times, lo, hi, epsilon)
    assert_same_outcome(fast(times, lo, hi, epsilon), want)
    assert_same_outcome(fast(np.asarray(times), lo, hi, epsilon), want)


@pytest.mark.parametrize("method", sorted(ORACLES))
@pytest.mark.parametrize(
    "times",
    [[], [0.0], [float(np.nextafter(10.0, 0.0))], [3.0, 3.0], [7.0, 2.0], [0.0, float(np.nextafter(10.0, 0.0))]],
    ids=["m0", "m1-lo", "m1-below-hi", "m2-tie", "m2-unsorted", "m2-ends"],
)
@pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.5])
def test_small_samples_equal_oracle(method, times, epsilon):
    fast, oracle = ORACLES[method]
    assert_same_outcome(fast(times, 0.0, 10.0, epsilon), oracle(times, 0.0, 10.0, epsilon))


@pytest.mark.parametrize("method", sorted(ORACLES))
def test_day_sized_samples_equal_oracle(method):
    # engine-sized days, a few thousand arrivals, over many vector blocks
    rng = np.random.default_rng(43)
    fast, oracle = ORACLES[method]
    for size, lo, hi in ((500, 0.0, 86400.0), (1800, 25200.0, 30600.0), (4000, 3.7, 86400.0)):
        times = rng.uniform(lo, hi, size)
        for arr in (times, np.sort(times)):
            assert_same_outcome(fast(arr, lo, hi), oracle(arr, lo, hi))


def test_interval_validation():
    with pytest.raises(ValueError, match="lo < hi"):
        log_test([1.0], 5.0, 5.0)
    with pytest.raises(ValueError, match="must lie in"):
        log_test([10.0], 0.0, 10.0)  # right endpoint excluded
    with pytest.raises(ValueError, match="must lie in"):
        uniform_ks_test([-0.5], 0.0, 10.0)


@pytest.mark.parametrize("arrivals", [[0.5, math.nan], [math.nan], [math.nan, 0.2, 0.7], [0.1, math.inf]])
def test_nan_and_inf_arrivals_are_rejected(arrivals):
    # NaN sorts last and fails both bounds of a plain out-of-range check
    for test in (log_test, uniform_ks_test):
        with pytest.raises(ValueError, match=r"must lie in \[0.0, 1.0\)"):
            test(arrivals, 0.0, 1.0)
    for mode in ("per-day", "pooled"):
        with pytest.raises(ValueError, match="must lie in"):
            poisson_test_days([np.array(arrivals), np.array([0.3, 0.6])], 0.0, 1.0, mode=mode)
        with pytest.raises(ValueError, match="must lie in"):
            poisson_test_days([np.array([0.3, 0.6]), np.array(arrivals)], 0.0, 1.0, mode=mode)


def test_log_test_calibration_quick():
    # homogeneous data should be rejected at roughly the nominal rate
    rng = np.random.default_rng(17)
    rejects = 0
    trials = 200
    for _ in range(trials):
        arr = np.sort(rng.uniform(0.0, 100.0, size=60))
        if not log_test(arr, 0.0, 100.0).passed:
            rejects += 1
    assert 0.005 <= rejects / trials <= 0.12


def test_log_test_power_against_increasing_rate():
    # lambda(t) proportional to t: arrivals are sqrt-uniform
    rng = np.random.default_rng(23)
    arr = np.sort(100.0 * np.sqrt(rng.uniform(size=200)))
    assert not log_test(arr, 0.0, 100.0).passed


# --- uniform KS variant -------------------------------------------------------

def test_uniform_ks_hand_computed_case():
    out = uniform_ks_test([2.0, 3.0, 7.0], 0.0, 10.0)
    assert math.isclose(out.statistic, 11.0 / 30.0, rel_tol=1e-12)
    assert out.method == "ks-uniform"


# --- multi-day aggregation ----------------------------------------------------

def _random_days(rng, n_days, lo, hi, size):
    return [np.sort(rng.uniform(lo, hi, size=size)) for _ in range(n_days)]


def _fraction(k, n_days):
    # the pass fraction exactly as the exhaustive loop computed it
    return 1.0 if n_days == 0 else k / n_days


def assert_decides_like_loop(out, verdicts, threshold):
    """``out`` has the exhaustive loop's verdict and stopped at the first settled day."""
    n_days = len(verdicts)
    bar = threshold - 1e-12

    def settled(tested):
        passes = sum(verdicts[:tested])
        return _fraction(passes, n_days) >= bar or _fraction(passes + n_days - tested, n_days) < bar

    assert out.n_days == n_days
    assert out.passed == (_fraction(sum(verdicts), n_days) >= bar)
    assert 0 <= out.n_tested <= n_days
    assert out.n_passed == sum(verdicts[: out.n_tested])
    assert settled(out.n_tested)
    if out.n_tested:
        assert not settled(out.n_tested - 1)  # the stop is minimal


def test_per_day_majority_matches_loop_oracle():
    rng = np.random.default_rng(31)
    days = _random_days(rng, 25, 0.0, 50.0, 40)
    out = poisson_test_days(days, 0.0, 50.0, epsilon=0.05)
    per_day = [log_test(d, 0.0, 50.0, 0.05).passed for d in days]
    assert out.required_fraction == pytest.approx(0.9)
    assert_decides_like_loop(out, per_day, 0.9)


def test_min_pass_fraction_override():
    rng = np.random.default_rng(37)
    # steeply increasing rate on every day: none should pass
    days = [np.sort(50.0 * np.sqrt(rng.uniform(size=150))) for _ in range(10)]
    strict = poisson_test_days(days, 0.0, 50.0)
    lax = poisson_test_days(days, 0.0, 50.0, min_pass_fraction=0.0)
    assert not strict.passed
    assert lax.passed  # zero bar: any outcome clears it
    assert lax.required_fraction == 0.0


def test_pooled_mode_equals_single_merged_test():
    rng = np.random.default_rng(41)
    days = _random_days(rng, 4, 0.0, 20.0, 15)
    pooled = poisson_test_days(days, 0.0, 20.0, mode="pooled")
    merged = log_test(np.sort(np.concatenate(days)), 0.0, 20.0)
    assert pooled.passed == merged.passed
    assert pooled.n_days == 4
    with pytest.raises(ValueError, match="unknown aggregation mode"):
        poisson_test_days(days, 0.0, 20.0, mode="daily")


@st.composite
def pass_fractions(draw, n_days):
    """None, the ends, arbitrary values, and values within the 1e-12 slack of k / n_days."""
    k = draw(st.integers(0, max(n_days, 1)))
    near = k / max(n_days, 1) + draw(st.sampled_from((-1e-12, -5e-13, -1e-13, 0.0, 1e-13, 5e-13, 1e-12)))
    return draw(st.one_of(
        st.sampled_from((None, 0.0, 1.0)),
        st.floats(0.0, 1.0),
        st.just((k + 0.5) / (max(n_days, 1) + 1)),
        st.just(min(max(near, 0.0), 1.0)),
    ))


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n_days=st.integers(0, 6),
    method=st.sampled_from(sorted(ORACLES)),
    epsilon=st.sampled_from(EPSILONS),
)
def test_poisson_test_days_equals_oracle_loop(data, n_days, method, epsilon):
    lo, hi = data.draw(intervals())
    days = [np.asarray(data.draw(arrivals_in(lo, hi, max_size=30)), dtype=float) for _ in range(n_days)]
    min_pass_fraction = data.draw(pass_fractions(n_days))
    oracle = ORACLES[method][1]

    out = poisson_test_days(days, lo, hi, epsilon, method, "per-day", min_pass_fraction)
    threshold = 1.0 - 2.0 * epsilon if min_pass_fraction is None else min_pass_fraction
    assert_decides_like_loop(out, [oracle(d, lo, hi, epsilon).passed for d in days], threshold)

    pooled = poisson_test_days(days, lo, hi, epsilon, method, "pooled")
    merged = oracle(np.concatenate(days) if days else [], lo, hi, epsilon)
    assert pooled.passed == merged.passed
    assert pooled.n_tested == n_days
    assert pooled.n_passed == (n_days if merged.passed else 0)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    verdicts=st.lists(st.booleans(), max_size=40),
    method=st.sampled_from(sorted(ORACLES)),
    epsilon=st.sampled_from(EPSILONS),
)
def test_per_day_mode_stops_once_the_verdict_is_settled(data, verdicts, method, epsilon):
    # many days and thresholds, with each day's verdict fixed by construction:
    # an empty day passes, five arrivals tied at lo fail
    min_pass_fraction = data.draw(pass_fractions(len(verdicts)))
    days = [np.empty(0) if ok else np.zeros(5) for ok in verdicts]
    oracle = ORACLES[method][1]
    assert [oracle(d, 0.0, 1.0, epsilon).passed for d in days] == verdicts

    out = poisson_test_days(days, 0.0, 1.0, epsilon, method, "per-day", min_pass_fraction)
    threshold = 1.0 - 2.0 * epsilon if min_pass_fraction is None else min_pass_fraction
    assert_decides_like_loop(out, verdicts, threshold)


def test_per_day_verdict_at_every_pass_count_near_the_bar():
    # every day count up to 25, every pass count k and bars within the 1e-12
    # slack of k / n_days: near there the ceiling of (threshold - 1e-12) *
    # n_days can overshoot by one (n_days=25, k=7); k - 1 or k passing days,
    # tested first or last, must decide as the exhaustive loop does
    for n_days in range(0, 26):
        for k in range(0, n_days + 1):
            for delta in (-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 1.5e-12, 2e-12, 0.5 / max(n_days, 1)):
                threshold = min(max(_fraction(k, n_days) + delta, 0.0), 1.0)
                for passes in {max(k - 1, 0), k}:
                    for verdicts in (
                        [True] * passes + [False] * (n_days - passes),
                        [False] * (n_days - passes) + [True] * passes,
                    ):
                        days = [np.empty(0) if ok else np.zeros(5) for ok in verdicts]
                        out = poisson_test_days(days, 0.0, 1.0, min_pass_fraction=threshold)
                        assert_decides_like_loop(out, verdicts, threshold)


def test_quota_where_the_ceiling_overshoots():
    # threshold 7/25 + 1e-12: seven passing days of 25 clear the bar
    verdicts = [True] * 7 + [False] * 18
    days = [np.empty(0) if ok else np.zeros(5) for ok in verdicts]
    out = poisson_test_days(days, 0.0, 1.0, min_pass_fraction=7 / 25 + 1e-12)
    assert out.passed and (out.n_tested, out.n_passed) == (7, 7)
    assert_decides_like_loop(out, verdicts, 7 / 25 + 1e-12)


def test_poisson_test_days_validation():
    with pytest.raises(ValueError, match="lo < hi"):
        poisson_test_days([np.array([1.0])], 5.0, 5.0)
    with pytest.raises(ValueError, match="must lie in"):
        poisson_test_days([np.array([1.0, 10.0])], 0.0, 10.0)
    with pytest.raises(ValueError, match="must lie in"):
        poisson_test_days([np.array([1.0]), np.array([10.0])], 0.0, 10.0, mode="pooled")
    # the method is checked where it enters, before any day is looked at
    with pytest.raises(ValueError, match="unknown test method 'ad'"):
        poisson_test_days([], 0.0, 10.0, method="ad")
    # so are the pass bar and epsilon, which an early stop might never reach
    for bad in (math.nan, -0.1, 1.5):
        for mode in ("per-day", "pooled"):
            with pytest.raises(ValueError, match="min_pass_fraction must be in"):
                poisson_test_days([np.array([1.0])], 0.0, 10.0, min_pass_fraction=bad, mode=mode)
    with pytest.raises(ValueError, match="epsilon must be in"):
        poisson_test_days([np.array([1.0])], 0.0, 10.0, epsilon=1.5)


@pytest.mark.parametrize("bad_day", [[0.5, math.nan], [5.0], [-0.1, 0.5], [0.2, 1.0], [math.nan]])
def test_untested_days_are_range_checked(bad_day):
    # a clustered first day fails and settles the verdict, so no later day is tested
    clustered = np.arange(0.001, 0.00951, 0.0005)
    with pytest.raises(ValueError, match=r"day 1: arrivals must lie in \[0.0, 1.0\)"):
        poisson_test_days([clustered, np.array(bad_day), np.array([0.5])], 0.0, 1.0)
    with pytest.raises(ValueError, match=r"day 2: arrivals must lie in"):
        poisson_test_days([clustered, np.array([0.5, 0.6]), np.array(bad_day)], 0.0, 1.0)
    out = poisson_test_days([clustered, np.array([0.5, 0.6]), np.array([]), np.array([0.5])], 0.0, 1.0)
    assert not out.passed and out.n_tested == 1


def test_zero_days_pass_vacuously():
    out = poisson_test_days([], 0.0, 10.0)
    assert out.passed and (out.n_days, out.n_tested, out.n_passed) == (0, 0, 0)
