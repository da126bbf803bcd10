"""Goodness-of-fit tests for the homogeneous-Poisson hypothesis on an interval.

The workhorse is the exponential-spacings test: conditional on the arrival
times in [lo, hi), the transformed spacings

    X_i = -(m + 1 - i) * ln((L - t_i) / (L - t_{i-1})),   t_0 = 0, L = hi - lo

are i.i.d. standard exponential under homogeneity, so a Kolmogorov-Smirnov
comparison against 1 - e^{-x} calibrates the test exactly, independent of
the (unknown) rate level.  A plain KS test of the raw times against the
uniform law is available as an alternative.

Every day test goes through one kernel, ``_day_statistic``.  Its cost is per
arrival, and it does the least work per arrival that still keeps the scalar
order of operations: arrivals are sorted only when they are out of order,
each ``L - t_i`` is logged once (``ln(L - t_{i-1})`` is the log of the same
double one slot earlier), and the KS supremum takes two differences instead
of four absolute values (monotone rounding and exact negation make them the
same double).  So every statistic, and with it every verdict, is bit for bit
what the plain formulas give.  That matters: the ivanov divider splits on
these verdicts, and a statistic one ulp off at the critical value changes the
partition.  Days are tested one at a time rather than concatenated: a day's
arrays stay in cache, and one numpy pass over all days measured slower.

``poisson_test_days`` in per-day mode decides rather than counts: it stops
as soon as the verdict is settled, passing once the passing days clear the
bar and failing once passing every untested day would still fall short.  Its
``n_passed`` counts the passing days among the ``n_tested`` days it looked
at.  Both stops use the float comparison that judged the full pass fraction,
so every verdict is the one an exhaustive loop would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class TestOutcome:
    """Result of a single distribution test; passed iff statistic <= critical."""

    statistic: float
    critical: float
    n: int
    epsilon: float
    passed: bool
    method: str


def _ks_sup(f: np.ndarray, q: np.ndarray) -> float:
    """sup_x |F_m(x) - F(x)| from ``f``, the reference CDF at the order statistics.

    ``q`` is ``arange(m + 1) / m``.  The supremum is max_i max(|f_i - i/m|,
    |f_i - (i-1)/m|); since (i-1)/m <= i/m and rounding is monotone, the two
    terms f_i - i/m and (i-1)/m - f_i never exceed the other two, and negation
    is exact, so two differences give the same double as the four abs values.
    """
    return float(max((q[1:] - f).max(), (f - q[:-1]).max()))


def ks_statistic(samples: Sequence[float], cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Exact sup-distance between the empirical CDF and a reference CDF.

    Evaluated at the order statistics: the supremum over x of |F_m(x) - F(x)|
    is attained as max_i max(|F(x_(i)) - i/m|, |F(x_(i)) - (i-1)/m|).
    """
    x = np.sort(np.asarray(samples, dtype=float))
    m = x.size
    if m == 0:
        raise ValueError("KS statistic of an empty sample is undefined")
    f = np.asarray(cdf(x), dtype=float)
    return _ks_sup(f, np.arange(m + 1.0) / m)


def ks_critical(m: int, epsilon: float) -> float:
    """Large-sample KS critical value sqrt(-ln(epsilon/2) / (2m))."""
    if m < 1:
        raise ValueError("critical value needs at least one sample")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    return math.sqrt(-0.5 * math.log(epsilon / 2.0) / m)


def _day_statistic(arrivals: Sequence[float], lo: float, hi: float, log: bool) -> tuple[float, int]:
    """KS statistic and size of one day's arrivals on [lo, hi); (0.0, 0) when empty.

    ``log`` selects the exponential-spacings transform, else the raw times
    are compared with the uniform law.  Arrivals are sorted only when they
    are not sorted already.
    """
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    arr = np.asarray(arrivals, dtype=float)
    if arr.ndim != 1:
        raise ValueError("arrivals must be a 1-D array")
    m = arr.size
    if m == 0:
        return 0.0, 0
    if m > 1 and not (arr[1:] >= arr[:-1]).all():
        arr = np.sort(arr)
    # NaN sorts last and fails every comparison, so test for being inside
    if not (lo <= arr[0] and arr[-1] < hi):
        raise ValueError(f"arrivals must lie in [{lo}, {hi})")
    span = hi - lo
    r = np.arange(m + 1.0)
    if log:
        # L = log(hi - [lo, t_1, ..., t_m]): log(hi - t_{i-1}) is L[i-1], the
        # log of the same double as log(hi - t_i) one step earlier.  hi - t_i
        # is exact for t_i near hi, where span - (t_i - lo) can round to 0
        logs = np.empty(m + 1)
        logs[0] = span
        np.subtract(hi, arr, out=logs[1:])
        np.log(logs, out=logs)
        f = logs[:-1] - logs[1:]
        f *= r[:0:-1]  # weights m + 1 - i
        f.sort()
        np.negative(f, out=f)
        np.exp(f, out=f)
        np.subtract(1.0, f, out=f)
    else:
        f = (arr - lo) / span
    r /= m
    return _ks_sup(f, r), m


def _outcome(stat: float, m: int, epsilon: float, method: str) -> TestOutcome:
    if m == 0:
        return TestOutcome(0.0, math.inf, 0, epsilon, True, method)
    crit = ks_critical(m, epsilon)
    return TestOutcome(stat, crit, m, epsilon, bool(stat <= crit or m <= 1), method)


def log_test(
    arrivals: Sequence[float],
    lo: float,
    hi: float,
    epsilon: float = 0.05,
) -> TestOutcome:
    """Exponential-spacings test of homogeneity on [lo, hi).

    Samples of size <= 1 pass automatically (the statistic is still
    reported for a single arrival).
    """
    return _outcome(*_day_statistic(arrivals, lo, hi, True), epsilon, "log")


def uniform_ks_test(
    arrivals: Sequence[float],
    lo: float,
    hi: float,
    epsilon: float = 0.05,
) -> TestOutcome:
    """KS test of the raw arrival times against the uniform law on [lo, hi)."""
    return _outcome(*_day_statistic(arrivals, lo, hi, False), epsilon, "ks-uniform")


_METHODS = ("log", "ks-uniform")
_MODES = ("per-day", "pooled")


def check_test_settings(method: str, mode: str, min_pass_fraction: float | None = None) -> None:
    """Reject an unknown test method or aggregation mode, or a pass fraction outside [0, 1]."""
    if mode not in _MODES:
        raise ValueError(f"unknown aggregation mode '{mode}' (expected 'per-day' or 'pooled')")
    if method not in _METHODS:
        raise ValueError(f"unknown test method '{method}' (expected 'log' or 'ks-uniform')")
    if min_pass_fraction is not None and not (0.0 <= min_pass_fraction <= 1.0):  # NaN fails too
        raise ValueError(f"min_pass_fraction must be in [0, 1], got {min_pass_fraction!r}")


@dataclass(frozen=True)
class MultiDayOutcome:
    """Aggregate verdict over per-day tests of one interval.

    ``n_passed`` counts the passing days among the first ``n_tested`` of the
    ``n_days``; per-day mode stops testing once the verdict is settled.
    """

    passed: bool
    n_days: int
    n_tested: int
    n_passed: int
    required_fraction: float
    epsilon: float
    method: str
    mode: str

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "n_days": self.n_days,
            "n_tested": self.n_tested,
            "n_passed": self.n_passed,
            "required_fraction": self.required_fraction,
            "mode": self.mode,
        }


def poisson_test_days(
    day_arrivals: Sequence[np.ndarray],
    lo: float,
    hi: float,
    epsilon: float = 0.05,
    method: str = "log",
    mode: str = "per-day",
    min_pass_fraction: float | None = None,
) -> MultiDayOutcome:
    """Test one interval across repeated days.

    ``per-day`` tests days in order and passes when the fraction of passing
    days reaches ``min_pass_fraction`` (default 1 - 2 * epsilon); it stops
    at the first day that settles the verdict, so days after it are neither
    tested nor validated.  ``pooled`` merges all days into one sample first.
    """
    check_test_settings(method, mode, min_pass_fraction)
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    n_days = len(day_arrivals)
    log = method == "log"
    if mode == "pooled":
        merged = np.concatenate([np.asarray(a, dtype=float) for a in day_arrivals]) if n_days else np.empty(0)
        passed = _outcome(*_day_statistic(merged, lo, hi, log), epsilon, method).passed
        return MultiDayOutcome(passed, n_days, n_days, n_days if passed else 0, 1.0, epsilon, method, mode)
    threshold = (1.0 - 2.0 * epsilon) if min_pass_fraction is None else min_pass_fraction
    bar = threshold - 1e-12

    def clears(k: int) -> bool:
        """Whether ``k`` passing days of ``n_days`` reach the bar."""
        return (1.0 if n_days == 0 else k / n_days) >= bar

    # the fraction is monotone in k: stop once the passes so far clear the bar,
    # or once passing every untested day would still fall short
    n_passed = n_tested = 0
    while not clears(n_passed) and clears(n_passed + n_days - n_tested):
        stat, m = _day_statistic(day_arrivals[n_tested], lo, hi, log)
        n_tested += 1
        # the verdict of _outcome, without building one per day
        if m == 0 or stat <= ks_critical(m, epsilon) or m == 1:
            n_passed += 1
    return MultiDayOutcome(clears(n_passed), n_days, n_tested, n_passed, threshold, epsilon, method, mode)
