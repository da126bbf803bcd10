"""Goodness-of-fit tests for the homogeneous-Poisson hypothesis on an interval.

The workhorse is the exponential-spacings test: conditional on the arrival
times in [lo, hi), the transformed spacings

    X_i = -(m + 1 - i) * ln((L - t_i) / (L - t_{i-1})),   t_0 = 0, L = hi - lo

are i.i.d. standard exponential under homogeneity, so a Kolmogorov-Smirnov
comparison against 1 - e^{-x} calibrates the test exactly, independent of
the (unknown) rate level.  A plain KS test of the raw times against the
uniform law is available as an alternative.

One kernel, ``_log_statistics``, computes the log test's statistic, and it
gives bit for bit what the plain formulas give.  That matters: the ivanov
divider splits on these verdicts, and a statistic one ulp off at the critical
value changes the partition.  It takes a chunk of sorted days in one buffer
and about 20 numpy calls in all, with the elementwise operations of the scalar
formulas on the same doubles: each ``L - t_i`` is logged once, and the KS
supremum takes two differences instead of four absolute values (monotone
rounding and exact negation make them the same double); only the sort stays
one call per day.  ``_day_statistic`` checks one day, sorts it only when it
is out of order, and hands it to the kernel as a chunk of one; the uniform KS
statistic it computes itself.  "Bit for bit" holds within one SIMD dispatch:
numpy picks its ``log`` and ``exp`` code by CPU (AVX-512 or not), and those
can differ in the last bit between hosts.

``poisson_test_days`` returns a ``MultiDayOutcome``.  Pooled mode tests the
merged days once through ``_day_statistic`` (a merge of at most one arrival
passes).  The tests keep ``log_test``, ``uniform_ks_test`` and
``ks_statistic`` as oracles.

``poisson_test_days`` in per-day mode decides rather than counts: it stops
as soon as the verdict is settled, passing once the passing days clear the
bar and failing once passing every untested day would still fall short.  Its
``n_passed`` counts the passing days among the ``n_tested`` days it looked
at.  Both stops use the float comparison that judged the full pass fraction,
so every verdict is the one an exhaustive loop would give.  The log test
takes the next days in one chunk of at least one day: light days (at most
``_HEAVY_DAY`` arrivals) up to every day the verdict may still need, heavier
days only up to the days it needs whatever they say.  The loop's stop is then
replayed over the chunk's verdicts, so ``n_tested`` and ``n_passed`` are what
the day-by-day loop gives; light days computed past the stop are not counted.
A chunk the kernel declines goes day by day through ``_day_statistic``, which
sorts the day or names the fault.  Two module constants, not options, bound a
chunk; they were set by measurement (2-vCPU Xeon VM, numpy 2.4.6; CHANGES.md
has the tables):

* ``_CHUNK_ARRIVALS`` = 24,000: on exp2's ivanov day tests, 16,000 was 2-3% and 48,000 0-6% slower.
* ``_HEAVY_DAY`` = 800: testing every heavy day alone made those day tests 5-15% slower.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _ks_sup(f: np.ndarray, q: np.ndarray) -> float:
    """sup_x |F_m(x) - F(x)| from ``f``, the reference CDF at the order statistics.

    ``q`` is ``arange(m + 1) / m``.  The supremum is max_i max(|f_i - i/m|,
    |f_i - (i-1)/m|); since (i-1)/m <= i/m and rounding is monotone, the two
    terms f_i - i/m and (i-1)/m - f_i never exceed the other two, and negation
    is exact, so two differences give the same double as the four abs values.
    """
    return float(max((q[1:] - f).max(), (f - q[:-1]).max()))


def ks_critical(m: int, epsilon: float) -> float:
    """Large-sample KS critical value sqrt(-ln(epsilon/2) / (2m))."""
    if m < 1:
        raise ValueError("critical value needs at least one sample")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    return math.sqrt(-0.5 * math.log(epsilon / 2.0) / m)


def _check_interval(lo: float, hi: float) -> None:
    """Reject an interval whose bounds are not finite, naming the bound, or not ordered."""
    if -math.inf < lo < hi < math.inf:  # NaN fails every comparison
        return
    for name, bound in (("lo", lo), ("hi", hi)):
        if not math.isfinite(bound):
            raise ValueError(f"interval bound {name} must be finite, got {bound!r}")
    raise ValueError("interval must satisfy lo < hi")


def _day_statistic(arrivals: Sequence[float], lo: float, hi: float, log: bool) -> tuple[float, int]:
    """KS statistic and size of one day's arrivals on [lo, hi); (0.0, 0) when empty.

    ``log`` selects the exponential-spacings transform, computed by
    ``_log_statistics``, else the raw times are compared with the uniform law.
    Arrivals are sorted only when they are not sorted already.
    """
    _check_interval(lo, hi)
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
    if log:
        return float(_log_statistics([arr], [m], lo, hi)[0]), m
    return _ks_sup((arr - lo) / (hi - lo), np.arange(m + 1.0) / m), m


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


# how per-day mode cuts the days of the log test into chunks (see the module
# docstring for the measurements that set them)
_HEAVY_DAY = 800  # a heavier day is chunked only if the verdict needs it
_CHUNK_ARRIVALS = 24000  # most arrivals in one chunk, unless its first day alone is more


def _log_statistics(days: Sequence[np.ndarray], sizes: Sequence[int], lo: float, hi: float) -> np.ndarray | None:
    """The log test's KS statistic of each of ``days`` (of ``sizes`` arrivals), all at once.

    Every statistic is bit for bit what the scalar per-day formulas give: the
    same elementwise operations on the same doubles, with the days laid out
    one after another (an empty day's statistic is 0.0).
    Each nonempty day is a block ``[lo, t_1, ..., t_m]`` of one buffer, closed
    by one more ``lo``, so the differences of ``log(hi - buffer)`` hold each
    day's spacings and then one junk slot that crosses into the next block.
    The spacings are taken negated, ``L_i - L_{i-1}``, which is exact, so one
    ascending sort per day puts ``-X`` in the order of ``X`` descending and
    ``exp`` needs no negation; the KS ramps then run descending too.  The
    junk slot gets weight 0, stays out of the day's sort and is masked before
    the per-day max.  Returns None, before any log is taken, unless every day
    is a sorted 1-D array of arrivals in ``[lo, hi)``; the caller then checks
    the days one by one, which sorts them or names the fault.
    """
    blocks = [i for i, m in enumerate(sizes) if m]
    if not blocks:
        return np.zeros(len(sizes))
    m = np.array([sizes[i] for i in blocks])
    lead = np.array([lo])
    try:
        buf = np.concatenate([x for i in blocks for x in (lead, days[i])] + [lead], dtype=float)
    except (TypeError, ValueError):
        return None
    m1 = m + 1
    ends = m1.cumsum()
    ends -= 1  # each block's last arrival, and the junk slot of its spacings
    # NaN fails every comparison, so this also rejects it
    ordered = buf[1:] >= buf[:-1]
    ordered[ends] = True  # a block's last arrival against the next lo
    if not (ordered.all() and buf.max() < hi):
        return None
    np.subtract(hi, buf, out=buf)
    np.log(buf, out=buf)
    x = buf[1:] - buf[:-1]
    # m + 1 - i on the slot of spacing i, then 0 on the junk slot
    w = np.repeat(ends.astype(float), m1)
    w -= np.arange(float(x.size))
    x *= w
    for end, mj in zip(ends.tolist(), m.tolist()):
        x[end - mj : end].sort()
    np.exp(x, out=x)
    np.subtract(1.0, x, out=x)  # F(X_(i)) for i = m, ..., 1 over each block
    q = np.divide(w, np.repeat(m.astype(float), m1), out=w)  # i / m beside F(X_(i)), (i - 1) / m one slot on
    # max(i / m - F, F - (i - 1) / m) on every slot but the last, which is junk
    sup = q[:-1] - x[:-1]
    x[:-1] -= q[1:]
    np.maximum(sup, x[:-1], out=sup)
    sup[ends[:-1]] = -np.inf
    stats = np.maximum.reduceat(sup, ends - m)
    if len(blocks) == len(sizes):
        return stats
    out = np.zeros(len(sizes))  # an empty day's statistic is 0.0
    out[blocks] = stats
    return out


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
    days reaches ``min_pass_fraction`` (default 1 - 2 * epsilon, so epsilon
    must then be below 0.5, as ``SearchConfig`` requires); it stops
    at the first day that settles the verdict; a day after it is not tested,
    but its first and last arrivals are checked, which bounds a sorted day
    (``EventSeries`` keeps days sorted).  ``pooled`` merges all days first.
    """
    check_test_settings(method, mode, min_pass_fraction)
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must be in (0, 1)")
    if mode == "per-day" and min_pass_fraction is None and epsilon >= 0.5:
        # the default bar 1 - 2 * epsilon is then <= 0: it would pass with no day tested
        raise ValueError(f"epsilon must be in (0, 0.5) in per-day mode without min_pass_fraction, got {epsilon!r}")
    _check_interval(lo, hi)
    n_days = len(day_arrivals)
    log = method == "log"
    if mode == "pooled":
        merged = np.concatenate([np.asarray(a, dtype=float) for a in day_arrivals]) if n_days else np.empty(0)
        stat, m = _day_statistic(merged, lo, hi, log)
        passed = m <= 1 or stat <= ks_critical(m, epsilon)
        return MultiDayOutcome(passed, n_days, n_days, n_days if passed else 0, 1.0, epsilon, method, mode)
    threshold = (1.0 - 2.0 * epsilon) if min_pass_fraction is None else min_pass_fraction
    bar = threshold - 1e-12

    def clears(k: int) -> bool:
        """Whether ``k`` passing days of ``n_days`` reach the bar."""
        return (1.0 if n_days == 0 else k / n_days) >= bar

    # the fraction is monotone in k, so the quota is the least k that clears the bar
    quota = bisect.bisect_left(range(n_days + 1), True, key=clears)
    slack = n_days - quota  # failing days the bar allows
    sizes = None
    if log:
        try:
            sizes = [len(arr) for arr in day_arrivals]
        except TypeError:  # a 0-d day: the per-day path names it
            pass

    def one_by_one(start: int, stop: int):
        """Each day's statistic from ``_day_statistic``, on demand; an error names its day."""
        for d in range(start, stop):
            try:
                yield _day_statistic(day_arrivals[d], lo, hi, log)
            except ValueError as err:
                raise ValueError(f"day {d}: {err}") from None

    c = -0.5 * math.log(epsilon / 2.0)  # ks_critical(m, epsilon) is sqrt(c / m)
    # stop once the passes reach the quota, or once the failures exceed the slack
    n_passed = n_tested = 0
    while n_passed < quota and n_tested - n_passed <= slack:
        end = n_tested + 1
        stats = None
        if sizes is not None:
            # the next days in one chunk: light days up to the last the verdict
            # may need, heavy days only up to the last it needs whatever they say
            need = n_tested + quota - n_passed
            sure = min(need, n_passed + slack + 1)
            arrivals = sizes[n_tested]
            while (
                end < need
                and (end < sure or sizes[end] <= _HEAVY_DAY)
                and arrivals + sizes[end] <= _CHUNK_ARRIVALS
            ):
                arrivals += sizes[end]
                end += 1
            stats = _log_statistics(day_arrivals[n_tested:end], sizes[n_tested:end], lo, hi)
        # the loop's own verdicts and stop; a chunk holds no more days than the
        # quota still needs, so only a failure can stop it early
        results = one_by_one(n_tested, end) if stats is None else zip(stats.tolist(), sizes[n_tested:end])
        for stat, m in results:
            n_tested += 1
            if m <= 1 or stat <= math.sqrt(c / m):
                n_passed += 1
            elif n_tested - n_passed > slack:
                break
    for d in range(n_tested, n_days):  # NaN fails both bounds
        arr = day_arrivals[d]
        if np.ndim(arr) != 1:
            raise ValueError(f"day {d}: arrivals must be a 1-D array")
        if len(arr) and not (lo <= arr[0] and arr[-1] < hi):
            raise ValueError(f"day {d}: arrivals must lie in [{lo}, {hi})")
    return MultiDayOutcome(n_passed >= quota, n_days, n_tested, n_passed, threshold, epsilon, method, mode)
