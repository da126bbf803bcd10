"""Reference code the tests compare the package against.

None of this runs in the package: each definition is either the plain form
of a fast path (``fit_bin`` of ``CellData._fit``, ``ks_statistic`` of the
log test's kernel), a one-day test built on the package's checked entry
``_day_statistic`` (``log_test``, ``uniform_ks_test``), the paper's VC bound
(``vc_bound_xi``, ``generalization_bound``), which no run computes, or the
geo event writer the tests use to make input files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from nhpplearn.dataio import GEO_HEADER
from nhpplearn.regression import FitConfig
from nhpplearn.spatial import GeoEventSeries
from nhpplearn.stat_tests import _day_statistic, _ks_sup, ks_critical


# --- per-bin least squares ----------------------------------------------------

def fit_bin(
    times: np.ndarray,
    counts: np.ndarray,
    interval: tuple[float, float],
    config: FitConfig,
) -> np.ndarray:
    """Least-squares polynomial for one bin, in bin-local [-1, 1] coordinates.

    Returns ascending-power coefficients padded to length degree + 1.
    The effective degree is min(degree, #distinct times - 1); an empty bin
    maps to the zero polynomial.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("bin interval must satisfy lo < hi")
    times = np.asarray(times, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if times.shape != counts.shape:
        raise ValueError("times and counts must have matching shapes")
    out = np.zeros(config.degree + 1)
    m = times.size
    if m == 0:
        return out
    eff = min(config.degree, int(np.unique(times).size) - 1)
    poly = np.polynomial.Polynomial.fit(times, counts, deg=max(eff, 0), domain=[lo, hi], window=[-1.0, 1.0])
    out[: poly.coef.size] = poly.coef
    return out


# --- one-day homogeneity tests ------------------------------------------------

@dataclass(frozen=True)
class TestOutcome:
    """Result of a single distribution test; passed iff statistic <= critical."""

    statistic: float
    critical: float
    n: int
    epsilon: float
    passed: bool
    method: str


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


# --- the paper's VC bound -----------------------------------------------------

def vc_bound_xi(m: int, h: int, eta: float) -> float:
    """Capacity term xi = (h * (ln(2m/h) + 1) - ln(eta / 4)) / m.

    Requires m > h >= 1 and 0 < eta < 1.  Strictly decreasing in m once
    2m/h clears e^2 (the classic regime where more data tightens the bound).
    """
    if h < 1:
        raise ValueError("capacity h must be >= 1")
    if m <= h:
        raise ValueError("sample size m must exceed capacity h")
    if not (0.0 < eta < 1.0):
        raise ValueError("confidence level eta must be in (0, 1)")
    return (h * (math.log(2.0 * m / h) + 1.0) - math.log(eta / 4.0)) / m


def generalization_bound(r_emp: float, bound: float, m: int, h: int, eta: float) -> float:
    """Upper confidence bound on true risk given empirical risk and sup bound B."""
    if r_emp < 0:
        raise ValueError("empirical risk must be nonnegative")
    if bound <= 0:
        raise ValueError("sup bound B must be positive")
    xi = vc_bound_xi(m, h, eta)
    bx = bound * xi
    return r_emp + 2.0 * bx * (1.0 + math.sqrt(1.0 + r_emp / bx))


# --- geo event files ----------------------------------------------------------

def save_geo_events(geo: GeoEventSeries, path: str | Path) -> None:
    rows = zip(geo.day.tolist(), geo.seconds.tolist(), geo.lon.tolist(), geo.lat.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(GEO_HEADER) + "\r\n")
        fh.write("".join([f"{day},{sec!r},{lon!r},{lat!r}\r\n" for day, sec, lon, lat in rows]))
