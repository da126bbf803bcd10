"""Synthetic arrival generation for time-varying Poisson traffic.

Rates are piecewise linear in a scaled time coordinate u = t / scale
(seconds divided by seconds-per-unit), clamped at zero.  Two samplers are
provided: classic thinning against a dominating constant rate, and
conditioned sampling where the daily total is drawn from an integer range
and arrival times are placed i.i.d. proportional to the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EventSeries, TimeWindow, is_number

_SIM_DOMAIN = 0  # substream namespace for simulation

SIM_MODES = ("conditioned", "thinning")


@dataclass(frozen=True)
class PiecewiseLinearRate:
    """Nonnegative piecewise-linear rate over a window.

    Parameters
    ----------
    breakpoints : tuple of float
        Ascending segment boundaries in seconds; first/last must coincide
        with the intended window ends.
    segments : tuple of (slope, intercept)
        One pair per piece; the rate on piece j at time t seconds is
        max(0, slope_j * u + intercept_j) with u = t / scale, expressed in
        events per time unit of ``scale`` seconds.
    scale : float
        Seconds per rate time unit (300 for a five-minute unit).
    """

    breakpoints: tuple[float, ...]
    segments: tuple[tuple[float, float], ...]
    scale: float = 1.0

    def __post_init__(self) -> None:
        bp = tuple(float(b) for b in self.breakpoints)
        seg = tuple((float(s), float(c)) for s, c in self.segments)
        if len(bp) < 2 or len(seg) != len(bp) - 1:
            raise ValueError("need one (slope, intercept) pair per breakpoint gap")
        slopes, intercepts = zip(*seg)
        for name, values in (("breakpoints", bp), ("slopes", slopes), ("intercepts", intercepts)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{name} must be finite, got {list(values)}")
        if any(b <= a for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly ascending")
        # NaN fails every comparison, so a bare sign check would let it through
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "segments", seg)
        # Augment the u-grid with zero crossings so the cumulative mass is an
        # exact trapezoid sum over pieces where the clamped rate is linear.
        grid = []
        for j in range(len(seg)):
            u0, u1 = bp[j] / self.scale, bp[j + 1] / self.scale
            grid.append(u0)
            s, c = slopes[j], intercepts[j]
            if s != 0.0:
                cross = -c / s
                if u0 < cross < u1:
                    grid.append(cross)
        grid.append(bp[-1] / self.scale)
        grid_u = np.asarray(grid, dtype=float)
        rate_grid = self._native(grid_u * self.scale)
        mids = self._native(0.5 * (grid_u[:-1] + grid_u[1:]) * self.scale)
        seg_mass = np.where(mids > 0.0, np.diff(grid_u) * 0.5 * (rate_grid[:-1] + rate_grid[1:]), 0.0)
        cum = np.concatenate(([0.0], np.cumsum(seg_mass)))
        object.__setattr__(self, "_grid_u", grid_u)
        object.__setattr__(self, "_rate_grid", rate_grid)
        object.__setattr__(self, "_cum", cum)

    def window(self) -> TimeWindow:
        return TimeWindow(self.breakpoints[0], self.breakpoints[-1])

    def _native(self, t: np.ndarray) -> np.ndarray:
        """Clamped rate in events per time unit, evaluated at seconds t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        u = t / self.scale
        bp_u = np.asarray(self.breakpoints) / self.scale
        idx = np.clip(np.searchsorted(bp_u, u, side="right") - 1, 0, len(self.segments) - 1)
        slopes = np.asarray([s for s, _ in self.segments])
        intercepts = np.asarray([c for _, c in self.segments])
        return np.maximum(slopes[idx] * u + intercepts[idx], 0.0)

    def value(self, t: np.ndarray | float) -> np.ndarray:
        """Rate at seconds-of-day ``t`` in events per ``scale``-second unit."""
        return self._native(t)

    def max_value(self) -> float:
        """Exact supremum of the rate; attained at a breakpoint (clamping adds no interior maxima)."""
        return float(np.max(self._rate_grid))

    def total_mass(self) -> float:
        """Expected events per day: integral of the rate over the window."""
        return float(self._cum[-1])

    def cumulative_mass(self, t: np.ndarray | float) -> np.ndarray:
        """Integral of the rate from the window start to ``t`` (events)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        u = np.clip(t / self.scale, self._grid_u[0], self._grid_u[-1])
        idx = np.clip(np.searchsorted(self._grid_u, u, side="right") - 1, 0, len(self._grid_u) - 2)
        u0 = self._grid_u[idx]
        r0 = self._rate_grid[idx]
        r1 = self._rate_grid[idx + 1]
        du = self._grid_u[idx + 1] - u0
        active = (r0 > 0.0) | (r1 > 0.0)
        beta = np.where(du > 0, (r1 - r0) / np.where(du > 0, du, 1.0), 0.0)
        tau = u - u0
        extra = np.where(active, r0 * tau + 0.5 * beta * tau * tau, 0.0)
        return self._cum[idx] + extra

    def inverse_mass(self, q: np.ndarray | float) -> np.ndarray:
        """Inverse of :meth:`cumulative_mass` on [0, total_mass]."""
        q = np.atleast_1d(np.asarray(q, dtype=float))
        total = self.total_mass()
        if np.any(q < -1e-9) or np.any(q > total * (1 + 1e-12) + 1e-9):
            raise ValueError("mass query outside [0, total_mass]")
        q = np.clip(q, 0.0, total)
        # Pieces with zero mass are flat in the cumulative; 'left' search puts
        # boundary hits on the earliest piece, interior values past it.
        idx = np.clip(np.searchsorted(self._cum, q, side="left") - 1, 0, len(self._cum) - 2)
        s = q - self._cum[idx]
        u0 = self._grid_u[idx]
        du = self._grid_u[idx + 1] - u0
        r0 = self._rate_grid[idx]
        r1 = self._rate_grid[idx + 1]
        beta = np.where(du > 0, (r1 - r0) / np.where(du > 0, du, 1.0), 0.0)
        disc = np.sqrt(np.maximum(r0 * r0 + 2.0 * beta * s, 0.0))
        denom = r0 + disc
        tau = np.where(denom > 0, 2.0 * s / np.where(denom > 0, denom, 1.0), 0.0)
        return (u0 + np.minimum(tau, du)) * self.scale

    def to_dict(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "segments": [list(pair) for pair in self.segments],
            "scale": self.scale,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PiecewiseLinearRate":
        """The rate of a ``to_dict`` payload; one of another shape is refused by field."""
        if not isinstance(payload, dict):
            raise ValueError(f"rate config must be an object, got {payload!r}")
        for key in ("breakpoints", "segments"):
            if key not in payload:
                raise ValueError(f"rate config missing field '{key}'")
        breakpoints, segments, scale = payload["breakpoints"], payload["segments"], payload.get("scale", 1.0)
        if not (isinstance(breakpoints, (list, tuple)) and all(map(is_number, breakpoints))):
            raise ValueError(f"rate config field 'breakpoints' must be a list of numbers, got {breakpoints!r}")
        if not isinstance(segments, (list, tuple)):
            raise ValueError(f"rate config field 'segments' must be a list of pairs, got {segments!r}")
        for j, pair in enumerate(segments):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(is_number, pair))):
                raise ValueError(f"rate config segment {j} must be a pair of numbers [slope, intercept], got {pair!r}")
        if not is_number(scale):
            raise ValueError(f"rate config field 'scale' must be a number, got {scale!r}")
        return cls(tuple(breakpoints), tuple(tuple(pair) for pair in segments), float(scale))


def af_rate() -> PiecewiseLinearRate:
    """Two-peak weekday traffic profile over a full day, five-minute units.

    Piecewise linear with knots every three hours; continuous, nonnegative,
    integrating to 8334 expected events per day.
    """
    return PiecewiseLinearRate(
        breakpoints=(0.0, 10800.0, 21600.0, 32400.0, 43200.0, 54000.0, 64800.0, 75600.0, 86400.0),
        segments=(
            (13.0 / 36.0, 7.0),
            (5.0 / 36.0, 15.0),
            (25.0 / 36.0, -25.0),
            (-0.5, 104.0),
            (-1.0 / 18.0, 40.0),
            (1.0 / 3.0, -30.0),
            (-4.0 / 9.0, 138.0),
            (-5.0 / 9.0, 166.0),
        ),
        scale=300.0,
    )


def simulate_thinning(
    rate: PiecewiseLinearRate,
    window: TimeWindow,
    rng: np.random.Generator,
    rate_bound: float | None = None,
) -> np.ndarray:
    """Draw one day of arrivals by thinning a dominating homogeneous process.

    ``rate_bound`` is in the rate's native units and must dominate the rate
    over the window; candidates arrive at the bound's intensity and are kept
    with probability value(t) / rate_bound.
    """
    sup = rate.max_value()
    if rate_bound is None:
        rate_bound = sup
    if rate_bound < sup - 1e-12:
        raise ValueError(f"rate_bound {rate_bound} is below the rate supremum {sup}")
    if rate_bound <= 0.0:
        return np.empty(0)
    expected = rate_bound / rate.scale * window.length
    n_candidates = rng.poisson(expected)
    times = rng.uniform(window.start, window.end, n_candidates)
    keep = rng.random(n_candidates) * rate_bound < rate.value(times)
    return np.sort(times[keep])


def check_count_range(lo: int, hi: int) -> None:
    """Reject a daily count range that does not satisfy 0 <= lo <= hi."""
    if lo < 0 or hi < lo:
        raise ValueError(f"count_range must satisfy 0 <= lo <= hi, got ({lo}, {hi})")


def check_day_counts(n_train_days: int, n_test_days: int) -> None:
    """Reject a negative number of training or test days."""
    for name, n_days in (("n_train_days", n_train_days), ("n_test_days", n_test_days)):
        if n_days < 0:
            raise ValueError(f"{name} must be nonnegative, got {n_days!r}")


def simulate_conditioned(
    rate: PiecewiseLinearRate,
    window: TimeWindow,
    rng: np.random.Generator,
    count_range: tuple[int, int] = (7000, 8000),
) -> np.ndarray:
    """Draw one day with a uniform integer total and i.i.d. rate-proportional times.

    The daily count N is uniform on the inclusive integer range; arrival
    times are placed by inverse transform on the normalized cumulative rate.
    """
    lo, hi = int(count_range[0]), int(count_range[1])
    check_count_range(lo, hi)
    n = int(rng.integers(lo, hi + 1))
    if n == 0:
        return np.empty(0)
    total = rate.total_mass()
    if total <= 0.0:
        raise ValueError("cannot place arrivals under an identically zero rate")
    q = rng.random(n) * total
    times = rate.inverse_mass(q)
    return np.sort(np.clip(times, window.start, np.nextafter(window.end, -np.inf)))


def day_stream(seed: int, day_index: int) -> np.random.Generator:
    """Independent per-day generator; (seed, day_index) fully determines it."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), _SIM_DOMAIN, int(day_index))))


def make_dataset(
    rate: PiecewiseLinearRate,
    n_train_days: int,
    n_test_days: int,
    seed: int = 0,
    mode: str = "conditioned",
    count_range: tuple[int, int] = (7000, 8000),
    rate_bound: float | None = None,
) -> tuple[EventSeries, EventSeries]:
    """Generate disjoint train/test day collections from one rate.

    Every day uses its own substream keyed by (seed, global day index), so
    the same seed reproduces the dataset bit for bit and adding test days
    never perturbs the training days.
    """
    check_day_counts(n_train_days, n_test_days)
    if mode not in SIM_MODES:
        raise ValueError(f"unknown simulation mode '{mode}'")
    window = rate.window()

    def one_day(day_index: int) -> np.ndarray:
        rng = day_stream(seed, day_index)
        if mode == "conditioned":
            return simulate_conditioned(rate, window, rng, count_range)
        return simulate_thinning(rate, window, rng, rate_bound)

    train = tuple(one_day(i) for i in range(n_train_days))
    test = tuple(one_day(n_train_days + i) for i in range(n_test_days))
    return (
        EventSeries(window=window, days=train),
        EventSeries(window=window, days=test),
    )
