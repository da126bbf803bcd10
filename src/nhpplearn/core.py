"""Domain types and risk functionals for rate-function learning.

Times are seconds-of-day floats. A partition carves the observation window
into half-open bins [b_{k-1}, b_k); the final bin additionally absorbs an
exact hit on the window end so every in-window time has a bin.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SECONDS_PER_DAY = 86400.0

# one day in 0.0864 s cells, far finer than a rate model needs; without a
# ceiling a resolution such as 1e-9 asks numpy for terabytes
MAX_CELLS = 10**6


@dataclass(frozen=True)
class TimeWindow:
    """Observation window in seconds-of-day; arrivals lie in [start, end)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.start < self.end <= SECONDS_PER_DAY):
            raise ValueError(
                f"window must satisfy 0 <= start < end <= 86400, got [{self.start}, {self.end}]"
            )

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class EventSeries:
    """Arrival times for one or more observed days over a common window.

    ``days[i]`` is the sorted array of arrival times (seconds-of-day) for
    day ``i``.  Arrivals must lie in ``[window.start, window.end)``.
    """

    window: TimeWindow
    days: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        cleaned = []
        for i, arr in enumerate(self.days):
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"day {i}: arrival array must be 1-D")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"day {i}: arrival times must be finite")
            if arr.size and (np.any(arr < self.window.start) or np.any(arr >= self.window.end)):
                raise ValueError(f"day {i}: arrivals outside [{self.window.start}, {self.window.end})")
            if np.any(np.diff(arr) < 0):
                arr = np.sort(arr)
            cleaned.append(arr)
        object.__setattr__(self, "days", tuple(cleaned))

    @property
    def n_days(self) -> int:
        return len(self.days)

    @property
    def total_events(self) -> int:
        return int(sum(arr.size for arr in self.days))


def check_integer(name: str, value) -> None:
    """Refuse ``value`` unless it is a Python or numpy integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def is_number(value) -> bool:
    """Whether ``value`` is a real number; a bool (JSON's true and false read as one) is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _cell_edges(window: TimeWindow, resolution: float) -> np.ndarray:
    """Edges of the ``resolution``-second cells covering ``window``; the last may be shorter."""
    # NaN fails every comparison, so a bare sign check would let it through
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    cells = window.length / resolution - 1e-12  # checked as a float: a tiny resolution gives inf
    if cells > MAX_CELLS:
        n_cells = math.ceil(cells) if math.isfinite(cells) else cells
        raise ValueError(
            f"resolution {resolution!r} cuts the {window.length:g} s window into {n_cells:.7g} cells, "
            f"more than the {MAX_CELLS} allowed"
        )
    n_cells = int(math.ceil(cells))
    if n_cells < 1:
        raise ValueError("resolution larger than the window")
    edges = window.start + resolution * np.arange(n_cells + 1)
    edges[-1] = window.end
    return edges


@dataclass(frozen=True)
class CountTable:
    """Per-day event counts on a uniform cell grid over the window.

    ``counts[d, c]`` is the number of day-``d`` arrivals falling in cell
    ``c``; cells are ``resolution``-second slices of the window (the last
    cell may be shorter when the window length is not a multiple).
    """

    window: TimeWindow
    resolution: float
    counts: np.ndarray

    def __post_init__(self) -> None:
        expected = _cell_edges(self.window, self.resolution).size - 1
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.shape[1] != expected:
            raise ValueError(
                f"counts must have shape (n_days, {expected}), got {counts.shape}"
            )
        if not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts.astype(float))

    @property
    def n_cells(self) -> int:
        return int(self.counts.shape[1])

    @property
    def n_days(self) -> int:
        return int(self.counts.shape[0])

    def cell_edges(self) -> np.ndarray:
        return _cell_edges(self.window, self.resolution)

    def cell_midpoints(self) -> np.ndarray:
        edges = self.cell_edges()
        return 0.5 * (edges[:-1] + edges[1:])

    @classmethod
    def from_events(cls, series: EventSeries, resolution: float = 60.0) -> "CountTable":
        edges = _cell_edges(series.window, resolution)
        rows = [np.histogram(arr, bins=edges)[0] for arr in series.days]
        counts = np.vstack(rows) if rows else np.zeros((0, edges.size - 1))
        return cls(window=series.window, resolution=resolution, counts=counts)


@dataclass(frozen=True)
class Partition:
    """Window split into half-open bins by strictly interior ascending knots."""

    window: TimeWindow
    knots: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        knots = tuple(float(k) for k in self.knots)
        if any(not (self.window.start < k < self.window.end) for k in knots):
            raise ValueError("knots must be strictly inside the window")
        if any(b <= a for a, b in zip(knots, knots[1:])):
            raise ValueError("knots must be strictly ascending")
        object.__setattr__(self, "knots", knots)

    @property
    def n_bins(self) -> int:
        return len(self.knots) + 1

    def edges(self) -> np.ndarray:
        return np.concatenate(([self.window.start], self.knots, [self.window.end]))

    def lengths(self) -> np.ndarray:
        return np.diff(self.edges())

    def bin_index(self, t: np.ndarray | float) -> np.ndarray:
        """Map times to bin indices; t == window.end folds into the last bin."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        # NaN fails both bounds, so test for being inside
        if not np.all((t >= self.window.start) & (t <= self.window.end)):
            raise ValueError("times outside the partition window")
        idx = np.searchsorted(self.edges(), t, side="right") - 1
        return np.minimum(idx, self.n_bins - 1)


@dataclass(frozen=True)
class RateModel:
    """Piecewise-polynomial rate: one degree-d polynomial per partition bin.

    Coefficients are stored in ascending powers of the bin-local coordinate
    u = (2t - (lo + hi)) / (hi - lo), which maps each bin onto [-1, 1].
    ``clamp`` floors predictions at zero during evaluation.  ``resolution``
    is the cell length, in seconds, of the counts the model was fitted to:
    rates are counts per cell of that length.  ``None`` means unknown.
    """

    partition: Partition
    coefficients: np.ndarray
    clamp: bool = True
    resolution: float | None = None

    def __post_init__(self) -> None:
        if self.resolution is not None and not (math.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"resolution must be a positive number of seconds, got {self.resolution}")
        coef = np.atleast_2d(np.asarray(self.coefficients, dtype=float))
        if coef.shape[0] != self.partition.n_bins:
            raise ValueError(
                f"need one coefficient row per bin ({self.partition.n_bins}), got {coef.shape[0]}"
            )
        object.__setattr__(self, "coefficients", coef)

    @property
    def degree(self) -> int:
        return int(self.coefficients.shape[1] - 1)

    def evaluate(self, t: np.ndarray | float) -> np.ndarray:
        """Rate at times ``t`` (same units as the fitted counts).

        All points at once, each through the operations ``polyval`` applies
        to its bin's coefficients, so every value is bit for bit polyval's.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = self.partition.bin_index(t)
        edges = self.partition.edges()
        lo, hi = edges[idx], edges[idx + 1]
        u = (2.0 * t - (lo + hi)) / (hi - lo)
        coef = self.coefficients
        out = coef[idx, -1] + u * 0
        for j in range(coef.shape[1] - 2, -1, -1):
            out = coef[idx, j] + out * u
        if self.clamp:
            out = np.maximum(out, 0.0)
        return out


@dataclass(frozen=True)
class FitReport:
    """Everything a single learning run produced."""

    method: str
    model: RateModel
    bin_sizes: tuple[int, ...]
    binned_risk: float
    rmse_train: float
    rmse_test: float | None
    seed: int
    penalized_risk: float | None = None
    gamma: float | None = None
    epsilon: float | None = None
    eta_seconds: float | None = None

    @property
    def partition(self) -> Partition:
        return self.model.partition

    @property
    def n_bins(self) -> int:
        return self.model.partition.n_bins

    def summary_dict(self) -> dict:
        return {
            "method": self.method,
            "knots": list(self.partition.knots),
            "n_bins": self.n_bins,
            "bin_sizes": list(self.bin_sizes),
            "binned_risk": self.binned_risk,
            "penalized_risk": self.penalized_risk,
            "rmse_train": self.rmse_train,
            "rmse_test": self.rmse_test,
            "seed": self.seed,
            "gamma": self.gamma,
            "epsilon": self.epsilon,
            "eta_seconds": self.eta_seconds,
        }


# ---------------------------------------------------------------------------
# Risk functionals
# ---------------------------------------------------------------------------

def binned_risk(sizes: Sequence[int], risks: Sequence[float]) -> float:
    """Occupancy-weighted mean of per-bin risks: (1/m) * sum_k m_k * R_k, summed bin by bin.

    ``learn`` ranks restarts by this value and reports it.  Relaxed restarts
    tie down to the last bit, so the rounding of the sum picks the winner:
    the terms are added one at a time in bin order, because ``np.dot``,
    ``np.sum``, ``math.fsum`` and (from Python 3.12, which compensates float
    sums) the builtin ``sum`` all round differently.
    """
    sizes = np.asarray(sizes, dtype=float)
    risks = np.asarray(risks, dtype=float)
    if sizes.shape != risks.shape:
        raise ValueError("sizes and risks must have matching shapes")
    m = sizes.sum()
    if m <= 0:
        raise ValueError("binned risk undefined for zero total occupancy")
    weighted = 0.0
    for m_k, r_k in zip(sizes.tolist(), risks.tolist()):
        weighted += m_k * r_k
    return weighted / float(m)


def penalized_risk(
    sizes: Sequence[int],
    risks: Sequence[float],
    partition: Partition,
    gamma: float,
) -> float:
    """Binned risk plus a smoothness penalty on all bins except the last.

    The per-bin penalty term is m_k * R_k / (b_k - b_{k-1}); the final bin
    carries no penalty.
    """
    sizes = np.asarray(sizes, dtype=float)
    risks = np.asarray(risks, dtype=float)
    if sizes.shape[0] != partition.n_bins or risks.shape[0] != partition.n_bins:
        raise ValueError("sizes/risks length must equal the number of bins")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    lengths = partition.lengths()  # positive: a Partition's knots ascend strictly inside its window
    base = binned_risk(sizes, risks)
    penalty = float(np.sum(sizes[:-1] * risks[:-1] / lengths[:-1]))
    return base + gamma * penalty

