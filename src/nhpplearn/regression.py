"""Per-bin ordinary least squares on count data.

Each bin gets its own polynomial, fitted in a bin-local coordinate scaled
to [-1, 1] (raw seconds-of-day cubed overflow float conditioning long
before the fit is done).  Degree drops automatically when a bin holds too
few distinct abscissae to support it, and an empty bin yields the zero
polynomial.

``CellData.fit_interval`` is the per-bin fit, and it repeats
``Polynomial.fit``'s floating-point operations one for one (the domain map
``off + scl * x``, the Vandermonde rows, the column norms summed along the
contiguous axis, ``lstsq`` with rcond ``N * eps``) instead of an algebraically
equal shortcut.  The relaxed divider breaks near-ties between restarts by the
last bits of the risk, so a fit that agrees to 1e-14 still changes which
partition wins; only the same operations in the same order keep the
experiment outputs byte-identical.  What the kernel saves is overhead: every cell has one row
per day, so the Vandermonde matrix and the prediction are built on the
cell midpoints and tiled over the days (elementwise, hence exact), and no
``np.unique`` or ``Polynomial`` object is made.  The tests keep ``fit_bin``,
``Polynomial.fit`` on arbitrary points, as its oracle.

A ``CellData`` binds one count table to one ``FitConfig`` and holds the only
record of the fits made on it: a memo, keyed by ``(lo, hi)``, of each fit's
coefficients, risk and occupancy (the search engine keeps no copy).  It is
the data ``learn`` and ``divide`` take: ``learn`` passes it to every restart
and to the final ``fit_partition(data, partition)``.  The caller builds it.
``CellData.from_events`` builds it from arrival times and keeps them as
``arrivals``, the days the ivanov divider tests; the counts are tallied from
those same arrivals, so the two cannot disagree.  A view built from a bare
count table has no arrivals.  An experiment builds one per training set and
passes it to every ``learn`` call on it (the eta sweep, or the unbinned,
ivanov and tikhonov calls), so an interval is fitted once per experiment
call; ``learn_per_area`` builds one per area, and ``nhpplearn learn`` one per
run.  The memo goes away with it.

A constant fit (effective degree 0: one cell, or ``degree == 0``) is also
shared by cell slice, so every ``(lo, hi)`` covering the same cells reuses
one fit.  That is exact: with ``eff = 0`` the Vandermonde row is
``x * 0 + 1 == 1.0`` for every finite ``x``, so the least-squares matrix,
its norms and the coefficients do not depend on ``lo`` or ``hi``; the Horner
prediction adds only ``±0.0`` terms to ``coef[0]``, so the residuals, and
the risk, are the same bit for bit; and an empty slice is the zero fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import CountTable, EventSeries, Partition, RateModel, check_integer

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FitConfig:
    """Knobs for per-bin polynomial fitting."""

    degree: int = 3
    clamp: bool = True

    def __post_init__(self) -> None:
        check_integer("degree", self.degree)
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")


class CellData:
    """Fit-ready view of a count table under one ``FitConfig``.

    Holds the sorted cell midpoints and per-day values, and ``arrivals``, the
    series the table was tallied from when it was built by ``from_events``
    (None otherwise).  Fits are remembered by ``(lo, hi)``, and constant fits
    also by cell slice, for the life of the view; the returned coefficient
    arrays are read-only so no caller can alter a remembered fit.
    """

    def __init__(self, table: CountTable, config: FitConfig | None = None):
        if table.n_days == 0:
            raise ValueError("count table has no observed days")
        self.table = table
        self.config = config or FitConfig()
        self.window = table.window
        self.midpoints = table.cell_midpoints()
        self.values = table.counts + 0.0  # polyutils._fit adds 0.0 too: -0.0 becomes 0.0
        self.n_days = table.n_days
        self.arrivals: EventSeries | None = None
        self._fits: dict[tuple[float, float], tuple[np.ndarray, float, int]] = {}
        # constant fits by cell slice; a dict apart, since (0, 5) == (0.0, 5.0)
        self._constant_fits: dict[tuple[int, int], tuple[np.ndarray, float, int]] = {}

    @classmethod
    def from_events(cls, events: EventSeries, resolution: float, config: FitConfig | None = None) -> "CellData":
        """Count ``events`` on ``resolution``-second cells and keep them as ``arrivals``."""
        data = cls(CountTable.from_events(events, resolution), config)
        data.arrivals = events
        return data

    @property
    def total_points(self) -> int:
        return self.values.size

    def interval_slice(self, lo: float, hi: float) -> slice:
        """Cells whose midpoint falls in [lo, hi); hi == window.end includes the tail."""
        i0 = int(self.midpoints.searchsorted(lo, side="left"))
        if hi >= self.window.end:
            i1 = self.midpoints.size
        else:
            i1 = int(self.midpoints.searchsorted(hi, side="left"))
        return slice(i0, i1)

    def fit_interval(self, lo: float, hi: float) -> tuple[np.ndarray, float, int]:
        """Fit one interval; returns (coefficients, mean squared residual, occupancy).

        Equal, bit for bit, to ``Polynomial.fit`` on the interval's cells
        tiled over the days (the tests' ``fit_bin`` oracle), plus the mean
        squared residual of that fit.
        """
        key = (lo, hi)
        fit = self._fits.get(key)
        if fit is None:
            sl = self.interval_slice(lo, hi)
            if min(self.config.degree, sl.stop - sl.start - 1) <= 0:
                cells = (sl.start, sl.stop)
                fit = self._constant_fits.get(cells)
                if fit is None:
                    fit = self._constant_fits[cells] = self._fit(float(lo), float(hi), sl)
            else:
                fit = self._fit(float(lo), float(hi), sl)
            self._fits[key] = fit
        return fit

    def _fit(self, lo: float, hi: float, sl: slice) -> tuple[np.ndarray, float, int]:
        coef = np.zeros(self.config.degree + 1)
        mids = self.midpoints[sl]
        n = mids.size
        if n == 0:
            coef.flags.writeable = False
            return coef, 0.0, 0
        n_days = self.n_days
        m = n * n_days
        y = self.values[:, sl].ravel()
        # cell midpoints are distinct, so n is the count of distinct abscissae
        eff = min(self.config.degree, n - 1)
        # Polynomial.fit -> polyutils._fit, on the midpoints, tiled over days
        off, scl = (-hi - lo) / (hi - lo), 2.0 / (hi - lo)  # polyutils.mapparms
        x = off + scl * mids + 0.0
        lhs = np.empty((eff + 1, n_days, n))
        v = lhs[:, 0, :]
        v[0] = x * 0 + 1
        for i in range(1, eff + 1):
            v[i] = v[i - 1] * x
        lhs[:, 1:, :] = v[:, None, :]
        lhs = lhs.reshape(eff + 1, m)
        norms = np.sqrt(np.square(lhs).sum(1))
        norms[norms == 0] = 1
        c, _, rank, _ = np.linalg.lstsq(lhs.T / norms, y, m * _EPS)
        if rank != eff + 1:
            warnings.warn("The fit may be poorly conditioned", np.exceptions.RankWarning, stacklevel=3)
        coef[: eff + 1] = c / norms
        coef.flags.writeable = False
        # polyval's Horner steps, on the midpoints
        u = (2.0 * mids - (lo + hi)) / (hi - lo)
        pred = coef[-1] + u * 0
        for a in coef[-2::-1]:
            pred = a + pred * u
        resid = (y.reshape(n_days, n) - pred).ravel()
        return coef, float(np.add.reduce(resid * resid) / m), m


def fit_partition(data: CellData, partition: Partition) -> tuple[RateModel, np.ndarray, np.ndarray]:
    """Fit every bin of a partition against the per-cell counts of ``data``.

    Returns the assembled model plus per-bin risks R_k (training mean squared
    residual, zero for empty bins) and occupancies m_k.  Bins that ``data``
    has already fitted are read from its memo.
    """
    if data.window != partition.window:
        raise ValueError("count table window does not match partition window")
    config = data.config
    edges = partition.edges()
    coeffs = np.zeros((partition.n_bins, config.degree + 1))
    risks = np.zeros(partition.n_bins)
    sizes = np.zeros(partition.n_bins, dtype=int)
    for k in range(partition.n_bins):
        coeffs[k], risks[k], sizes[k] = data.fit_interval(edges[k], edges[k + 1])
    model = RateModel(
        partition=partition, coefficients=coeffs, clamp=config.clamp, resolution=data.table.resolution
    )
    return model, risks, sizes


def evaluate(model: RateModel, table: CountTable) -> float:
    """Root mean squared error of a model against a count table's cells.

    A model that records its resolution is scored only on counts of that
    resolution: its rates are counts per cell of that length.
    """
    if table.n_days == 0:
        raise ValueError("cannot evaluate against a table with no days")
    if table.window != model.partition.window:
        raise ValueError("count table window does not match the model window")
    if model.resolution is not None and model.resolution != table.resolution:
        raise ValueError(
            f"model was learned on {model.resolution:g} s cells but the count table has "
            f"{table.resolution:g} s cells"
        )
    pred = model.evaluate(table.cell_midpoints())
    resid = table.counts - pred[None, :]
    return float(np.sqrt(np.mean(resid * resid)))
