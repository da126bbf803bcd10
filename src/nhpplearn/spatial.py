"""Spatial reduction: cluster event locations, then learn one rate per area."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Iterator

import numpy as np

from .core import CountTable, EventSeries, FitReport, TimeWindow
from .binning import SearchConfig, learn
from .regression import FitConfig

_SPATIAL_DOMAIN = 2


@dataclass(frozen=True)
class GeoEventSeries:
    """Events with day index, seconds-of-day, and planar coordinates."""

    day: np.ndarray
    seconds: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    window: TimeWindow = TimeWindow(0.0, 86400.0)

    def __post_init__(self) -> None:
        day = np.asarray(self.day, dtype=int)
        seconds = np.asarray(self.seconds, dtype=float)
        lon = np.asarray(self.lon, dtype=float)
        lat = np.asarray(self.lat, dtype=float)
        n = day.size
        if not (seconds.size == lon.size == lat.size == n):
            raise ValueError("day, seconds, lon, lat must have equal lengths")
        if n and (seconds.min() < self.window.start or seconds.max() >= self.window.end):
            raise ValueError("seconds outside the observation window")
        if not (np.all(np.isfinite(lon)) and np.all(np.isfinite(lat))):
            raise ValueError("coordinates must be finite")
        for name, arr in (("day", day), ("seconds", seconds), ("lon", lon), ("lat", lat)):
            object.__setattr__(self, name, arr)

    def day_ids(self) -> np.ndarray:
        return np.unique(self.day)


@dataclass(frozen=True)
class AreaPartition:
    """Planar centroids of the areas, one (lon, lat) row per area."""

    centroids: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_2d(np.asarray(self.centroids, dtype=float))
        if c.ndim != 2 or c.shape[1] != 2:
            raise ValueError("centroids must have shape (K, 2)")
        object.__setattr__(self, "centroids", c)


@dataclass(frozen=True)
class KMeansResult:
    partition: AreaPartition
    labels: np.ndarray
    wcss_history: tuple[float, ...]
    n_iter: int


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    init_centroids: np.ndarray | None = None,
) -> KMeansResult:
    """Lloyd's algorithm with distance-weighted seeding.

    Within-cluster sum of squares is recorded after every assignment step
    and never increases.  A cluster that loses all its points is re-seeded
    at the point currently farthest from its assigned centroid.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError(f"cannot form {k} clusters from {n} points")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _SPATIAL_DOMAIN, 0)))

    if init_centroids is not None:
        centroids = np.atleast_2d(np.asarray(init_centroids, dtype=float)).copy()
        if centroids.shape != (k, points.shape[1]):
            raise ValueError("init_centroids shape mismatch")
    else:
        # distance-squared weighted seeding
        centroids = np.empty((k, points.shape[1]))
        centroids[0] = points[rng.integers(n)]
        for j in range(1, k):
            d2 = _sq_dists(points, centroids[:j]).min(axis=1)
            total = d2.sum()
            if total <= 0:
                centroids[j] = points[rng.integers(n)]
            else:
                centroids[j] = points[rng.choice(n, p=d2 / total)]

    history: list[float] = []
    labels = np.zeros(n, dtype=int)
    for it in range(max_iter):
        d2 = _sq_dists(points, centroids)
        labels = np.argmin(d2, axis=1)
        # revive empty clusters at the worst-served point before scoring
        for j in range(k):
            if not np.any(labels == j):
                worst = int(np.argmax(d2[np.arange(n), labels]))
                centroids[j] = points[worst]
                d2 = _sq_dists(points, centroids)
                labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), labels].sum()))
        new_centroids = centroids.copy()
        for j in range(k):
            members = points[labels == j]
            if members.size:
                new_centroids[j] = members.mean(axis=0)
        if np.allclose(new_centroids, centroids):
            break
        centroids = new_centroids
    return KMeansResult(
        partition=AreaPartition(centroids=centroids),
        labels=labels,
        wcss_history=tuple(history),
        n_iter=len(history),
    )


@dataclass(frozen=True)
class SpatialFit:
    """Per-area learning output: clustering plus one fit report per area."""

    clustering: KMeansResult
    reports: tuple[FitReport, ...]
    events_per_area: tuple[int, ...]
    day_ids_train: tuple[int, ...]
    day_ids_test: tuple[int, ...]


def _area_series(geo: GeoEventSeries, labels: np.ndarray, k: int, day_ids: np.ndarray) -> Iterator[EventSeries]:
    """Each area's arrivals on ``day_ids``: yields one series per area ``0..k-1``.

    One stable sort groups the events by (area, day), so every group keeps
    file order and sorting its seconds gives what masking the events would.
    Series are made one area at a time, so only one area's arrays are alive.
    """
    order = np.lexsort((geo.day, labels))
    area_starts = np.searchsorted(labels[order], np.arange(k + 1))
    for a in range(k):
        members = order[area_starts[a] : area_starts[a + 1]]
        day_of = geo.day[members]
        seconds = geo.seconds[members]
        starts = np.searchsorted(day_of, day_ids, side="left")
        ends = np.searchsorted(day_of, day_ids, side="right")
        days = tuple(np.sort(seconds[i:j]) for i, j in zip(starts, ends))
        yield EventSeries(window=geo.window, days=days)


def learn_per_area(
    geo: GeoEventSeries,
    k: int,
    method: str = "ivanov",
    fit_config: FitConfig | None = None,
    config: SearchConfig | None = None,
    resolution: float = 60.0,
    train_days: np.ndarray | None = None,
    test_days: np.ndarray | None = None,
) -> SpatialFit:
    """Cluster locations into ``k`` areas and learn one rate model per area.

    Events are partitioned exactly: every event belongs to exactly one area
    series.  Day ids default to all observed days for training and none for
    testing.  Each area's search uses a seed offset by its index so areas
    are independent but the whole run is reproducible.
    """
    config = config or SearchConfig()
    if config.trace_path is not None:
        raise ValueError("learn_per_area writes no search trace; leave config.trace_path unset")
    fit_config = fit_config or FitConfig()
    all_days = geo.day_ids()
    train_ids = np.asarray(all_days if train_days is None else train_days, dtype=int)
    test_ids = np.asarray([] if test_days is None else test_days, dtype=int)

    result = kmeans(np.column_stack((geo.lon, geo.lat)), k, seed=config.seed)
    labels = result.labels

    train_series = _area_series(geo, labels, k, train_ids)
    test_series = _area_series(geo, labels, k, test_ids) if test_ids.size else repeat(None)
    reports = []
    for a, train, test in zip(range(k), train_series, test_series):
        train_table = CountTable.from_events(train, resolution)
        test_table = None if test is None else CountTable.from_events(test, resolution)
        area_config = replace(config, seed=config.seed + a)
        report = learn(
            train,
            train_table,
            test_table,
            method=method,
            fit_config=fit_config,
            config=area_config,
        )
        reports.append(report)
    return SpatialFit(
        clustering=result,
        reports=tuple(reports),
        events_per_area=tuple(int(n) for n in np.bincount(labels, minlength=k)),
        day_ids_train=tuple(int(d) for d in train_ids),
        day_ids_test=tuple(int(d) for d in test_ids),
    )
