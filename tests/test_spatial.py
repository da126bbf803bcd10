"""Clustering and per-area learning."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhpplearn import (
    FitConfig,
    GeoEventSeries,
    SearchConfig,
    kmeans,
    learn_per_area,
)
from nhpplearn.experiments import make_synthetic_geo
from nhpplearn.spatial import _area_series


def three_blobs(seed=0, per_blob=20):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]])
    pts = np.concatenate([c + 0.4 * rng.standard_normal((per_blob, 2)) for c in centers])
    return pts, centers


# --- kmeans -------------------------------------------------------------------

def test_kmeans_recovers_separated_blobs():
    pts, centers = three_blobs()
    result = kmeans(pts, 3, seed=1)
    # each found centroid should sit on top of one true center
    found = result.centroids
    for c in centers:
        assert np.min(np.linalg.norm(found - c, axis=1)) < 0.5


def test_kmeans_labels_match_exhaustive_nearest_centroid():
    pts, _ = three_blobs(seed=4)
    result = kmeans(pts, 3, seed=2)
    centroids = result.centroids
    brute = np.array([
        int(np.argmin([np.sum((p - c) ** 2) for c in centroids])) for p in pts
    ])
    agreement = np.mean(result.labels == brute)
    assert agreement >= 0.95


def test_kmeans_wcss_never_increases():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0.0, 10.0, size=(120, 2))
    result = kmeans(pts, 7, seed=3)
    hist = np.asarray(result.wcss_history)
    assert len(hist) == result.n_iter
    assert np.all(np.diff(hist) <= 1e-9)


def test_kmeans_is_deterministic():
    pts, _ = three_blobs(seed=8)
    a = kmeans(pts, 4, seed=9)
    b = kmeans(pts, 4, seed=9)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.centroids, b.centroids)


def test_kmeans_validates_k():
    pts = np.zeros((5, 2))
    with pytest.raises(ValueError, match="k must be positive"):
        kmeans(pts, 0)
    with pytest.raises(ValueError, match="cannot form 9 clusters from 5 points"):
        kmeans(pts, 9)


def test_kmeans_revives_empty_clusters():
    # centroids seeded so that one starts with no nearest points
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    init = np.array([[0.05, 0.0], [10.05, 0.0], [100.0, 100.0]])
    result = kmeans(pts, 3, init_centroids=init)
    assert set(result.labels.tolist()) == {0, 1, 2}


def test_kmeans_init_centroid_shape_checked():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError, match="init_centroids shape mismatch"):
        kmeans(pts, 2, init_centroids=np.zeros((3, 2)))


def test_kmeans_duplicate_points_fill_by_reseed():
    # all mass at two sites; the third centroid lands on a point, never NaN
    pts = np.repeat(np.array([[0.0, 0.0], [5.0, 5.0]]), 10, axis=0)
    result = kmeans(pts, 3, seed=0)
    assert np.all(np.isfinite(result.centroids))


def test_kmeans_rejects_points_that_are_not_n_by_2():
    for bad in (np.zeros((5, 3)), np.zeros((5, 1)), np.zeros((2, 5, 2))):
        with pytest.raises(ValueError, match=re.escape(f"points must have shape (n, 2), got {bad.shape}")):
            kmeans(bad, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_refuses_points_that_are_not_finite(bad):
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5], [3.0, 3.0]])
    for i, j in ((0, 0), (2, 1)):
        bad_pts = pts.copy()
        bad_pts[i, j] = bad
        with pytest.raises(ValueError, match="^points must be finite$"):
            kmeans(bad_pts, 2)


def frozen_kmeans(points, k, seed=0, max_iter=100):
    """``kmeans`` as it was before the explicit squares and the running seeding minimum: the oracle."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 2, 0)))

    def sq_dists(p, c):
        return ((p[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    for j in range(1, k):
        d2 = sq_dists(points, centroids[:j]).min(axis=1)
        total = d2.sum()
        if total <= 0:
            centroids[j] = points[rng.integers(n)]
        else:
            centroids[j] = points[rng.choice(n, p=d2 / total)]
    history = []
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        d2 = sq_dists(points, centroids)
        labels = np.argmin(d2, axis=1)
        for j in range(k):
            if not np.any(labels == j):
                worst = int(np.argmax(d2[np.arange(n), labels]))
                centroids[j] = points[worst]
                d2 = sq_dists(points, centroids)
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
    return centroids, labels, tuple(history)


@pytest.mark.parametrize("seed", range(3))
def test_kmeans_equals_the_frozen_kmeans_on_exp3_points(seed):
    geo = make_synthetic_geo(seed=seed)
    points = np.column_stack((geo.lon, geo.lat))
    got = kmeans(points, 20, seed=seed)
    centroids, labels, history = frozen_kmeans(points, 20, seed=seed)
    assert got.centroids.tobytes() == centroids.tobytes()
    assert got.labels.tobytes() == labels.tobytes()
    assert np.array(got.wcss_history).tobytes() == np.array(history).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 60).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=n, max_size=n),
        st.integers(1, n),
    )),
    st.integers(0, 2**16),
)
def test_kmeans_equals_the_frozen_kmeans(points_k, seed):
    points, k = points_k
    got = kmeans(points, k, seed=seed)
    centroids, labels, history = frozen_kmeans(points, k, seed=seed)
    assert got.centroids.tobytes() == centroids.tobytes()
    assert got.labels.tobytes() == labels.tobytes()
    assert np.array(got.wcss_history).tobytes() == np.array(history).tobytes()


# --- geo series ---------------------------------------------------------------

def test_geo_series_validation():
    with pytest.raises(ValueError, match="equal lengths"):
        GeoEventSeries(day=[0, 0], seconds=[10.0], lon=[1.0], lat=[2.0])
    with pytest.raises(ValueError, match="outside the observation window"):
        GeoEventSeries(day=[0], seconds=[86400.0], lon=[0.0], lat=[0.0])
    with pytest.raises(ValueError, match="finite"):
        GeoEventSeries(day=[0], seconds=[5.0], lon=[np.inf], lat=[0.0])


@pytest.mark.parametrize("seconds", [[np.nan, 5.0], [5.0, np.nan], [np.nan, np.nan]])
def test_geo_series_rejects_nan_seconds(seconds):
    # NaN made seconds.min() NaN, which fails both window comparisons
    with pytest.raises(ValueError, match="seconds outside the observation window"):
        GeoEventSeries(day=[0, 1], seconds=seconds, lon=[0.0, 0.0], lat=[0.0, 0.0])


@pytest.mark.parametrize("day, shown", [
    ([0.5, 1.7], "0.5"), ([0.0, 1.5], "1.5"), ([0.0, np.nan], "nan"), ([np.inf, 1.0], "inf"), ([1e20, 1.0], "1e+20"),
])
def test_geo_series_rejects_day_ids_that_are_not_integers(day, shown):
    # [0.5, 1.7] was truncated to [0, 1] without a word, and 1e20 cast to -2**63
    with pytest.raises(ValueError, match=re.escape(f"day ids must be integers within ±2**53, got {shown}")):
        GeoEventSeries(day=day, seconds=[5.0, 6.0], lon=[0.0, 0.0], lat=[0.0, 0.0])


def test_geo_series_takes_integral_float_day_ids():
    geo = GeoEventSeries(day=[3.0, 1.0], seconds=[5.0, 6.0], lon=[0.0, 0.0], lat=[0.0, 0.0])
    assert geo.day.dtype.kind == "i" and geo.day.tolist() == [3, 1]


def synthetic_geo(seed=0, n_days=3, per_day=240):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [6.0, 1.0], [3.0, 5.0]])
    day, sec, lon, lat = [], [], [], []
    for d in range(n_days):
        c = centers[rng.integers(3, size=per_day)]
        xy = c + 0.3 * rng.standard_normal((per_day, 2))
        day.extend([d] * per_day)
        sec.extend(rng.uniform(0.0, 86400.0, size=per_day).tolist())
        lon.extend(xy[:, 0].tolist())
        lat.extend(xy[:, 1].tolist())
    return GeoEventSeries(day=np.array(day), seconds=np.array(sec), lon=np.array(lon), lat=np.array(lat))


def area_series_by_masks(geo, labels, area, day_ids):
    # one mask per (area, day): the oracle for the grouped _area_series
    days = []
    mask_area = labels == area
    for d in day_ids:
        sel = mask_area & (geo.day == d)
        days.append(np.sort(geo.seconds[sel]))
    return days


@given(
    seed=st.integers(0, 10_000),
    n_events=st.integers(1, 80),
    k=st.integers(1, 6),
    n_day_ids=st.integers(1, 5),
)
@settings(max_examples=80, deadline=None)
def test_area_series_equals_mask_loop(seed, n_events, k, n_day_ids):
    rng = np.random.default_rng(seed)
    # few labels and days, repeated seconds (+0.0 and -0.0 among them), so
    # groups hold ties while some areas and some (area, day) pairs stay empty
    labels = rng.integers(0, max(1, k - 1), size=n_events)
    day = rng.integers(-2, 4, size=n_events)
    ties = rng.choice([-0.0, 0.0, 5.0, 86399.0], size=n_events)
    seconds = np.where(rng.random(n_events) < 0.5, ties, rng.uniform(0.0, 86400.0, size=n_events))
    geo = GeoEventSeries(day=day, seconds=seconds, lon=np.zeros(n_events), lat=np.zeros(n_events))
    day_ids = rng.integers(-3, 6, size=n_day_ids)  # may repeat, and may name days with no events
    got = list(_area_series(geo, labels, k, day_ids))
    assert len(got) == k
    for area, series in enumerate(got):
        want = area_series_by_masks(geo, labels, area, day_ids)
        assert len(series.days) == len(want)
        for a, b in zip(series.days, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_area_series_keeps_empty_areas_and_days():
    geo = GeoEventSeries(
        day=np.array([1, 0, 1, 1]), seconds=np.array([30.0, 20.0, 10.0, 40.0]), lon=np.zeros(4), lat=np.zeros(4)
    )
    labels = np.array([0, 0, 2, 0])
    got = list(_area_series(geo, labels, 3, np.array([0, 1, 7])))
    assert [[a.tolist() for a in s.days] for s in got] == [
        [[20.0], [30.0, 40.0], []],
        [[], [], []],
        [[], [10.0], []],
    ]


# --- per-area learning --------------------------------------------------------

def test_learn_per_area_conserves_events():
    geo = synthetic_geo(seed=1)
    fit = learn_per_area(
        geo, 3, method="equal:4", fit_config=FitConfig(degree=1),
        config=SearchConfig(seed=7), resolution=3600.0,
    )
    assert len(fit.reports) == 3
    assert sum(fit.events_per_area) == geo.day.size
    # every area report carries one model over the full day
    for rep in fit.reports:
        assert rep.n_bins == 4
        assert rep.partition.window == geo.window


def test_learn_per_area_day_selection():
    geo = synthetic_geo(seed=2)
    fit = learn_per_area(
        geo, 2, method="equal:2", config=SearchConfig(seed=1),
        resolution=3600.0, train_days=np.array([0, 1]), test_days=np.array([2]),
    )
    assert fit.day_ids_train == (0, 1)
    assert fit.day_ids_test == (2,)
    for rep in fit.reports:
        assert rep.rmse_test is not None


def test_learn_per_area_is_deterministic():
    geo = synthetic_geo(seed=3)
    kwargs = dict(
        method="ivanov", fit_config=FitConfig(degree=1),
        config=SearchConfig(seed=11, max_depth=4, max_bins=4, max_restarts=2, max_retries=1),
        resolution=3600.0,
    )
    a = learn_per_area(geo, 2, **kwargs)
    b = learn_per_area(geo, 2, **kwargs)
    for ra, rb in zip(a.reports, b.reports):
        assert ra.partition.knots == rb.partition.knots
        assert ra.rmse_train == rb.rmse_train


def test_learn_per_area_rejects_a_trace_path(tmp_path):
    # one path cannot hold a trace per area, so the setting is refused, not dropped
    with pytest.raises(ValueError, match="trace_path"):
        learn_per_area(
            synthetic_geo(seed=1), 2, method="equal:2",
            config=SearchConfig(trace_path=str(tmp_path / "t.jsonl")), resolution=3600.0,
        )
    assert not (tmp_path / "t.jsonl").exists()
