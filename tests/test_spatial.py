"""Clustering and per-area learning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhpplearn import (
    AreaPartition,
    FitConfig,
    GeoEventSeries,
    SearchConfig,
    kmeans,
    learn_per_area,
)
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
    found = result.partition.centroids
    for c in centers:
        assert np.min(np.linalg.norm(found - c, axis=1)) < 0.5


def test_kmeans_labels_match_exhaustive_nearest_centroid():
    pts, _ = three_blobs(seed=4)
    result = kmeans(pts, 3, seed=2)
    centroids = result.partition.centroids
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
    np.testing.assert_array_equal(a.partition.centroids, b.partition.centroids)


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
    assert np.all(np.isfinite(result.partition.centroids))


# --- area partition -----------------------------------------------------------

def test_area_partition_rejects_bad_shape():
    with pytest.raises(ValueError, match=r"shape \(K, 2\)"):
        AreaPartition(np.zeros((3, 4)))


# --- geo series ---------------------------------------------------------------

def test_geo_series_validation():
    with pytest.raises(ValueError, match="equal lengths"):
        GeoEventSeries(day=[0, 0], seconds=[10.0], lon=[1.0], lat=[2.0])
    with pytest.raises(ValueError, match="outside the observation window"):
        GeoEventSeries(day=[0], seconds=[86400.0], lon=[0.0], lat=[0.0])
    with pytest.raises(ValueError, match="finite"):
        GeoEventSeries(day=[0], seconds=[5.0], lon=[np.inf], lat=[0.0])


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
