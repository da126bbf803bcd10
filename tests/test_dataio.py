"""CSV and JSON round trips plus malformed-input diagnostics."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from nhpplearn import (
    EventSeries,
    GeoEventSeries,
    Partition,
    RateModel,
    TimeWindow,
    load_events,
    load_geo_events,
    load_model,
    save_events,
    save_geo_events,
    save_model,
)

W = TimeWindow(0.0, 86400.0)


def sample_series(seed=0):
    rng = np.random.default_rng(seed)
    days = tuple(np.sort(rng.uniform(0.0, 86400.0, size=n)) for n in (40, 0, 25))
    return EventSeries(W, days)


# --- event CSV ----------------------------------------------------------------

def test_events_round_trip_exactly(tmp_path):
    series = sample_series()
    path = tmp_path / "events.csv"
    save_events(series, path)
    back = load_events(path)
    assert back.window == series.window
    # day 1 is empty, so it vanishes on save; days 0 and 2 come back dense
    assert back.n_days == 2
    np.testing.assert_array_equal(back.days[0], series.days[0])
    np.testing.assert_array_equal(back.days[1], series.days[2])


def test_events_header_is_mandatory(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,day\n0,1.5\n")
    with pytest.raises(ValueError, match=r"line 1: expected header 'day,seconds'"):
        load_events(path)


def test_events_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_events(path)


def test_events_header_only(tmp_path):
    path = tmp_path / "only.csv"
    path.write_text("day,seconds\n")
    with pytest.raises(ValueError, match="no event rows"):
        load_events(path)


def test_events_bad_rows_report_line_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("day,seconds\n0,100.0\n0,abc\n")
    with pytest.raises(ValueError, match="line 3"):
        load_events(path)
    path.write_text("day,seconds\n0,100.0,extra\n")
    with pytest.raises(ValueError, match="line 2: expected 2 columns, got 3"):
        load_events(path)
    path.write_text("day,seconds\n0,90000.0\n")
    with pytest.raises(ValueError, match=r"line 2: seconds 90000.0 outside"):
        load_events(path)


def test_events_blank_lines_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("day,seconds\n0,10.0\n\n0,20.0\n")
    series = load_events(path)
    np.testing.assert_array_equal(series.days[0], [10.0, 20.0])


def test_events_day_ids_mapped_in_sorted_order(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("day,seconds\n7,50.0\n3,10.0\n7,30.0\n")
    series = load_events(path)
    assert series.n_days == 2
    np.testing.assert_array_equal(series.days[0], [10.0])  # day 3 first
    np.testing.assert_array_equal(series.days[1], [30.0, 50.0])


# --- geo CSV ------------------------------------------------------------------

def test_geo_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    geo = GeoEventSeries(
        day=np.array([0, 0, 1]),
        seconds=rng.uniform(0.0, 86400.0, size=3),
        lon=np.array([1.0, 2.5, -3.25]),
        lat=np.array([0.5, -1.75, 4.0]),
    )
    path = tmp_path / "geo.csv"
    save_geo_events(geo, path)
    back = load_geo_events(path)
    np.testing.assert_array_equal(back.day, geo.day)
    np.testing.assert_array_equal(back.seconds, geo.seconds)
    np.testing.assert_array_equal(back.lon, geo.lon)
    np.testing.assert_array_equal(back.lat, geo.lat)


def test_geo_header_checked(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text("day,seconds\n0,5.0\n")
    with pytest.raises(ValueError, match="expected header 'day,seconds,lon,lat'"):
        load_geo_events(path)


# --- model JSON ---------------------------------------------------------------

def make_model():
    part = Partition(window=W, knots=(21600.0, 64800.0))
    coef = np.array([[7.0, 1.5], [20.0, -0.25], [3.0, 0.125]])
    return RateModel(partition=part, coefficients=coef, clamp=True)


def test_model_round_trip_is_exact(tmp_path):
    model = make_model()
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.partition.knots == model.partition.knots
    assert back.clamp is True
    ts = np.linspace(0.0, 86400.0, 10000)
    np.testing.assert_allclose(back.evaluate(ts), model.evaluate(ts), rtol=0, atol=1e-12)


def test_model_file_is_plain_json(tmp_path):
    path = tmp_path / "model.json"
    save_model(make_model(), path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"window", "knots", "degree", "coefficients", "clamp"}
    assert payload["degree"] == 1
    assert len(payload["coefficients"]) == 3


def test_model_resolution_round_trips(tmp_path):
    path = tmp_path / "model.json"
    save_model(replace(make_model(), resolution=60.0), path)
    assert json.loads(path.read_text())["resolution"] == 60.0
    assert load_model(path).resolution == 60.0


def test_model_file_without_resolution_still_loads(tmp_path):
    # files written before the field existed carry no resolution
    path = tmp_path / "model.json"
    save_model(make_model(), path)
    assert "resolution" not in json.loads(path.read_text())
    assert load_model(path).resolution is None


@pytest.mark.parametrize("value", [0, -60.0, "60", True])
def test_model_bad_resolution_named(tmp_path, value):
    path = tmp_path / "model.json"
    save_model(make_model(), path)
    payload = json.loads(path.read_text())
    payload["resolution"] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="field 'resolution' must be a positive number"):
        load_model(path)


@pytest.mark.parametrize("field", ["window", "knots", "degree", "coefficients", "clamp"])
def test_model_missing_field_named(tmp_path, field):
    path = tmp_path / "model.json"
    save_model(make_model(), path)
    payload = json.loads(path.read_text())
    del payload[field]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        load_model(path)


def test_model_schema_violations(tmp_path):
    path = tmp_path / "model.json"

    def dump(mutate):
        save_model(make_model(), path)
        payload = json.loads(path.read_text())
        mutate(payload)
        path.write_text(json.dumps(payload))

    dump(lambda p: p.update(window=[0, 86400]))
    with pytest.raises(ValueError, match="'window' must carry 'start' and 'end'"):
        load_model(path)

    dump(lambda p: p.update(degree=-2))
    with pytest.raises(ValueError, match="'degree' must be a nonnegative integer"):
        load_model(path)

    dump(lambda p: p.update(coefficients=p["coefficients"][:2]))
    with pytest.raises(ValueError, match=r"has 2 rows, need one per bin \(3\)"):
        load_model(path)

    dump(lambda p: p["coefficients"][1].append(0.0))
    with pytest.raises(ValueError, match=r"row 1 has length 3, expected degree\+1 = 2"):
        load_model(path)

    dump(lambda p: p.update(clamp="yes"))
    with pytest.raises(ValueError, match="'clamp' must be a boolean"):
        load_model(path)

    dump(lambda p: p.update(knots=[64800.0, 21600.0]))
    with pytest.raises(ValueError, match="field 'knots'"):
        load_model(path)
