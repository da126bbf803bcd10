"""CSV event files and JSON model files.

Event files carry a ``day,seconds`` header (``day,seconds,lon,lat`` for the
geographic variant); day identifiers are mapped to dense indices in sorted
order on load.  Model files serialize the partition, per-bin scaled
coefficients and the cell resolution the rates are counted in; floats
round-trip exactly through JSON.  A model file without ``resolution`` (one
written before the field existed) loads with the resolution unknown.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .core import EventSeries, Partition, RateModel, TimeWindow
from .spatial import GeoEventSeries

EVENT_HEADER = ["day", "seconds"]
GEO_HEADER = ["day", "seconds", "lon", "lat"]


def _read_rows(path: str | Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty file")
    got = [c.strip() for c in rows[0]]
    if got != header:
        raise ValueError(f"{path}: line 1: expected header {','.join(header)!r}, got {','.join(got)!r}")
    return rows[1:]


def _parse_event_rows(
    rows: list[list[str]], n_cols: int, window: TimeWindow, path: str | Path
) -> list[tuple]:
    parsed = []
    for i, row in enumerate(rows, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != n_cols:
            raise ValueError(f"{path}: line {i}: expected {n_cols} columns, got {len(row)}")
        try:
            day = int(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}: line {i}: {exc}") from None
        seconds = values[0]
        if not (window.start <= seconds < window.end):
            raise ValueError(
                f"{path}: line {i}: seconds {seconds} outside [{window.start}, {window.end})"
            )
        parsed.append((day, *values))
    return parsed


def load_events(path: str | Path, window: TimeWindow | None = None) -> EventSeries:
    """Read a ``day,seconds`` CSV into per-day sorted arrival arrays."""
    window = window or TimeWindow(0.0, 86400.0)
    rows = _parse_event_rows(_read_rows(path, EVENT_HEADER), 2, window, path)
    if not rows:
        raise ValueError(f"{path}: no event rows")
    days = sorted({r[0] for r in rows})
    index = {d: i for i, d in enumerate(days)}
    buckets: list[list[float]] = [[] for _ in days]
    for day, seconds in rows:
        buckets[index[day]].append(seconds)
    return EventSeries(window=window, days=tuple(np.sort(np.asarray(b)) for b in buckets))


def save_events(series: EventSeries, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_HEADER)
        for day, arr in enumerate(series.days):
            for t in arr:
                writer.writerow([day, repr(float(t))])


def load_geo_events(path: str | Path, window: TimeWindow | None = None) -> GeoEventSeries:
    """Read a ``day,seconds,lon,lat`` CSV."""
    window = window or TimeWindow(0.0, 86400.0)
    rows = _parse_event_rows(_read_rows(path, GEO_HEADER), 4, window, path)
    if not rows:
        raise ValueError(f"{path}: no event rows")
    arr = np.asarray(rows, dtype=float)
    return GeoEventSeries(
        day=arr[:, 0].astype(int), seconds=arr[:, 1], lon=arr[:, 2], lat=arr[:, 3], window=window
    )


def save_geo_events(geo: GeoEventSeries, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GEO_HEADER)
        for day, sec, lon, lat in zip(geo.day, geo.seconds, geo.lon, geo.lat):
            writer.writerow([int(day), repr(float(sec)), repr(float(lon)), repr(float(lat))])


def save_model(model: RateModel, path: str | Path) -> None:
    """Serialize a rate model; coefficients are bin-local [-1, 1] ascending powers.

    ``resolution`` is written when the model knows it.
    """
    payload = {
        "window": {"start": model.partition.window.start, "end": model.partition.window.end},
        "knots": list(model.partition.knots),
        "degree": model.degree,
        "coefficients": [list(row) for row in model.coefficients],
        "clamp": bool(model.clamp),
    }
    if model.resolution is not None:
        payload["resolution"] = float(model.resolution)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_model(path: str | Path) -> RateModel:
    with open(path) as fh:
        payload = json.load(fh)
    for key in ("window", "knots", "degree", "coefficients", "clamp"):
        if key not in payload:
            raise ValueError(f"{path}: model file missing field '{key}'")
    win = payload["window"]
    if not isinstance(win, dict) or "start" not in win or "end" not in win:
        raise ValueError(f"{path}: field 'window' must carry 'start' and 'end'")
    try:
        window = TimeWindow(float(win["start"]), float(win["end"]))
    except ValueError as exc:
        raise ValueError(f"{path}: field 'window': {exc}") from None
    try:
        partition = Partition(window=window, knots=tuple(payload["knots"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: field 'knots': {exc}") from None
    degree = payload["degree"]
    if not isinstance(degree, int) or degree < 0:
        raise ValueError(f"{path}: field 'degree' must be a nonnegative integer")
    coeffs = payload["coefficients"]
    if len(coeffs) != partition.n_bins:
        raise ValueError(
            f"{path}: field 'coefficients' has {len(coeffs)} rows, need one per bin ({partition.n_bins})"
        )
    for k, row in enumerate(coeffs):
        if len(row) != degree + 1:
            raise ValueError(
                f"{path}: field 'coefficients' row {k} has length {len(row)}, expected degree+1 = {degree + 1}"
            )
    clamp = payload["clamp"]
    if not isinstance(clamp, bool):
        raise ValueError(f"{path}: field 'clamp' must be a boolean")
    resolution = payload.get("resolution")
    if resolution is not None and (
        isinstance(resolution, bool)
        or not isinstance(resolution, (int, float))
        or not (math.isfinite(resolution) and resolution > 0)
    ):
        raise ValueError(f"{path}: field 'resolution' must be a positive number of seconds")
    return RateModel(
        partition=partition, coefficients=np.asarray(coeffs, dtype=float), clamp=clamp,
        resolution=None if resolution is None else float(resolution),
    )
