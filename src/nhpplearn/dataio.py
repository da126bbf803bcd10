"""CSV event files and JSON model files.

Event files carry a ``day,seconds`` header (``day,seconds,lon,lat`` for the
geographic variant); day identifiers are mapped to dense indices in sorted
order on load.  Model files serialize the partition, per-bin scaled
coefficients and the cell resolution the rates are counted in; floats
round-trip exactly through JSON.  A model file carries a schema ``version``;
one without it (written before the field existed) is read as version 1.  A
model file without ``resolution`` loads with the resolution unknown.

An event file is read whole: one ``np.loadtxt`` call parses the body and the
window check runs on the whole array.  The row parser (``_read_rows`` plus
``_parse_event_rows``) stays, and runs whenever that bulk parse raises, finds
no rows or fails a check.  It is kept for three reasons:

* it alone words a row error, so messages still read ``path: line N: ...``;
* it accepts inputs that Python's ``int``/``float`` accept but numpy's
  stricter grammar refuses (whitespace-only lines, ``1_000``, non-ASCII
  digits, day ids beyond int64), so no file changes fate;
* it is the oracle the bulk path is tested against.

``load_events`` then groups the rows by day without ``np.unique``.  A file
whose day ids never decrease, as ``save_events`` writes them, is split where
the id changes, so the parsed columns are not copied; any other file is put
in day order by one stable ``argsort`` first.  Either way each day reaches
``np.sort`` in file order.

Writers produce ``csv.writer``'s bytes (``\\r\\n`` line ends; no field ever
needs quoting), one joined string per day instead of one call per row.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .core import EventSeries, Partition, RateModel, TimeWindow
from .spatial import GeoEventSeries

EVENT_HEADER = ["day", "seconds"]
GEO_HEADER = ["day", "seconds", "lon", "lat"]

# numpy strips these ASCII separators as whitespace around a number, while
# Python's int/float refuse them in an all-ASCII field.
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _read_rows(path: str | Path, header: list[str]) -> list[tuple[int, list[str]]]:
    """The records after the header, each with the line it starts on.

    A quoted field may span lines, so records and lines are counted apart.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        start = 1
        try:
            for row in reader:
                rows.append((start, row))
                start = reader.line_num + 1
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ValueError(f"{path}: line {start}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    got = [c.strip() for c in rows[0][1]]
    if got != header:
        raise ValueError(f"{path}: line 1: expected header {','.join(header)!r}, got {','.join(got)!r}")
    return rows[1:]


def _parse_event_rows(
    rows: list[tuple[int, list[str]]], n_cols: int, window: TimeWindow, path: str | Path
) -> list[tuple]:
    parsed = []
    for i, row in rows:
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


def _bulk_readable(path: str | Path) -> bool:
    """Check that the file is UTF-8, naming the line that is not.

    False when numpy might accept what the row parser refuses: an ASCII
    separator (numpy strips it as whitespace), or a field longer than csv's
    field size limit (numpy has none), possible only on a long line or
    inside quotes.
    """
    raw = Path(path).read_bytes()
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = raw[: exc.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ValueError(
                f"{path}: line {line}: not UTF-8 text (byte 0x{raw[exc.start]:02x} at offset {exc.start})"
            ) from None
    if any(sep in raw for sep in _SEPARATORS):
        return False
    limit = csv.field_size_limit()
    if len(raw) <= limit:
        return True
    if b'"' in raw:
        return False
    # a line over the limit spans a whole aligned block of limit // 2 bytes
    # with no \n in it (a lone \r only shortens lines)
    block = limit // 2
    return all(raw.find(b"\n", i, i + block) >= 0 for i in range(0, len(raw) - block + 1, block))


def _parse_bulk(path: str | Path, header: list[str], window: TimeWindow) -> np.ndarray | None:
    """All body rows as one structured array, or None to defer to the row parser."""
    dtype = [("day", np.int64)] + [(name, float) for name in header[1:]]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            first = next(csv.reader(fh), None)
            if first is None or [c.strip() for c in first] != header:
                return None
            with warnings.catch_warnings():
                # "input contained no data", and any numpy deprecation of a
                # lenient parse, send the file to the row parser
                warnings.simplefilter("error")
                body = np.loadtxt(
                    fh, delimiter=",", dtype=dtype, ndmin=1, comments=None, quotechar='"'
                )
    except (ValueError, OverflowError, csv.Error, Warning):
        return None
    seconds = body["seconds"]
    if not np.all((seconds >= window.start) & (seconds < window.end)):
        return None
    return body


def _read_events(
    path: str | Path, header: list[str], window: TimeWindow
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Day ids and float columns of an event CSV, rows in file order.

    Day ids are int64 from the bulk parse and Python ints (object dtype)
    from the row parser, which also takes ids beyond int64.
    """
    body = _parse_bulk(path, header, window) if _bulk_readable(path) else None
    if body is not None:
        return body["day"], [body[name] for name in header[1:]]
    rows = _parse_event_rows(_read_rows(path, header), len(header), window, path)
    if not rows:
        raise ValueError(f"{path}: no event rows")
    columns = list(zip(*rows))
    return np.array(columns[0], dtype=object), [np.asarray(c, dtype=float) for c in columns[1:]]


def load_events(path: str | Path, window: TimeWindow | None = None) -> EventSeries:
    """Read a ``day,seconds`` CSV into per-day sorted arrival arrays."""
    window = window or TimeWindow(0.0, 86400.0)
    day, (seconds,) = _read_events(path, EVENT_HEADER, window)
    # the sort is stable, so each day reaches np.sort in file order and ties
    # of -0.0 and 0.0 come out as sorting that day's rows in file order puts them
    if not np.all(day[1:] >= day[:-1]):
        order = np.argsort(day, kind="stable")
        day, seconds = day[order], seconds[order]
    bounds = np.flatnonzero(day[1:] != day[:-1]) + 1
    return EventSeries(window=window, days=tuple(np.sort(part) for part in np.split(seconds, bounds)))


def save_events(series: EventSeries, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(EVENT_HEADER) + "\r\n")
        for day, arr in enumerate(series.days):
            if arr.size:
                fh.write(f"{day}," + f"\r\n{day},".join(map(repr, arr.tolist())) + "\r\n")


def load_geo_events(path: str | Path, window: TimeWindow | None = None) -> GeoEventSeries:
    """Read a ``day,seconds,lon,lat`` CSV."""
    window = window or TimeWindow(0.0, 86400.0)
    day, (seconds, lon, lat) = _read_events(path, GEO_HEADER, window)
    # an id past ±2**53 has no exact float64, the type earlier versions read
    # ids through; reject it by name rather than load it another way
    beyond = (day > 2**53) | (day < -(2**53))
    if beyond.any():
        raise ValueError(f"{path}: day id {day[beyond.argmax()]} is beyond ±2**53")
    return GeoEventSeries(day=day.astype(int), seconds=seconds, lon=lon, lat=lat, window=window)


def save_geo_events(geo: GeoEventSeries, path: str | Path) -> None:
    rows = zip(geo.day.tolist(), geo.seconds.tolist(), geo.lon.tolist(), geo.lat.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(GEO_HEADER) + "\r\n")
        fh.write("".join([f"{day},{sec!r},{lon!r},{lat!r}\r\n" for day, sec, lon, lat in rows]))


MODEL_VERSION = 1  # schema version that save_model writes and load_model reads


def save_model(model: RateModel, path: str | Path) -> None:
    """Serialize a rate model; coefficients are bin-local [-1, 1] ascending powers.

    ``resolution`` is written when the model knows it.
    """
    payload = {
        "version": MODEL_VERSION,
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


def _is_number(value) -> bool:
    """Whether a JSON value is a number; json reads true and false as bools, which are ints."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_model(path: str | Path) -> RateModel:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: model file must hold a JSON object")
    version = payload.get("version", MODEL_VERSION)  # files from before the field are version 1
    if version != MODEL_VERSION or isinstance(version, bool):
        raise ValueError(f"{path}: unsupported model version {version!r}")
    for key in ("window", "knots", "degree", "coefficients", "clamp"):
        if key not in payload:
            raise ValueError(f"{path}: model file missing field '{key}'")
    win = payload["window"]
    if not isinstance(win, dict) or "start" not in win or "end" not in win:
        raise ValueError(f"{path}: field 'window' must carry 'start' and 'end'")
    for key in ("start", "end"):
        if not _is_number(win[key]):
            raise ValueError(f"{path}: field 'window' {key} must be a number, got {win[key]!r}")
    try:
        window = TimeWindow(float(win["start"]), float(win["end"]))
    except ValueError as exc:
        raise ValueError(f"{path}: field 'window': {exc}") from None
    knots = payload["knots"]
    if not (isinstance(knots, list) and all(map(_is_number, knots))):
        raise ValueError(f"{path}: field 'knots' must be a list of numbers")
    try:
        partition = Partition(window=window, knots=tuple(knots))
    except ValueError as exc:
        raise ValueError(f"{path}: field 'knots': {exc}") from None
    degree = payload["degree"]
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
        raise ValueError(f"{path}: field 'degree' must be a nonnegative integer")
    coeffs = payload["coefficients"]
    if not isinstance(coeffs, list):
        raise ValueError(f"{path}: field 'coefficients' must be a list of rows, one per bin")
    if len(coeffs) != partition.n_bins:
        raise ValueError(
            f"{path}: field 'coefficients' has {len(coeffs)} rows, need one per bin ({partition.n_bins})"
        )
    for k, row in enumerate(coeffs):
        if not isinstance(row, list):
            raise ValueError(f"{path}: field 'coefficients' row {k} must be a list of numbers")
        if len(row) != degree + 1:
            raise ValueError(
                f"{path}: field 'coefficients' row {k} has length {len(row)}, expected degree+1 = {degree + 1}"
            )
        for v in row:
            # json reads NaN and Infinity as floats; a model never holds them
            if not (_is_number(v) and math.isfinite(v)):
                raise ValueError(f"{path}: field 'coefficients' row {k} holds {v!r}, not a finite number")
    clamp = payload["clamp"]
    if not isinstance(clamp, bool):
        raise ValueError(f"{path}: field 'clamp' must be a boolean")
    resolution = payload.get("resolution")
    if resolution is not None and not (_is_number(resolution) and math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"{path}: field 'resolution' must be a positive number of seconds")
    return RateModel(
        partition=partition, coefficients=np.asarray(coeffs, dtype=float), clamp=clamp,
        resolution=None if resolution is None else float(resolution),
    )
