"""CSV event files and JSON model files.

Event files carry a ``day,seconds`` header (``day,seconds,lon,lat`` for the
geographic variant); day identifiers are mapped to dense indices in sorted
order on load.  Model files serialize the partition, per-bin scaled
coefficients and the cell resolution the rates are counted in; floats
round-trip exactly through JSON.  A model file carries a schema ``version``;
one without it (written before the field existed) is read as version 1.  A
model file without ``resolution`` loads with the resolution unknown.

An event file is read once, in blocks of whole lines (``_read_events``).
Each block is checked (UTF-8, naming the line that is not; no quote or
ASCII separator; no longer than csv's field limit), parsed by one
``np.loadtxt`` call, and its seconds checked against the window.
``load_events`` hands each block's rows to their day in file order, with a
stable sort only in a block whose ids decrease, then joins and sorts each
day; so it holds the day arrays' 8 bytes a row plus one block, never the
whole file.  Anything the blocks do not take (a parse error, a quote, a
whitespace-only line, ``1_000``, non-ASCII digits, day ids beyond int64, a
row outside the window, no rows) sends the whole file to the row parser
(``_read_rows`` plus ``_parse_event_rows``), once every block is known to
be UTF-8, so a UTF-8 error anywhere still comes first.  The row parser
alone words a row error (``path: line N: ...``), accepts all that Python's
``int``/``float`` accept, so no file changes fate, and is the oracle the
blocks are tested against.

The event writer produces ``csv.writer``'s bytes (``\\r\\n`` line ends; no
field ever needs quoting), one joined string per day instead of one call per
row.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from .core import EventSeries, Partition, RateModel, TimeWindow, is_number
from .spatial import GeoEventSeries

EVENT_HEADER = ["day", "seconds"]
GEO_HEADER = ["day", "seconds", "lon", "lat"]

# bytes read at a time, then up to the next \n: on a 30-day file, 64 KiB
# loaded as fast as 32 KiB and faster than 16 KiB, for 0.7 MiB of working memory
_BLOCK_BYTES = 1 << 16


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


def _read_events(
    path: str | Path, header: list[str], window: TimeWindow, restart: Callable[[], None]
) -> Iterator[np.ndarray]:
    """The body rows of an event CSV as structured arrays, a block at a time, in file order.

    Day ids are int64; a block of blank lines gives no array.  A block that
    fails a check sends the whole file to the row parser once every block is
    known to be UTF-8: ``restart()`` is called, so the caller drops the
    blocks it was given, and the row parser's rows follow as one block whose
    day ids are Python ints (object dtype), which also takes ids beyond int64.
    """
    floats = [(name, float) for name in header[1:]]
    bulk, n_rows, offset = True, 0, 0
    with open(path, "rb") as fh:
        while chunk := fh.read(_BLOCK_BYTES):
            block = chunk + fh.readline()  # whole lines; a file with lone \r ends may be one block
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = Path(path).read_bytes()[: offset + exc.start]  # lines are counted only to name one
                line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
                raise ValueError(
                    f"{path}: line {line}: not UTF-8 text (byte 0x{block[exc.start]:02x} at offset {len(head)})"
                ) from None
            if not offset:
                first = text.partition("\n")[0].partition("\r")[0]
                bulk = [c.strip() for c in first.split(",")] == header
                text = text[len(first):]
            offset += len(block)
            # The row parser takes a block longer than csv's field limit (its
            # fields may be over it), one with a quote (a quoted field may span
            # blocks) and one with an ASCII separator (numpy strips it as
            # whitespace, while Python's int/float refuse it in ASCII text).
            bulk = bulk and len(block) <= csv.field_size_limit() and not any(c in block for c in b'"\x1c\x1d\x1e\x1f')
            if not bulk or text.isspace():
                continue
            try:
                with warnings.catch_warnings():
                    # any numpy deprecation of a lenient parse sends the file to the row parser
                    warnings.simplefilter("error")
                    # split at \n, or at \r if there is no \n; numpy reads a \r
                    # that ends a line as its end and refuses one inside it
                    lines = text.split("\n" if b"\n" in block else "\r")
                    rows = np.loadtxt(lines, delimiter=",", dtype=[("day", np.int64)] + floats, ndmin=1, comments=None)
            except (ValueError, OverflowError, Warning):
                bulk = False
                continue
            # NaN fails both comparisons
            bulk = window.start <= rows["seconds"].min() and rows["seconds"].max() < window.end
            if bulk:
                n_rows += rows.size
                yield rows
    if not (bulk and n_rows):
        restart()
        rows = _parse_event_rows(_read_rows(path, header), len(header), window, path)
        if not rows:
            raise ValueError(f"{path}: no event rows")
        yield np.array(rows, dtype=[("day", object)] + floats)


def load_events(path: str | Path, window: TimeWindow | None = None) -> EventSeries:
    """Read a ``day,seconds`` CSV into per-day sorted arrival arrays."""
    window = window or TimeWindow(0.0, 86400.0)
    parts: dict[int, list[np.ndarray]] = {}  # day id -> its arrivals, in file order
    for rows in _read_events(path, EVENT_HEADER, window, parts.clear):
        day, seconds = rows["day"], rows["seconds"]
        if not np.all(day[1:] >= day[:-1]):  # a stable sort keeps each day in file order
            order = np.argsort(day, kind="stable")
            day, seconds = day[order], seconds[order]
        bounds = (np.flatnonzero(day[1:] != day[:-1]) + 1).tolist()
        for d, a, b in zip(day[[0, *bounds]].tolist(), [0, *bounds], [*bounds, day.size]):
            parts.setdefault(d, []).append(seconds[a:b].copy())  # a copy frees the block
    # each day reaches np.sort in file order, so ties of -0.0 and 0.0 come out
    # as sorting that day's rows in file order puts them
    return EventSeries(window=window, days=tuple(np.sort(np.concatenate(parts.pop(d))) for d in sorted(parts)))


def check_storable(series: EventSeries, name: str) -> None:
    """Refuse a series with a day of no arrivals, naming the day.

    A day exists in an event file only through its rows, so ``save_events``
    writes none for an empty day and the file reads back without it.
    """
    for day, arr in enumerate(series.days):
        if not arr.size:
            raise ValueError(f"{name} day {day} has no arrivals, and an event file cannot hold an empty day")


def save_events(series: EventSeries, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(EVENT_HEADER) + "\r\n")
        for day, arr in enumerate(series.days):
            if arr.size:
                fh.write(f"{day}," + f"\r\n{day},".join(map(repr, arr.tolist())) + "\r\n")


def load_geo_events(path: str | Path, window: TimeWindow | None = None) -> GeoEventSeries:
    """Read a ``day,seconds,lon,lat`` CSV."""
    window = window or TimeWindow(0.0, 86400.0)
    blocks: list[np.ndarray] = []
    for rows in _read_events(path, GEO_HEADER, window, blocks.clear):
        blocks.append(rows)
    body = np.concatenate(blocks)
    day = body["day"]
    # an id past ±2**53 has no exact float64, the type earlier versions read
    # ids through; reject it by name rather than load it another way
    beyond = (day > 2**53) | (day < -(2**53))
    if beyond.any():
        raise ValueError(f"{path}: day id {day[beyond.argmax()]} is beyond ±2**53")
    return GeoEventSeries(
        day=day.astype(int), seconds=body["seconds"], lon=body["lon"], lat=body["lat"], window=window
    )


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


def load_json(path: str | Path):
    """The payload of a JSON file; one that does not parse is refused with its path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # json.JSONDecodeError, or UnicodeDecodeError
        raise ValueError(f"{path}: invalid JSON: {exc}") from None


def load_model(path: str | Path) -> RateModel:
    payload = load_json(path)
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
        if not is_number(win[key]):
            raise ValueError(f"{path}: field 'window' {key} must be a number, got {win[key]!r}")
    try:
        window = TimeWindow(float(win["start"]), float(win["end"]))
    except ValueError as exc:
        raise ValueError(f"{path}: field 'window': {exc}") from None
    knots = payload["knots"]
    if not (isinstance(knots, list) and all(map(is_number, knots))):
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
            if not (is_number(v) and math.isfinite(v)):
                raise ValueError(f"{path}: field 'coefficients' row {k} holds {v!r}, not a finite number")
    clamp = payload["clamp"]
    if not isinstance(clamp, bool):
        raise ValueError(f"{path}: field 'clamp' must be a boolean")
    resolution = payload.get("resolution")
    if resolution is not None and not (is_number(resolution) and math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"{path}: field 'resolution' must be a positive number of seconds")
    return RateModel(
        partition=partition, coefficients=np.asarray(coeffs, dtype=float), clamp=clamp,
        resolution=None if resolution is None else float(resolution),
    )
