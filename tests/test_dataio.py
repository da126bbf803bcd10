"""CSV and JSON round trips plus malformed-input diagnostics."""

from __future__ import annotations

import csv
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    save_model,
)
from nhpplearn import dataio
from nhpplearn.dataio import EVENT_HEADER, GEO_HEADER, _parse_event_rows, _read_rows
from oracles import save_geo_events

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


def test_row_errors_name_the_line_a_record_starts_on(tmp_path):
    # a quoted field spanning two lines makes three records of four lines
    path = tmp_path / "rows.csv"
    path.write_text('day,seconds\n0,"1\n"\n0,abc\n')
    with pytest.raises(ValueError, match=rf"{path}: line 4: could not convert string to float: 'abc'"):
        load_events(path)


def test_field_over_the_size_limit_names_file_and_line(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("day,seconds\n0,1.0\n0," + "0" * 140_000 + "1.5\n")
    with pytest.raises(ValueError, match=rf"{path}: line 3: field larger than field limit"):
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


# tiny blocks cut files between every few lines, or at every line end
BLOCK_SIZES = [1, 7, 64, dataio._BLOCK_BYTES]


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("extra", [b"", b" \t"], ids=["bulk", "rows"])
def test_events_not_utf8_named_with_line(tmp_path, monkeypatch, eol, extra):
    # a whitespace-only line sends the file to the row parser; the line
    # named is the same either way, and the same at every block size
    path = tmp_path / "bad.csv"
    # a row error on line 2 does not hide a UTF-8 error in a later block
    late = tmp_path / "late.csv"
    late.write_bytes(eol.join([b"day,seconds", b"0,abc", extra, b"0,1.0", b"0,2\xe9.0", b""]))
    geo = tmp_path / "bad_geo.csv"
    geo.write_bytes(eol.join([b"day,seconds,lon,lat", b"0,1.0,\xff,2.0", b""]))
    for block in BLOCK_SIZES:
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", block)
        path.write_bytes(eol.join([b"day,seconds", b"0,10.0", extra, b"0,2\xe9.0", b""]))
        at = path.read_bytes().index(0xE9)
        with pytest.raises(ValueError, match=rf"{path}: line 4: not UTF-8 text \(byte 0xe9 at offset {at}\)"):
            load_events(path)
        with pytest.raises(ValueError, match=rf"{late}: line 5: not UTF-8 text \(byte 0xe9"):
            load_events(late)
        with pytest.raises(ValueError, match=rf"{geo}: line 2: not UTF-8 text"):
            load_geo_events(geo)


@pytest.mark.parametrize("body, want", [
    ("0,10.0\n \n0,20.0\n", [[10.0, 20.0]]),  # whitespace-only line
    ("0,1_000\n", [[1000.0]]),  # digit grouping
    ("0,١٢.5\n", [[12.5]]),  # Arabic-Indic digits
    ("73786976294838206464,5.0\n1,6.0\n", [[6.0], [5.0]]),  # day id 2**66
    ("0,7.0\x1c\n", None),  # Python refuses an information separator in ASCII text
])
def test_inputs_numpy_refuses_keep_their_fate(tmp_path, body, want):
    path = tmp_path / "odd.csv"
    path.write_text("day,seconds\n" + body, encoding="utf-8")
    if want is None:
        with pytest.raises(ValueError, match="line 2: could not convert"):
            load_events(path)
        return
    series = load_events(path)
    assert [arr.tolist() for arr in series.days] == want


def test_plain_files_skip_the_row_parser(tmp_path, monkeypatch):
    rng = np.random.default_rng(1)
    series = EventSeries(W, tuple(rng.uniform(0.0, 86400.0, size=n) for n in (4000, 0, 5000)))
    path = tmp_path / "events.csv"
    save_events(series, path)
    assert path.stat().st_size > csv.field_size_limit()  # many blocks, and over the field limit in all
    geo = tmp_path / "geo.csv"
    save_geo_events(GeoEventSeries(day=[0, 1], seconds=[1.0, 2.0], lon=[0.0, 1.0], lat=[2.0, 3.0]), geo)

    def refuse(*args):
        raise AssertionError("row parser used")

    monkeypatch.setattr(dataio, "_parse_event_rows", refuse)
    assert load_events(path).total_events == 9000
    assert load_geo_events(geo).day.size == 2
    # blocks of only the header or only blank lines are skipped, not sent to the row parser
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", 7)
    path.write_text("day,seconds\n0,1.0\n" + "\n" * 20 + "0,2.0\n")
    assert load_events(path).total_events == 2


def test_load_events_peak_memory_is_bounded_per_row(tmp_path):
    # the parsed day and seconds columns take 16 bytes a row and the day
    # arrays 8; grouping a file whose days are in order copies neither column
    rng = np.random.default_rng(2)
    series = EventSeries(W, tuple(np.sort(rng.uniform(0.0, 86400.0, size=5000)) for _ in range(8)))
    path = tmp_path / "events.csv"
    save_events(series, path)
    load_events(path)  # numpy's first-call set-up is not the loader's
    tracemalloc.start()
    try:
        back = load_events(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.total_events == 40_000
    assert peak / back.total_events < 32


@pytest.mark.parametrize("n_days", [8, 40])
def test_load_events_holds_one_column_and_a_block(tmp_path, n_days):
    # the file is read a block at a time and only the seconds column is kept,
    # so past the 8 bytes a row of the day arrays the peak does not grow with the file
    rng = np.random.default_rng(3)
    series = EventSeries(W, tuple(np.sort(rng.uniform(0.0, 86400.0, size=5000)) for _ in range(n_days)))
    path = tmp_path / "events.csv"
    save_events(series, path)
    load_events(path)
    tracemalloc.start()
    try:
        back = load_events(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.total_events == 5000 * n_days
    assert peak - 8 * back.total_events < 2**20


# --- bulk parse against the row parser --------------------------------------------

def load_events_by_rows(path, window):
    """load_events as it was before the bulk parse: the oracle."""
    rows = _parse_event_rows(_read_rows(path, EVENT_HEADER), 2, window, path)
    if not rows:
        raise ValueError(f"{path}: no event rows")
    days = sorted({r[0] for r in rows})
    index = {d: i for i, d in enumerate(days)}
    buckets = [[] for _ in days]
    for day, seconds in rows:
        buckets[index[day]].append(seconds)
    return EventSeries(window=window, days=tuple(np.sort(np.asarray(b)) for b in buckets))


def load_geo_events_by_rows(path, window):
    """load_geo_events as it was before the bulk parse: the oracle."""
    rows = _parse_event_rows(_read_rows(path, GEO_HEADER), 4, window, path)
    if not rows:
        raise ValueError(f"{path}: no event rows")
    for day, *_ in rows:
        if abs(day) > 2**53:
            raise ValueError(f"{path}: day id {day} is beyond ±2**53")
    arr = np.asarray(rows, dtype=float)
    return GeoEventSeries(
        day=arr[:, 0].astype(int), seconds=arr[:, 1], lon=arr[:, 2], lat=arr[:, 3], window=window
    )


WINDOWS = [W, TimeWindow(100.0, 200.0), TimeWindow(0.5, 1000.25)]
DAY_IDS = [0, 1, 2, 7, 42, -3, 10**6, 2**63 - 1, -(2**63)]
HUGE_DAY_IDS = [2**63, 10**20]
ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

# Each file draws one flaw level: "clean" files stay inside what numpy reads,
# "odd" ones add inputs only Python's int/float accept, "messy" ones add
# errors anywhere, and "one-flaw" files are clean but for one line.
SPELLINGS = {
    "clean": ["plain"] * 8 + ["pad", "tab", "quote", "quote-pad", "plus", "zeros", "nbsp"],
    "odd": ["under", "arabic"],
    "messy": ["separator", "nul", "float-of-int"],
}
ROW_KINDS = {"clean": ["row"] * 12 + ["blank"], "odd": ["space"], "messy": ["extra", "short", "garbage"]}
LEVELS = ["clean", "odd", "messy"]


def pool(table, level):
    return [x for lv in LEVELS[: LEVELS.index(level) + 1] for x in table[lv]]


def spell(draw, text, level):
    """One way a CSV writer (or a person) might spell a number token."""
    style = draw(st.sampled_from(pool(SPELLINGS, level)))
    if style in ("plus", "zeros") and text.startswith("-") or style == "under" and not text[:2].isdigit():
        style = "plain"
    return {
        "pad": f" {text} ",
        "tab": f"\t{text}",
        "quote": f'"{text}"',
        "quote-pad": f'"{text}" ',
        "plus": f"+{text}",
        "zeros": f"00{text}",
        "nbsp": f"{text}\xa0",
        "under": f"{text[:1]}_{text[1:]}",
        "arabic": text.translate(ARABIC),
        "separator": f"{text}\x1e",
        "nul": f"{text}\x00",
        "float-of-int": f"{text}.0",
    }.get(style, text)


def seconds_text(draw, window, level):
    lo, hi = window.start, window.end
    inside = [lo, float(np.nextafter(lo, hi)), float(np.nextafter(hi, lo))] + ([-0.0, 5e-324] if lo == 0 else [])
    outside = [float(np.nextafter(lo, -1.0)), hi]
    value = draw(st.one_of(
        st.sampled_from(inside if level == "clean" else inside + outside),
        st.floats(lo, hi, exclude_max=True),
    ))
    exact = [repr(value), f"{value:.17g}", f"{value:.17E}"]
    text = draw(st.sampled_from(exact if level == "clean" else exact + [f"{value:e}", f"{value:.3f}"]))
    if level == "messy":
        text = draw(st.sampled_from([text] * 12 + ["inf", "-inf", "nan", "Infinity", "1e999", "abc", ""]))
    return spell(draw, text, level)


def coordinate_text(draw, level):
    value = draw(st.floats(-1e3, 1e3))
    text = repr(value)
    if level == "messy":
        text = draw(st.sampled_from([text] * 12 + ["nan", "-inf", "INF", "x"]))
    return spell(draw, text, level)


def event_line(draw, days, window, geo, level):
    kind = draw(st.sampled_from(pool(ROW_KINDS, level)))
    if kind in ("blank", "garbage"):
        return {"blank": "", "garbage": "abc"}[kind]
    if kind == "space":
        return draw(st.sampled_from([" ", "\t", " \t "]))
    fields = [spell(draw, str(draw(st.sampled_from(days))), level), seconds_text(draw, window, level)]
    if geo:
        fields += [coordinate_text(draw, level), coordinate_text(draw, level)]
    if kind == "extra":
        fields.append("1")
    elif kind == "short":
        fields.pop()
    return ",".join(fields)


@st.composite
def event_csv(draw, geo=False):
    """CSV text in the event format: clean, odd but valid, or flawed."""
    level = draw(st.sampled_from(["clean", "clean", "odd", "messy", "one-flaw", "one-flaw"]))
    row_level = "clean" if level == "one-flaw" else level
    header = GEO_HEADER if geo else EVENT_HEADER
    window = draw(st.sampled_from(WINDOWS))
    eol = draw(st.sampled_from(["\r\n", "\n", "\r"]))
    heads = [",".join(header)] * 6 + [", ".join(header), ",".join(f'"{h}"' for h in header)]
    lines = [draw(st.sampled_from(heads + (["day,time"] if level == "messy" else [])))]
    ids = DAY_IDS + (HUGE_DAY_IDS if level in ("odd", "messy") else [])
    days = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))
    for _ in range(draw(st.integers(0 if level == "messy" else 1, 25))):
        lines.append(event_line(draw, days, window, geo, row_level))
    if level == "one-flaw":
        flawed = draw(st.sampled_from(["odd", "messy"]))
        where = draw(st.integers(1, len(lines)))
        bad_days = days + draw(st.sampled_from([[], HUGE_DAY_IDS]))
        lines.insert(where, event_line(draw, bad_days, window, geo, flawed))
    # mixed line ends, and the last one is optional
    ends = [draw(st.sampled_from([eol] * 8 + ["\r\n", "\n", "\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from([eol, ""]))
    return "".join(line + end for line, end in zip(lines, ends)), window


def outcome(load, path, window):
    try:
        return load(path, window)
    except Exception as exc:  # the oracle and the loader must fail alike
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    """The same exception and message, or bit-identical arrays."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is type(want), got
    if isinstance(want, EventSeries):
        assert got.window == want.window and got.n_days == want.n_days
        pairs = zip(got.days, want.days)
    else:
        pairs = ((getattr(got, name), getattr(want, name)) for name in ("day", "seconds", "lon", "lat"))
    for a, b in pairs:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(case=event_csv(), block=st.sampled_from(BLOCK_SIZES))
# days in order, as save_events writes them; in reverse; and interleaved, with
# -0.0 and 0.0 tied within a day
@example(case=("day,seconds\n0,5.0\n0,1.0\n1,3.0\n2,2.0\n2,0.5\n", W), block=dataio._BLOCK_BYTES)
@example(case=("day,seconds\n2,5.0\n2,1.0\n1,3.0\n0,2.0\n0,0.5\n", W), block=dataio._BLOCK_BYTES)
@example(case=("day,seconds\n1,0.0\n0,-0.0\n1,-0.0\n0,0.0\n1,7.5\n0,-0.0\n", W), block=dataio._BLOCK_BYTES)
# days that span blocks, with \r\n line ends; lone \r line ends, which make one block
@example(case=("day,seconds\r\n0,5.0\r\n0,1.0\r\n0,-0.0\r\n1,3.0\r\n1,0.0\r\n2,2.0\r\n", W), block=7)
@example(case=("day,seconds\r1,0.0\r0,-0.0\r1,-0.0\r0,0.0\r1,7.5\r0,-0.0\r", W), block=7)
# blocks of only blank lines, after rows and after the header
@example(case=("day,seconds\n0,1.0\n" + "\n" * 20 + "0,2.0\n\r\n\r\n", W), block=7)
@example(case=("day,seconds\r\n" + "\r\n" * 70 + "0,2.0", W), block=64)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_events_equals_row_parser(tmp_path, monkeypatch, case, block):
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", block)
    text, window = case
    path = tmp_path / "events.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_outcome(outcome(load_events, path, window), outcome(load_events_by_rows, path, window))


@given(case=event_csv(geo=True), block=st.sampled_from(BLOCK_SIZES))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_geo_events_equals_row_parser(tmp_path, monkeypatch, case, block):
    monkeypatch.setattr(dataio, "_BLOCK_BYTES", block)
    text, window = case
    path = tmp_path / "geo.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_same_outcome(outcome(load_geo_events, path, window), outcome(load_geo_events_by_rows, path, window))


@pytest.mark.parametrize("body", [
    "0," + "0" * 140_000 + "1.5\n",  # one field over csv's limit
    '0,"' + "\n" * 140_000 + '1.5"\n',  # a quoted field over the limit, on short lines
    "0,1.5\n" * 30_000,  # over the limit in total, every field short
    '0,"1.5"\n' * 30_000,
])
def test_field_size_limit_keeps_its_fate(tmp_path, body):
    path = tmp_path / "long.csv"
    path.write_text("day,seconds\n" + body)
    assert_same_outcome(outcome(load_events, path, W), outcome(load_events_by_rows, path, W))


# --- writers against csv.writer -------------------------------------------------

def save_events_by_rows(series, path):
    """save_events as it was, one csv.writer row per arrival: the oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_HEADER)
        for day, arr in enumerate(series.days):
            for t in arr:
                writer.writerow([day, repr(float(t))])


def save_geo_events_by_rows(geo, path):
    """save_geo_events as it was: the oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GEO_HEADER)
        for day, sec, lon, lat in zip(geo.day, geo.seconds, geo.lon, geo.lat):
            writer.writerow([int(day), repr(float(sec)), repr(float(lon)), repr(float(lat))])


SECONDS = st.one_of(
    st.floats(0.0, 86400.0, exclude_max=True),
    st.sampled_from([-0.0, 5e-324, 1e-7, 0.1, 1e16 / 1e12, 86399.99999999999]),
)


@given(days=st.lists(st.lists(SECONDS, max_size=20), max_size=5))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_save_events_writes_csv_writer_bytes(tmp_path, days):
    series = EventSeries(W, tuple(np.array(d, dtype=float) for d in days))
    save_events(series, tmp_path / "new.csv")
    save_events_by_rows(series, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@given(rows=st.lists(
    st.tuples(st.integers(-(2**63), 2**63 - 1), SECONDS, st.floats(allow_nan=False, allow_infinity=False),
              st.floats(allow_nan=False, allow_infinity=False)),
    max_size=20,
))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_save_geo_events_writes_csv_writer_bytes(tmp_path, rows):
    day, sec, lon, lat = (list(c) for c in zip(*rows)) if rows else ([], [], [], [])
    geo = GeoEventSeries(day=np.array(day, dtype=np.int64), seconds=sec, lon=lon, lat=lat)
    save_geo_events(geo, tmp_path / "new.csv")
    save_geo_events_by_rows(geo, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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


@pytest.mark.parametrize("extra", ["", " \n"], ids=["bulk", "rows"])
@pytest.mark.parametrize("day", [2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)])
def test_geo_day_ids_beyond_2_53_are_named(tmp_path, extra, day):
    # through float64 they would merge with a neighbour or wrap
    path = tmp_path / "geo.csv"
    path.write_text(f"day,seconds,lon,lat\n{extra}0,1.0,0.0,0.0\n{day},2.0,0.0,0.0\n")
    with pytest.raises(ValueError, match=rf"{path}: day id {day} is beyond ±2\*\*53"):
        load_geo_events(path)


@pytest.mark.parametrize("extra", ["", " \n"], ids=["bulk", "rows"])
def test_geo_day_ids_up_to_2_53_load_exactly(tmp_path, extra):
    path = tmp_path / "geo.csv"
    path.write_text(f"day,seconds,lon,lat\n{extra}{2**53},1.0,0.0,0.0\n{-(2**53)},2.0,0.0,0.0\n3,3.0,0.0,0.0\n")
    assert load_geo_events(path).day.tolist() == [2**53, -(2**53), 3]


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


@st.composite
def rate_models(draw):
    start = draw(st.floats(0.0, 80000.0))
    end = draw(st.floats(start + 1.0, 86400.0))
    inner = st.floats(start, end, exclude_min=True, exclude_max=True)
    knots = tuple(sorted(draw(st.lists(inner, max_size=6, unique=True))))
    degree = draw(st.integers(0, 4))
    value = st.floats(allow_nan=False, allow_infinity=False)
    coef = draw(st.lists(st.lists(value, min_size=degree + 1, max_size=degree + 1),
                         min_size=len(knots) + 1, max_size=len(knots) + 1))
    resolution = draw(st.one_of(st.none(), st.floats(1e-3, 86400.0)))
    return RateModel(Partition(TimeWindow(start, end), knots), np.array(coef),
                     clamp=draw(st.booleans()), resolution=resolution)


@given(model=rate_models())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_model_save_load_round_trips_exactly(tmp_path, model):
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.partition == model.partition
    assert back.coefficients.shape == model.coefficients.shape
    assert back.coefficients.tobytes() == model.coefficients.tobytes()  # signed zeros too
    assert back.clamp is model.clamp and back.resolution == model.resolution


def test_model_file_is_plain_json(tmp_path):
    path = tmp_path / "model.json"
    save_model(make_model(), path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"version", "window", "knots", "degree", "coefficients", "clamp"}
    assert payload["version"] == 1
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


def test_model_file_without_version_still_loads(tmp_path):
    # files written before the field existed are version 1
    path = tmp_path / "model.json"
    save_model(make_model(), path)
    payload = json.loads(path.read_text())
    del payload["version"]
    path.write_text(json.dumps(payload))
    back = load_model(path)
    assert back.partition == make_model().partition
    assert back.coefficients.tobytes() == make_model().coefficients.tobytes()


@pytest.mark.parametrize("version", [0, 2, "1", True, None])
def test_model_other_versions_rejected(tmp_path, version):
    path = tmp_path / "model.json"
    save_model(make_model(), path)
    payload = json.loads(path.read_text())
    payload["version"] = version
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"model.json: unsupported model version {version!r}"):
        load_model(path)


def test_model_file_must_hold_an_object(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="model.json: model file must hold a JSON object"):
        load_model(path)


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

    dump(lambda p: p.update(coefficients=5))
    with pytest.raises(ValueError, match="'coefficients' must be a list of rows, one per bin"):
        load_model(path)

    dump(lambda p: p["coefficients"].__setitem__(2, 0.5))
    with pytest.raises(ValueError, match="'coefficients' row 2 must be a list of numbers"):
        load_model(path)

    for key, bad in (("start", [0]), ("end", "86400"), ("start", None), ("end", True)):
        dump(lambda p: p["window"].__setitem__(key, bad))
        with pytest.raises(ValueError, match=re.escape(f"field 'window' {key} must be a number, got {bad!r}")):
            load_model(path)

    for bad in ("5", {"21600.0": 1}, 21600.0, None, [21600.0, "64800"], [True]):
        dump(lambda p: p.update(knots=bad))
        with pytest.raises(ValueError, match="field 'knots' must be a list of numbers"):
            load_model(path)

    for bad in (True, False, 1.0):
        dump(lambda p: p.update(degree=bad))
        with pytest.raises(ValueError, match="'degree' must be a nonnegative integer"):
            load_model(path)

    for bad, shown in (("x", "'x'"), (None, "None"), (True, "True"), (float("nan"), "nan"), (float("inf"), "inf")):
        dump(lambda p: p["coefficients"][1].__setitem__(0, bad))
        with pytest.raises(ValueError, match=f"'coefficients' row 1 holds {shown}, not a finite number"):
            load_model(path)
