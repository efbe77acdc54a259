"""Point parsing and movement extraction."""

import csv
import io
import json
import math
import random
import re
import tracemalloc
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdemap import (ConfigError, DEFAULT_AOI, ExtractSettings, MovementBatch,
                    ParseResult, ParseSettings, PointParseError,
                    extract_movements, ingest, parse_points)
from mdemap.ingest import _floats_at, _timestamps, _utc_seconds
from mdemap.io import write_points_csv
from mdemap.mesh import inverse_project, LocalCoord, project_arrays

from _oracles import (_build_point, _build_rows, _parse_timestamp,
                      direction_of)
from conftest import fixes, points_of, same_batch

CSV_HEADER = "user_id,timestamp,lat,lon\n"


def _direction(aoi, points):
    """The one vector's theta from two fixes, and the oracle's angle of the
    displacement between their projections."""
    batch, _ = extract_movements(points, aoi,
                                 ExtractSettings(min_displacement=0.0))
    x, y = project_arrays(points.lat, points.lon, aoi)
    (theta,) = batch.theta.tolist()
    return theta, direction_of(x[1] - x[0], y[1] - y[0])


def _step(lat, lon, dlat=0.0, dlon=0.0):
    """Two fixes of one user a minute apart, the second moved by dlat/dlon."""
    return points_of([("u", 0.0, lat, lon), ("u", 60.0, lat + dlat,
                                              lon + dlon)])


def test_direction_of_cardinals(small_aoi):
    # one coordinate changes, so the other displacement is exactly zero
    for dlat, dlon, want in ((1e-3, 0.0, 0.0), (-1e-3, 0.0, math.pi),
                             (0.0, 1e-3, 3 * math.pi / 2),
                             (0.0, -1e-3, math.pi / 2)):
        theta, oracle = _direction(small_aoi, _step(35.51, 139.32, dlat,
                                                    dlon))
        assert theta == oracle == want


def test_direction_of_diagonal(small_aoi):
    for dx, want in ((100.0, 7 * math.pi / 4), (-100.0, math.pi / 4)):
        pts = fixes(small_aoi, [("u", 0, 500.0, 500.0),
                                ("u", 60, 500.0 + dx, 600.0)])
        theta, oracle = _direction(small_aoi, pts)
        assert theta == pytest.approx(oracle, abs=1e-12)
        assert theta == pytest.approx(want, abs=1e-9)


def test_direction_of_zero_raises(small_aoi):
    # zero displacement has no direction: the oracle refuses it, and
    # extraction drops it whatever the displacement floor
    with pytest.raises(ValueError):
        direction_of(0.0, 0.0)
    batch, stats = extract_movements(_step(35.51, 139.32), small_aoi,
                                     ExtractSettings(min_displacement=0.0))
    assert len(batch) == 0 and stats.dropped_short == 1


@settings(max_examples=300)
@given(x=st.floats(0.0, 60_000.0), y=st.floats(0.0, 38_000.0),
       dx=st.floats(-3000.0, 3000.0), dy=st.floats(-3000.0, 3000.0))
@example(x=500.0, y=500.0, dx=0.0, dy=0.0)
@example(x=500.0, y=500.0, dx=1e-300, dy=-1e-300)
@example(x=500.0, y=500.0, dx=-1e-9, dy=1000.0)
@example(x=500.0, y=500.0, dx=0.0, dy=-5.0)
def test_direction_of_range(x, y, dx, dy):
    pts = fixes(DEFAULT_AOI, [("u", 0, x, y), ("u", 60, x + dx, y + dy)])
    px, py = project_arrays(pts.lat, pts.lon, DEFAULT_AOI)
    if px[1] == px[0] and py[1] == py[0]:
        batch, stats = extract_movements(pts, DEFAULT_AOI,
                                         ExtractSettings(min_displacement=0.0))
        assert len(batch) == 0 and stats.dropped_short == 1
        return
    theta, oracle = _direction(DEFAULT_AOI, pts)
    assert 0.0 <= theta < 2 * math.pi
    assert theta == pytest.approx(oracle, abs=1e-12)


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _refused(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return True
    return False


_CELLS = st.one_of(
    st.sampled_from(["nan", "-nan", " 1.5 ", "1_0", "", "north", "inf",
                     "-0", "1e999", "0x10", "1.5.2"]),
    st.floats().map(repr), st.text(max_size=6))


@given(cells=st.lists(st.tuples(_CELLS, st.booleans()), max_size=40))
def test_floats_at_matches_float_per_cell(cells):
    text = [c for c, _ in cells]
    rows = np.array([r for _, r in cells], dtype=bool)
    want = np.array([_float_or_nan(c) if r else math.nan for c, r in cells],
                    dtype=np.float64)
    got, refused = _floats_at(text, rows)
    # bit for bit: NaN positions and NaN signs included
    assert got.tobytes() == want.tobytes()
    assert refused.tolist() == [r and _refused(c) for c, r in cells]


def test_parse_empty_csv():
    got = parse_points(io.StringIO(CSV_HEADER))
    assert len(got) == 0 and got.skipped == 0


def test_parse_one_row():
    src = CSV_HEADER + "alice,1700000000,35.51,139.45\n"
    got = parse_points(io.StringIO(src))
    assert got == points_of([("alice", 1_700_000_000.0, 35.51, 139.45)])


def test_parse_rfc3339_timestamps():
    src = (CSV_HEADER
           + "a,2020-09-13T12:26:40Z,35.5,139.4\n"
           + "a,2020-09-13T21:26:40+09:00,35.5,139.4\n"
           + "a,2020-09-13T12:26:40,35.5,139.4\n")   # no offset: UTC
    got = parse_points(io.StringIO(src))
    assert got.t.tolist() == [1_600_000_000.0] * 3


def test_parse_heading_speed_columns():
    src = ("user_id,timestamp,lat,lon,heading,speed\n"
           "a,0,35.5,139.4,3.14,1.5\n"
           "b,0,35.5,139.4,,\n")
    got = parse_points(io.StringIO(src))
    assert got.heading[0] == 3.14 and got.speed[0] == 1.5
    assert np.isnan(got.heading[1]) and np.isnan(got.speed[1])


def test_parse_skips_bad_rows_leniently():
    src = (CSV_HEADER
           + "a,0,91,139.4\n"        # lat out of range
           + "a,zzz,35.5,139.4\n"    # unparseable timestamp
           + "a,0,35.5,139.4\n")
    got = parse_points(io.StringIO(src))
    assert len(got) == 1 and got.skipped == 2


def test_parse_strict_reports_line():
    src = CSV_HEADER + "a,0,35.5,139.4\na,0,91,139.4\n"
    with pytest.raises(PointParseError) as err:
        parse_points(io.StringIO(src), ParseSettings(strict=True))
    assert err.value.line_no == 3


def test_parse_missing_header_column_raises():
    # the first required name the header lacks is named, at line 1
    for text, name in [("user_id,timestamp,lat\na,0,35.5\n", "lon"),
                       ('"user_id","timestamp"\na,0\n', "lat")]:
        with pytest.raises(PointParseError) as err:
            parse_points(io.StringIO(text))
        assert err.value.line_no == 1
        assert str(err.value) == f"line 1: points file has no {name} column"


def test_parse_invalid_heading_rejected():
    src = ("user_id,timestamp,lat,lon,heading\n"
           f"a,0,35.5,139.4,{2 * math.pi}\n")
    got = parse_points(io.StringIO(src))
    assert got.skipped == 1


def test_parse_ndjson():
    lines = [
        {"user_id": "u1", "timestamp": 10, "lat": 35.5, "lon": 139.4},
        {"user_id": "u1", "timestamp": "2020-09-13T12:26:40Z",
         "lat": 35.6, "lon": 139.5},
    ]
    src = "\n".join(json.dumps(x) for x in lines) + "\n\n"
    got = parse_points(io.StringIO(src), ParseSettings("ndjson"))
    assert len(got) == 2 and got.skipped == 0
    assert got.t[1] == 1_600_000_000.0


def test_parse_ndjson_bad_line_strict():
    src = '{"user_id": "a", "timestamp": 0, "lat": 35.5, "lon": 139.4}\n{oops\n'
    ndjson = ParseSettings("ndjson")
    assert parse_points(io.StringIO(src), ndjson).skipped == 1
    with pytest.raises(PointParseError) as err:
        parse_points(io.StringIO(src), ParseSettings("ndjson", True))
    assert err.value.line_no == 2


def test_parse_unknown_format():
    with pytest.raises(ConfigError):
        ParseSettings("parquet")


def test_extract_simple_north_pair(small_aoi):
    pts = fixes(small_aoi, [("u", 0, 500.0, 500.0), ("u", 60, 500.0, 600.0)])
    batch, stats = extract_movements(pts, small_aoi)
    assert len(batch) == 1
    assert batch.theta[0] == pytest.approx(0.0, abs=1e-9)
    assert batch.displacement[0] == pytest.approx(100.0, rel=1e-6)
    assert batch.duration[0] == 60.0
    assert batch.t[0] == 60.0
    assert stats.n_vectors == 1
    assert (stats.dropped_duplicate, stats.dropped_gap, stats.dropped_short,
            stats.dropped_no_heading) == (0, 0, 0, 0)
    # origin is the earlier fix
    assert (batch.origin_lat[0], batch.origin_lon[0]) == pytest.approx(
        (pts.lat[0], pts.lon[0]), abs=1e-12)


def test_extract_short_displacement_dropped(small_aoi):
    pts = fixes(small_aoi, [("u", 0, 500.0, 500.0), ("u", 60, 500.0, 505.0)])
    batch, stats = extract_movements(pts, small_aoi,
                                     ExtractSettings(min_displacement=10.0))
    assert len(batch) == 0 and stats.dropped_short == 1


def test_extract_gap_dropped(small_aoi):
    pts = fixes(small_aoi, [("u", 0, 500.0, 500.0),
                            ("u", 7200, 500.0, 700.0)])
    batch, stats = extract_movements(pts, small_aoi,
                                     ExtractSettings(max_gap=1800.0))
    assert len(batch) == 0 and stats.dropped_gap == 1


def test_extract_three_fixes_two_vectors(small_aoi):
    pts = fixes(small_aoi, [("u", 0, 500.0, 500.0), ("u", 60, 500.0, 600.0),
                            ("u", 120, 600.0, 600.0)])
    batch, stats = extract_movements(pts, small_aoi)
    assert stats.n_vectors == 2
    assert batch.theta[0] == pytest.approx(0.0, abs=1e-9)
    assert batch.theta[1] == pytest.approx(3 * math.pi / 2, abs=1e-9)


def test_extract_zero_displacement_dropped_even_without_floor(small_aoi):
    pts = fixes(small_aoi, [("u", 0, 500.0, 500.0), ("u", 60, 500.0, 500.0)])
    batch, stats = extract_movements(pts, small_aoi,
                                     ExtractSettings(min_displacement=0.0))
    assert len(batch) == 0 and stats.dropped_short == 1


def test_extract_duplicate_keeps_first(small_aoi):
    pts = fixes(small_aoi, [
        ("u", 0, 500.0, 500.0),
        ("u", 0, 900.0, 900.0),     # same (user, t): dropped
        ("u", 60, 500.0, 600.0)])
    batch, stats = extract_movements(pts, small_aoi)
    assert stats.dropped_duplicate == 1
    assert len(batch) == 1
    assert batch.theta[0] == pytest.approx(0.0, abs=1e-9)


def test_extract_order_independence(small_aoi):
    rng = random.Random(99)
    rows = []
    for u in range(12):
        x, y = rng.uniform(200, 4000), rng.uniform(200, 2000)
        for k in range(15):
            x += rng.uniform(-80, 80)
            y += rng.uniform(-80, 80)
            rows.append((f"user{u:02d}", 60 * k, x, y))
    pts = fixes(small_aoi, rows)
    ref, ref_stats = extract_movements(pts, small_aoi)
    order = list(range(len(pts)))
    rng.shuffle(order)
    got, got_stats = extract_movements(pts.take(order), small_aoi)
    assert got_stats == ref_stats
    assert same_batch(got, ref)


def test_extract_output_sorted_by_user_then_time(small_aoi):
    rng = random.Random(41)
    rows = []
    for u in ("b", "a", "c"):
        for k in range(8):
            rows.append((u, 60 * k, 1000 + 50 * k + rng.uniform(0, 20),
                         1000 + 50 * k))
    rng.shuffle(rows)
    batch, _ = extract_movements(fixes(small_aoi, rows), small_aoi)
    keys = list(zip(batch.user_id.tolist(), batch.t.tolist()))
    assert len(keys) > 0 and keys == sorted(keys)


def test_extract_vector_count_bound(small_aoi):
    rng = random.Random(17)
    rows = []
    per_user = {}
    for u in range(9):
        n = rng.randrange(1, 12)
        per_user[u] = n
        for k in range(n):
            rows.append((str(u), 60 * k, rng.uniform(0, 5000),
                         rng.uniform(0, 2500)))
    _, stats = extract_movements(fixes(small_aoi, rows), small_aoi)
    assert stats.n_vectors <= sum(n - 1 for n in per_user.values())


def test_extract_heading_mode(small_aoi):
    pts = fixes(small_aoi, [
        ("u", 0, 500.0, 500.0, math.pi, 21.0),
        ("u", 60, 500.0, 600.0),            # no heading: dropped
        ("u", 120, 500.0, 700.0, 0.25)])
    batch, stats = extract_movements(pts, small_aoi,
                                     ExtractSettings(direction="heading"))
    assert stats.n_vectors == 2 and stats.dropped_no_heading == 1
    assert batch.theta[0] == math.pi
    assert batch.displacement[0] == 21.0       # speed * 1 s
    assert batch.displacement[1] == 10.0       # floor when speed missing
    assert batch.duration[0] == 1.0


def test_extract_empty(small_aoi):
    batch, stats = extract_movements(points_of([]), small_aoi)
    assert len(batch) == 0 and stats.n_points == 0
    assert isinstance(batch, MovementBatch)


def test_user_ids_are_compared_whole(small_aoi):
    # a fixed-width str array strips trailing NULs, merging these two
    pts = fixes(small_aoi, [(u, 60 * k, 500.0, 100.0 + 50.0 * k)
                            for u in ("a", "a\x00") for k in range(40)])
    batch, stats = extract_movements(pts, small_aoi)
    assert stats.n_users == 2 and stats.n_vectors == 78
    assert sorted(set(batch.user_id.tolist())) == ["a", "a\x00"]


def _extraction_peak(user_id, aoi) -> int:
    """tracemalloc peak of extracting 4,000 fixes of 40 users, the first
    user's id replaced by ``user_id``."""
    n = 4000
    ids = np.array([f"u{i // 100:02d}" for i in range(n)], dtype=object)
    ids[ids == "u00"] = user_id
    k = np.arange(n) % 100
    lat, lon = inverse_project(LocalCoord(500.0, 100.0 + 20.0 * k), aoi)
    cols = ParseResult(ids, 60.0 * k, lat, np.full(n, lon),
                       *np.full((2, n), np.nan))
    tracemalloc.start()
    try:
        _, stats = extract_movements(cols, aoi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.n_users == 40
    return peak


def test_long_user_id_costs_no_more_memory(small_aoi):
    # a fixed-width str array spends 4 bytes x the longest id on every row
    assert _extraction_peak("x" * 5000, small_aoi) <= 2 * _extraction_peak(
        "u00", small_aoi)


def test_thetas_always_in_range():
    rng = np.random.default_rng(2718)
    rows = []
    for u in range(40):
        x = rng.uniform(100, 60000)
        y = rng.uniform(100, 30000)
        for k in range(20):
            x += rng.uniform(-300, 300)
            y += rng.uniform(-300, 300)
            rows.append((f"u{u}", 30 * k, float(np.clip(x, 0, 60000)),
                         float(np.clip(y, 0, 30000))))
    batch, _ = extract_movements(fixes(DEFAULT_AOI, rows), DEFAULT_AOI)
    th = batch.theta
    assert len(batch) > 0 and ((th >= 0.0) & (th < 2 * math.pi)).all()
    assert (batch.displacement >= 10.0).all()


# -- point columns ---------------------------------------------------------


def test_parse_result_holds_columns():
    src = ("user_id,timestamp,lat,lon,heading,speed\n"
           "a,0,35.5,139.4,3.14,1.5\n"
           "b,bad,35.5,139.4,,\n"
           "b,2020-09-13T12:26:40Z,35.6,139.5,,2.0\n")
    got = parse_points(io.StringIO(src))
    assert len(got) == 2 and got.skipped == 1
    assert got.user_id.tolist() == ["a", "b"]
    assert got.t.tolist() == [0.0, 1_600_000_000.0]
    assert got.lat.tolist() == [35.5, 35.6]
    assert got.lon.tolist() == [139.4, 139.5]
    assert got.heading[0] == 3.14 and np.isnan(got.heading[1])
    assert got.speed.tolist() == [1.5, 2.0]
    rows = [("a", 0.0, 35.5, 139.4, 3.14, 1.5),
            ("b", 1_600_000_000.0, 35.6, 139.5, None, 2.0)]
    # equal by value, NaN equal to NaN, skipped counts included
    assert got == points_of(rows, refused=[("bad_timestamp", 3)])
    assert got != points_of(rows)
    assert got != points_of(rows[:1], refused=[("bad_timestamp", 3)])
    assert points_of([("a", -0.0, 35.5, 139.4)]) == points_of(
        [("a", 0.0, 35.5, 139.4)])
    assert points_of([("a", 0.0, 35.5, 139.4, None)]) != points_of(
        [("a", 0.0, 35.5, 139.4, 0.0)])
    assert points_of([("a", 0.0, 35.5, 139.4)]) != points_of(
        [("b", 0.0, 35.5, 139.4)])


def test_extract_reads_columns_like_points(tmp_path):
    # the columns written to a file and parsed back give the same vectors
    rng = random.Random(8)
    pts = points_of([(f"u{k % 7}", 60.0 * (k // 7),
                      35.5 + rng.uniform(0, 0.3), 139.3 + rng.uniform(0, 0.6),
                      rng.choice([None, rng.uniform(0, 6)]),
                      rng.choice([None, rng.uniform(0, 40)]))
                     for k in range(300)])
    write_points_csv([pts], tmp_path / "p.csv")
    parsed = parse_points(tmp_path / "p.csv")
    assert parsed == pts
    for source in ("consecutive", "heading"):
        extract = ExtractSettings(direction=source)
        a, sa = extract_movements(parsed, DEFAULT_AOI, extract)
        b, sb = extract_movements(pts, DEFAULT_AOI, extract)
        assert sa == sb and sa.n_vectors > 0
        assert same_batch(a, b)


@pytest.mark.parametrize("fmt, src, line", [
    ("csv", "user_id,timestamp,lat,lon\nu,0,35.5,139.4\nu1\n", 3),
    ("csv", "user_id,timestamp,lat,lon\n   \nu,0,35.5,139.4\n", 2),
    ("ndjson", '{"user_id": "u", "timestamp": 0, "lat": 35.5, "lon": 139.4}\n'
               '{"user_id": "u", "timestamp": null, "lat": 35.5, "lon": 1}\n',
     2),
    ("ndjson", '{"user_id": "u", "timestamp": [1], "lat": 35.5, "lon": 1}\n',
     1),
])
def test_rows_without_a_timestamp_are_skipped(fmt, src, line):
    got = parse_points(io.StringIO(src), ParseSettings(fmt))
    assert got.skipped == 1
    with pytest.raises(PointParseError) as err:
        parse_points(io.StringIO(src), ParseSettings(fmt, True))
    assert err.value.line_no == line
    assert str(err.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("key", ["timestamp", "lat", "lon", "heading",
                                 "speed"])
def test_ndjson_booleans_are_not_numbers(key):
    rec = {"user_id": "u", "timestamp": 5, "lat": 35.5, "lon": 139.4,
           "heading": 1.0, "speed": 1.0}
    ndjson = ParseSettings("ndjson")
    assert len(parse_points(io.StringIO(json.dumps(rec)), ndjson)) == 1
    rec[key] = True
    got = parse_points(io.StringIO(json.dumps(rec)), ndjson)
    assert len(got) == 0 and got.skipped == 1


# A row each check refuses, as CSV cells and as an NDJSON object, and the
# message strict mode gives for it
_REFUSED = {
    "not_object": (None, [1], "line is not a JSON object"),
    "empty_user_id": (",60,35.5,139.4,,", {"user_id": ""}, "empty user_id"),
    "bad_timestamp": ("u,soon,35.5,139.4,,", {"timestamp": "soon"},
                      "bad timestamp 'soon'"),
    "bad_lat": ("u,60,north,139.4,,", {"lat": "north"},
                "lat 'north' is not a number"),
    "lat_range": ("u,60,95,139.4,,", {"lat": 95},
                  "latitude 95.0 out of range"),
    "bad_lon": ("u,60,35.5,east,,", {"lon": "east"},
                "lon 'east' is not a number"),
    "lon_range": ("u,60,35.5,-200.5,,", {"lon": -200.5},
                  "longitude -200.5 out of range"),
    "bad_heading": ("u,60,35.5,139.4,7,", {"heading": 7},
                    "heading 7.0 outside [0, 2*pi)"),
    "bad_speed": ("u,60,35.5,139.4,,-1", {"speed": -1}, "bad speed -1.0"),
}


def _reasons(result: ParseResult) -> list[tuple[str, int]]:
    """(reason, line) of each refused row of ``result``."""
    codes, lines = result.refused
    return [(ingest.REASONS[c], line)
            for c, line in zip(codes.tolist(), lines.tolist())]


@pytest.mark.parametrize("fmt, reason", [  # a CSV row is never JSON
    ("csv", r) for r in _REFUSED if r != "not_object"] + [
    ("ndjson", r) for r in _REFUSED])
def test_strict_names_the_reason_of_the_first_refused_row(fmt, reason):
    row, obj, message = _REFUSED[reason]
    good = {"user_id": "u", "timestamp": 60, "lat": 35.5, "lon": 139.4}
    if fmt == "csv":
        text = ("user_id,timestamp,lat,lon,heading,speed\n"
                "u,0,35.5,139.4,,\n" + row + "\n")
    else:                       # a blank line 2
        bad = obj if isinstance(obj, list) else good | obj
        text = json.dumps(good) + "\n\n" + json.dumps(bad) + "\n"
    line = 3
    got = parse_points(io.StringIO(text), ParseSettings(fmt))
    assert got.skipped == 1 and _reasons(got) == [(reason, line)]
    with pytest.raises(PointParseError) as err:
        parse_points(io.StringIO(text), ParseSettings(fmt, True))
    assert err.value.line_no == line
    assert str(err.value) == f"line {line}: {message}"


def test_a_missing_key_is_refused_for_its_column():
    good = {"user_id": "u", "timestamp": 60, "lat": 35.5, "lon": 139.4}
    for key, reason in (("user_id", "empty_user_id"),
                        ("timestamp", "bad_timestamp"), ("lat", "bad_lat"),
                        ("lon", "bad_lon")):
        rec = {k: v for k, v in good.items() if k != key}
        got = parse_points(io.StringIO(json.dumps(rec)),
                           ParseSettings("ndjson"))
        assert _reasons(got) == [(reason, 1)]


def test_huge_json_integers_are_skipped():
    src = json.dumps({"user_id": "u", "timestamp": 10 ** 400, "lat": 35.5,
                      "lon": 139.4})
    assert parse_points(io.StringIO(src), ParseSettings("ndjson")).skipped == 1


def test_quoted_block_hands_over_to_csv_module():
    src = ("user_id,timestamp,lat,lon\n"
           "a,0,35.5,139.4\n"
           '"b,\n2",60,35.5,139.4\n'
           "c,bad,35.5,139.4\n")
    with mock.patch.object(ingest, "_BLOCK_CHARS", 1):
        got = parse_points(io.StringIO(src, newline=""))
        assert got.user_id.tolist() == ["a", "b,\n2"] and got.skipped == 1
        with pytest.raises(PointParseError) as err:
            parse_points(io.StringIO(src, newline=""),
                         ParseSettings(strict=True))
    assert err.value.line_no == 5


_DATES = st.datetimes(min_value=datetime(1, 1, 1),
                      max_value=datetime(9999, 12, 31, 23, 59, 59))


def _iso(d: datetime, tail: str = "Z") -> str:
    return (f"{d.year:04d}-{d.month:02d}-{d.day:02d}T"
            f"{d.hour:02d}:{d.minute:02d}:{d.second:02d}{tail}")


@settings(max_examples=300)
@given(text=st.one_of(
    _DATES.map(_iso),
    st.text("0123456789-T:Z", min_size=20, max_size=20),
    st.tuples(_DATES.map(_iso), st.integers(0, 19),
              st.sampled_from("0123456789-T:Zz t9é")).map(
        lambda a: a[0][:a[1]] + a[2] + a[0][a[1] + 1:])))
def test_utc_seconds_match_fromisoformat(text):
    got = _utc_seconds([text])[0]
    try:
        want = _parse_timestamp(text)
    except ValueError:
        want = math.nan
    if not math.isnan(got):
        assert got.hex() == want.hex()
    elif text[10] == "T" and text[19] == "Z":
        assert math.isnan(want)      # canonical shape: refused by both


@pytest.mark.parametrize("text", [
    "2024-02-29T23:59:59Z", "2000-02-29T00:00:00Z", "0001-01-01T00:00:00Z",
    "9999-12-31T23:59:59Z", "1970-01-01T00:00:00Z", "1969-12-31T23:59:59Z",
    "2023-02-29T00:00:00Z", "2100-02-29T00:00:00Z", "0000-01-01T00:00:00Z",
    "2024-04-31T00:00:00Z", "2024-00-10T00:00:00Z", "2024-13-01T00:00:00Z",
    "2024-01-00T00:00:00Z", "2024-01-01T24:00:00Z", "2024-01-01T23:60:00Z",
    "2024-01-01T23:59:60Z", "2024-01-01t00:00:00Z", "2024-01-01T00:00:00z",
    "2024-01-01 00:00:00Z", "2024-01-01T00:00:0.Z", "+024-01-01T00:00:00Z"])
def test_utc_seconds_calendar_edges(text):
    got = _utc_seconds([text])[0]
    if text[10] == "T" and text[19] == "Z" and "+" not in text:
        try:
            want = _parse_timestamp(text)
        except ValueError:
            want = math.nan
        assert got.hex() == want.hex()
    else:                           # left to _parse_timestamp row by row
        assert math.isnan(got)


_OFFSETS = st.tuples(st.sampled_from("+-"), st.integers(0, 29),
                     st.integers(0, 99)).map(
    lambda o: f"{o[0]}{o[1]:02d}:{o[2]:02d}")
_OFFSET_SHAPE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d[+-]\d\d:\d\d",
                           re.ASCII)


@settings(max_examples=300)
@given(text=st.one_of(
    st.tuples(_DATES, _OFFSETS).map(lambda a: _iso(*a)),
    st.text("0123456789-+T:Z", min_size=25, max_size=25),
    st.tuples(_DATES, _OFFSETS, st.integers(0, 24),
              st.sampled_from("0123456789-+T:Zz t9é")).map(
        lambda a: (lambda s: s[:a[2]] + a[3] + s[a[2] + 1:])(_iso(a[0], a[1])))))
@example(text="2024-01-01T00:00:00-00:00")
@example(text="2024-01-01T00:00:00+23:59")
@example(text="2024-01-01T00:00:00-23:59")
@example(text="2024-01-01T00:00:00+24:00")
@example(text="2024-01-01T00:00:00-24:00")
@example(text="2024-01-01T00:00:00+23:60")
@example(text="2024-01-01T00:00:00+00:60")
@example(text="2024-01-01T24:00:00+00:00")
@example(text="2024-01-01T23:60:00+00:00")
@example(text="0001-01-01T00:00:00+01:00")
@example(text="9999-12-31T23:59:59-23:59")
def test_offset_timestamps_match_parse_timestamp(text):
    got = _timestamps([text], np.ones(1, dtype=bool))[0]
    try:
        want = _parse_timestamp(text)
    except ValueError:
        want = math.nan
    if _OFFSET_SHAPE.fullmatch(text):   # converted in bulk, NaN included
        assert got.hex() == want.hex()
    elif not math.isnan(got):
        assert got.hex() == want.hex()


# -- the columnar parse against the row-by-row reference -------------------

def _reference(text: str, strict: bool = False):
    """The parse before columns: csv.DictReader and _build_point per row,
    as ``(rows, skipped)``."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    points, skipped = [], 0
    for rec in reader:
        try:
            points.append(_build_point(rec, reader.line_num))
        except PointParseError:
            if strict:
                raise
            skipped += 1
    return points, skipped


def _hex(v) -> str:
    return "nan" if v is None or math.isnan(v) else float(v).hex()


def _point_rows(rows):
    """``(user_id, t, lat, lon, heading, speed)`` rows, numbers as hex."""
    return [(u, *map(_hex, rest)) for u, *rest in rows]


def _column_rows(result: ParseResult):
    return _point_rows(zip(
        result.user_id.tolist(), result.t.tolist(), result.lat.tolist(),
        result.lon.tolist(), result.heading.tolist(), result.speed.tolist()))


def _numbers(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr),
                     st.integers(math.ceil(lo), math.floor(hi)).map(str))


_VALID = {
    "user_id": st.text("abcé09_ ", min_size=1, max_size=5),
    "timestamp": st.one_of(
        st.integers(-10 ** 10, 10 ** 10).map(str),
        st.floats(-1e12, 1e12).map(repr), _DATES.map(_iso),
        _DATES.map(lambda d: _iso(d, ".5Z")),
        _DATES.map(lambda d: _iso(d, "+09:00"))),
    "lat": _numbers(-90, 90),
    "lon": _numbers(-180, 180),
    "heading": st.just("") | st.floats(
        0, 2 * math.pi, exclude_max=True).map(repr),
    "speed": st.just("") | _numbers(0, 1e3),
}


def _outside(lo, hi):
    return (st.floats(max_value=lo, exclude_max=True, allow_infinity=False)
            | st.floats(min_value=hi, exclude_min=True, allow_infinity=False)
            ).map(repr)


# Cells each column refuses: out of range, non-finite or not a number
_BAD = {
    "user_id": st.just(""),
    "timestamp": st.sampled_from([
        "nan", "inf", "soon", "", "2023-02-29T00:00:00Z",
        "0000-01-01T00:00:00Z", "2024-01-01T24:00:00Z",
        "2024-13-01T00:00:00Z", "2024-01-01T00:60:00Z"]),
    "lat": _outside(-90, 90) | st.sampled_from(["nan", "north", ""]),
    "lon": _outside(-180, 180) | st.sampled_from(["nan", "-inf", ""]),
    "heading": _outside(0, 2 * math.pi) | st.sampled_from(["nan", "inf"]),
    "speed": st.floats(max_value=-1e-300, allow_infinity=False).map(repr)
    | st.sampled_from(["nan", "inf"]),
}
# Valid numbers in unusual spellings, and the range edges
_ODD = st.sampled_from([
    "1_0", " 35.5 ", "1e1", "+3", "-0.0", "0", "90", "-90.0", "180.0",
    "-180", repr(math.nextafter(2 * math.pi, 0)), "2024-01-01t00:00:00z",
    "2024-01-01 00:00:00Z"])


@st.composite
def _points_file(draw):
    """A points CSV text mixing valid and malformed rows.

    Returns the text and its number of data rows: every record but blank
    lines, a quoted line break staying inside its record.
    """
    names = ["user_id", "timestamp", "lat", "lon"]
    if draw(st.booleans()):
        names += ["heading", "speed"]
    names = draw(st.permutations(names))
    if draw(st.booleans()):         # a duplicate name: the last one wins
        names = names + [draw(st.sampled_from(names))]
    ends = st.sampled_from(["\n"] * 6 + ["\r\n"] * 3 + ["\r"])
    quote = draw(st.booleans())     # as R's write.csv writes a header
    text = ",".join(f'"{n}"' if quote else n for n in names) + draw(ends)
    rows = 0
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["row"] * 4 + ["bad"] * 4 + [
            "odd", "odd", "short", "long", "blank", "space", "quoted"]))
        cells = [draw(_VALID[n]) for n in names]
        i = draw(st.integers(0, len(cells) - 1))
        if kind == "bad":
            cells[i] = draw(_BAD[names[i]])
        elif kind == "odd":
            cells[i] = draw(_ODD)
        elif kind == "short":
            cells = cells[:max(i, 1)]
        elif kind == "long":
            cells.append("x")
        elif kind == "quoted":
            cells[i] = '"' + draw(st.sampled_from(
                [cells[i], "a,b", "a\nb", 'a""b'])) + '"'
        record = {"blank": "", "space": "  "}.get(kind, ",".join(cells))
        rows += record != ""
        text += record + draw(ends)
    if text.endswith("\n") and not text.endswith("\r\n") and draw(
            st.booleans()):
        text = text[:-1]            # no line end after the last record
    return text, rows


@settings(max_examples=200)
@given(case=_points_file(), block=st.integers(1, 80))
# a header cell holding a line break, a header alone, a blank line first
@example(case=('user_id,timestamp,lat,lon,"a\r\nb"\r\nu,1,2,3,x\r\n'
               'v,nan,2,3\n', 2), block=7)
@example(case=('"user_id","timestamp","lat","lon"', 0), block=1)
@example(case=("user_id,timestamp,lat,lon\n\nu,1,2,3\n\n", 1), block=3)
def test_parse_equals_row_reference(case, block):
    text, rows = case
    with mock.patch.object(ingest, "_BLOCK_CHARS", block):
        got = parse_points(io.StringIO(text, newline=""))
        points, skipped = _reference(text)
        assert got.skipped + len(got) == rows
        assert got.skipped == skipped
        assert _column_rows(got) == _point_rows(points)
        try:
            _reference(text, strict=True)
        except PointParseError as want:
            with pytest.raises(PointParseError) as err:
                parse_points(io.StringIO(text, newline=""),
                             ParseSettings(strict=True))
            assert err.value.line_no == want.line_no
        else:
            assert parse_points(io.StringIO(text, newline=""),
                                ParseSettings(strict=True)) == got


def _ndjson_reference(text: str, strict: bool = False) -> ParseResult:
    """NDJSON row by row: ``json.loads`` and ``_build_point`` per line,
    blank lines left out (``_build_rows``)."""
    return _build_rows([(line_no, line) for line_no, line in enumerate(
        text.split("\n"), start=1) if line.strip()], json.loads, strict)[0]


_JSON_VALID = {
    "user_id": st.text("abé1 ", min_size=1, max_size=4) | st.integers(0, 9),
    "timestamp": st.one_of(
        st.integers(-10 ** 10, 10 ** 10), st.floats(-1e12, 1e12),
        _DATES.map(_iso), _DATES.map(lambda d: _iso(d, "+09:00"))),
    "lat": st.floats(-90, 90) | st.integers(-90, 90) | _numbers(-90, 90),
    "lon": st.floats(-180, 180) | _numbers(-180, 180),
    "heading": st.sampled_from([None, ""]) | st.floats(
        0, 2 * math.pi, exclude_max=True),
    "speed": st.sampled_from([None, ""]) | st.floats(0, 1e3),
}
# Values some or all fields refuse; booleans are not numbers
_JSON_ODD = st.sampled_from([
    True, False, None, "", " ", "x", "nan", [1], {}, math.nan, math.inf,
    -math.inf, -1e3, 1e3, 10 ** 400, "2024-13-01T00:00:00Z"])


@st.composite
def _ndjson_file(draw):
    """An NDJSON text mixing valid objects, objects with refused or
    missing fields, blank lines, other JSON values and text that is no
    JSON."""
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["row"] * 4 + [
            "odd", "odd", "missing", "blank", "value", "broken", "split"]))
        if kind == "split":     # one object if read across the line end
            lines += ['{"user_id":"a","timestamp":1,"lat":1,"lon":1,"x":"}',
                      '{"}']
            continue
        rec = {k: draw(v) for k, v in _JSON_VALID.items()
               if k in ("user_id", "timestamp", "lat", "lon")
               or draw(st.booleans())}
        key = draw(st.sampled_from(sorted(rec)))
        if kind == "odd":
            rec[key] = draw(_JSON_ODD)
        elif kind == "missing":
            del rec[key]
        lines.append(json.dumps(rec) if kind in ("row", "odd", "missing")
                     else draw(st.sampled_from({
                         "blank": ["", "  ", "\t"],
                         "value": ["[1, 2]", "3", '"x"', "null", "true",
                                   "NaN"],
                         "broken": ["{", '{"a": }', "{'a': 1}", "oops"],
                     }[kind])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=200)
@given(text=_ndjson_file(), block=st.integers(1, 80))
def test_parse_ndjson_equals_row_reference(text, block):
    with mock.patch.object(ingest, "_BLOCK_CHARS", block):
        got = parse_points(io.StringIO(text), ParseSettings("ndjson"))
        want = _ndjson_reference(text)
        assert got.skipped == want.skipped
        assert _column_rows(got) == _column_rows(want)
        try:
            _ndjson_reference(text, strict=True)
        except PointParseError as want:
            with pytest.raises(PointParseError) as err:
                parse_points(io.StringIO(text), ParseSettings("ndjson", True))
            assert err.value.line_no == want.line_no
        else:
            assert parse_points(io.StringIO(text),
                                ParseSettings("ndjson", True)) == got


@pytest.mark.parametrize("name, cell", [
    ("user_id", ""), ("user_id", " "), ("timestamp", "inf"),
    ("timestamp", "-1e308"), ("timestamp", "1_600_000_000"),
    ("lat", "90"), ("lat", "-90.0"), ("lat", "90.00000000000001"),
    ("lat", "-1e400"), ("lon", "180"), ("lon", "-180.5"), ("lon", "nan"),
    ("heading", "0"), ("heading", "-0.0"), ("heading", "-1e-300"),
    ("heading", repr(2 * math.pi)), ("heading", repr(math.nextafter(
        2 * math.pi, 0))), ("heading", ""), ("speed", "0"), ("speed", "-0.0"),
    ("speed", "-1e-300"), ("speed", "1e308"), ("speed", "inf"),
    ("speed", "")])
def test_bulk_checks_match_build_point(name, cell):
    row = {"user_id": "u", "timestamp": "2020-01-01T00:00:00Z",
           "lat": "35.5", "lon": "139.4", "heading": "1.0", "speed": "2.0"}
    row[name] = cell
    text = ",".join(row) + "\n" + ",".join(row.values()) + "\n"
    got = parse_points(io.StringIO(text, newline=""))
    points, skipped = _reference(text)
    assert got.skipped == skipped
    assert _column_rows(got) == _point_rows(points)


def test_quoted_points_take_the_bulk_checks():
    """A points file as R's ``write.csv`` writes it, header and ids quoted,
    reads as its plain copy does."""
    rng = random.Random(3)
    rows = [(f"u{rng.randrange(50)}", _iso(datetime.fromtimestamp(
        1_600_000_000 + 60 * i)) if i % 2 else str(1_600_000_000 + 60 * i),
        repr(rng.uniform(35, 36)), repr(rng.uniform(139, 140)))
        for i in range(2000)]
    plain = CSV_HEADER + "".join(",".join(r) + "\n" for r in rows)
    quoted = '"user_id","timestamp","lat","lon"\n' + "".join(
        f'"{u}",{rest}\n' for u, rest in (r.split(",", 1)
                                         for r in plain.split("\n")[1:-1]))
    want = parse_points(io.StringIO(plain, newline=""))
    with mock.patch.object(ingest, "_BLOCK_CHARS", 4096):
        got = parse_points(io.StringIO(quoted, newline=""))
    assert len(got) == 2000 and got == want


def test_a_quoted_header_leaves_plain_rows_to_the_plain_splitter():
    """A header quoted as R's ``write.csv`` quotes it, over plain rows,
    sends no block through ``csv.reader``."""
    rows = "".join(f"u{i % 7},{60 * i},35.5,139.{i}\n" for i in range(500))
    want = parse_points(io.StringIO(CSV_HEADER + rows, newline=""))
    quoted = '"user_id","timestamp","lat","lon"\n' + rows
    with mock.patch.object(ingest, "_BLOCK_CHARS", 1024), mock.patch.object(
            ingest, "_record_block", wraps=ingest._record_block) as split:
        got = parse_points(io.StringIO(quoted, newline=""))
    assert split.call_count == 0
    assert len(got) == 500 and got == want


@pytest.mark.parametrize("text", [
    "a\n\nb\n\r\n c\n", "a,b\n1,2\n\n3\n,\n1,2,3", '"a"\n\nb\n',
    'a,b\n"x\ny",1\n\n2\n', 'a,"b\r\nc"\r1,2\r\r3\r', "a,b"],
    ids=["one-name", "plain", "quoted", "line-break", "header-break",
         "header-only"])
def test_csv_blocks_hold_each_record_once(text):
    # a blank line is no record, whatever the header width
    reader = csv.reader(io.StringIO(text, newline=""))
    names = next(reader)
    want = [(reader.line_num, cells) for cells in reader if cells]
    header, *blocks = ingest._csv_blocks(io.StringIO(text, newline=""))
    assert header == names
    assert [r for b in blocks for r in b.rows(np.zeros(len(b.line), bool))
            ] == want


def test_overlong_field_fails_as_in_the_csv_module():
    text = (CSV_HEADER + "a,0,35.5,139.4\n"
            + "u" * (csv.field_size_limit() + 1) + ",0,35.5,139.4\n")
    with pytest.raises(csv.Error) as want:
        _reference(text)
    # the same failure, at the line where the csv module stops, as a data
    # error
    with pytest.raises(PointParseError) as got:
        parse_points(io.StringIO(text, newline=""))
    assert str(got.value) == f"line 3: {want.value}"


_POINTS = st.lists(st.tuples(
    st.text(min_size=1, max_size=6).filter(lambda u: u.strip("\r\n") == u),
    st.one_of(st.integers(-10 ** 12, 10 ** 12).map(float),
              st.floats(-1e12, 1e12)),
    st.floats(-90, 90), st.floats(-180, 180),
    st.none() | st.floats(0, 2 * math.pi, exclude_max=True),
    st.none() | st.floats(0, 1e9)), max_size=30)


@settings(max_examples=200)
@given(rows=_POINTS, block=st.integers(1, 80))
@example(rows=[("u", -0.0, -0.0, 1.5, None, None)], block=80)
def test_written_points_parse_back(tmp_path_factory, rows, block):
    path = tmp_path_factory.mktemp("points") / "points.csv"
    points = points_of(rows)
    write_points_csv([points], path)
    with mock.patch.object(ingest, "_BLOCK_CHARS", block):
        got = parse_points(path)
    assert got.skipped == 0 and got == points
    # bit for bit, but a time of -0.0 s is written as the integer 0
    assert _column_rows(got) == _point_rows(
        [(u, t + 0.0, *rest) for u, t, *rest in rows])
