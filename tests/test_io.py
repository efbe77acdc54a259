"""CSV, GeoJSON, and summary round trips."""

import csv
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdemap import (ALL_TIME, AreaOfInterest, DEFAULT_AOI, GeoPoint,
                    MAX_ENTROPY, MeshId, ParseResult, PointParseError,
                    PrecisionCurve, RecallCurve, STANDARD_SCALES_M, Station,
                    TimeWindow, TrajectoryPoint, combine, compute_fields,
                    mesh_center, normalize, parse_points)
from mdemap import io as mio
from mdemap.io import ENTROPY_SLACK, FIELD_HEADER, STATION_HEADER
from mdemap.io import (combined_geojson, field_geojson, read_combined_csv,
                       read_field_csv, read_stations_csv, write_combined_csv,
                       write_field_csv, write_geojson, write_points_csv,
                       write_precision_csv, write_recall_csv,
                       write_stations_csv, write_summary)

import _oracles as oracles
from conftest import field_of, map_of, scores_of


def _field(aoi):
    return field_of(100, aoi, {(3, 7): (120, 2.345678901234567),
                               (0, 0): (31, 4.605170185988091),
                               (9, 2): (12, None)})


def _mesh(scale, col, row, aoi):
    """``scale_m,col,row,center_lat,center_lon`` cells of a mesh of ``aoi``."""
    lat, lon = mesh_center(MeshId(scale, col, row), aoi)
    return f"{scale},{col},{row},{lat!r},{lon!r}"


def _round_trip(tmp, write, read, obj):
    """``read(write(obj))``, checking that writing it again gives the same bytes."""
    one, two = tmp / "one.csv", tmp / "two.csv"
    write(obj, one)
    back = read(one, obj.aoi)
    write(back, two)
    assert one.read_bytes() == two.read_bytes()
    return back


_cells = st.tuples(st.integers(0, 700), st.integers(0, 400))
_entropies = st.none() | st.sampled_from([0.0, MAX_ENTROPY]) | st.floats(
    0.0, MAX_ENTROPY)


def _in_grid(values):
    """(scale, {(col, row): value}) with cells inside the grid of that
    scale over DEFAULT_AOI; the readers refuse a mesh outside it."""
    def tables(scale):
        ncols, nrows = DEFAULT_AOI.grid_shape(scale)
        cells = st.tuples(st.integers(0, ncols - 1), st.integers(0, nrows - 1))
        return st.tuples(st.just(scale), st.dictionaries(
            cells, values, min_size=1, max_size=40))
    return st.sampled_from(STANDARD_SCALES_M).flatmap(tables)


@settings(max_examples=60)
@given(table=_in_grid(st.tuples(st.integers(0, 10**6), _entropies)))
@example(table=(100, {(0, 0): (1, None)}))
@example(table=(100, {(5, 3): (30, 0.0)}))
@example(table=(4000, {(0, 0): (100, MAX_ENTROPY)}))
@example(table=(100, {(632, 389): (7, 1.5)}))
def test_field_csv_round_trip(tmp_path_factory, table):
    scale, entries = table
    field = field_of(scale, DEFAULT_AOI, entries)
    back = _round_trip(tmp_path_factory.mktemp("field"), write_field_csv,
                       read_field_csv, field)
    assert back == field
    assert back.entries == field.entries
    assert back.window == ALL_TIME


def test_field_csv_layout(small_aoi, tmp_path):
    p = tmp_path / "field.csv"
    write_field_csv(_field(small_aoi), p)
    lines = p.read_text().splitlines()
    assert lines[0] == ("scale_m,col,row,center_lat,center_lon,"
                       "count,entropy_nats,entropy_norm")
    # rows sorted by (row, col); undefined mesh keeps empty entropy cells
    assert [l.split(",")[1:3] for l in lines[1:]] == [
        ["0", "0"], ["9", "2"], ["3", "7"]]
    undef = lines[2].split(",")
    assert undef[6] == "" and undef[7] == ""
    norm = float(lines[1].split(",")[7])
    assert norm == pytest.approx(1.0, abs=1e-15)


def test_field_csv_rejects_bad_files(small_aoi, tmp_path):
    p = tmp_path / "bad.csv"
    header = "scale_m,col,row,center_lat,center_lon,count,entropy_nats\n"
    p.write_text(header + f"{_mesh(100, 0, 0, small_aoi)},5,1.0\n"
                 f"{_mesh(1000, 0, 0, small_aoi)},5,1.0\n")
    with pytest.raises(PointParseError, match="mixed scales"):
        read_field_csv(p, small_aoi)
    p.write_text(header)
    with pytest.raises(PointParseError, match="no rows"):
        read_field_csv(p, small_aoi)


@settings(max_examples=60)
@given(table=_in_grid(st.sampled_from([0.0, 1.0]) | st.floats(
    allow_nan=False, allow_infinity=False)))
@example(table=(100, {(1, 1): 0.123456789012345, (2, 5): 1.0}))
@example(table=(1000, {(0, 0): 0.0}))
@example(table=(4000, {(15, 9): 0.5}))
def test_combined_csv_round_trip(tmp_path_factory, table):
    scale, scores = table
    cmap = map_of(scale, DEFAULT_AOI, scores)
    tmp = tmp_path_factory.mktemp("combined")
    back = _round_trip(tmp, write_combined_csv, read_combined_csv, cmap)
    assert back.base_scale_m == scale
    for name in ("col", "row", "scores"):
        got, want = getattr(back, name), getattr(cmap, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    header = (tmp / "one.csv").read_text().splitlines()[0]
    assert header.endswith(",score")


def test_stations_csv_round_trip(tmp_path):
    stations = [Station("shinjuku", GeoPoint(35.689487, 139.691711), 1),
                Station("ikebukuro", GeoPoint(35.728926, 139.71038), 2)]
    p = tmp_path / "stations.csv"
    write_stations_csv(stations, p)
    assert read_stations_csv(p) == stations


def test_stations_csv_validates(tmp_path):
    p = tmp_path / "stations.csv"
    p.write_text("name,lat,lon,rank\na,35.5,139.4,1\nb,35.6,139.5,1\n")
    with pytest.raises(Exception):
        read_stations_csv(p)
    p.write_text("name,lat,lon,rank\na,35.5,oops,1\n")
    with pytest.raises(PointParseError) as err:
        read_stations_csv(p)
    assert err.value.line_no == 2


def test_recall_csv_shape(tmp_path):
    curve = RecallCurve(100, (0.5, 1.0, 1.5), (3, 5, 8))
    p = tmp_path / "recall.csv"
    write_recall_csv(curve, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "x,value"
    assert lines[1] == "0.5,3" and lines[3] == "1.5,8"


def test_precision_csv_pulls_one_threshold(tmp_path):
    curves = [
        PrecisionCurve(100, 10, (100.0, 300.0), (20.0, 60.0)),
        PrecisionCurve(100, 20, (100.0, 300.0), (15.0, 55.0)),
    ]
    p = tmp_path / "precision.csv"
    write_precision_csv(curves, 300.0, p)
    lines = p.read_text().splitlines()
    assert lines == ["x,value", "10,60.0", "20,55.0"]


def test_points_csv_round_trip(small_aoi, tmp_path):
    pts = [TrajectoryPoint("u0", 1_600_000_000.0, GeoPoint(35.51, 139.32)),
           TrajectoryPoint("u1", 1_600_000_060.5, GeoPoint(35.52, 139.33))]
    p = tmp_path / "points.csv"
    write_points_csv(pts, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "user_id,timestamp,lat,lon"
    assert lines[1].startswith("u0,1600000000,")  # integral t written as int
    back = parse_points(p)
    assert back.points == pts and back.skipped == 0


def test_points_csv_heading_speed(tmp_path):
    pts = [TrajectoryPoint("u", 0.0, GeoPoint(35.5, 139.4),
                           heading=1.25, speed=3.0),
           TrajectoryPoint("u", 60.0, GeoPoint(35.5, 139.4))]
    p = tmp_path / "points.csv"
    write_points_csv(pts, p)
    assert p.read_text().splitlines()[0] == \
        "user_id,timestamp,lat,lon,heading,speed"
    back = parse_points(p).points
    assert back[0].heading == 1.25 and back[0].speed == 3.0
    assert back[1].heading is None and back[1].speed is None


def test_field_geojson_rings(small_aoi, tmp_path):
    text = "".join(field_geojson(_field(small_aoi)))
    gj = json.loads(text)
    assert gj["type"] == "FeatureCollection"
    assert len(gj["features"]) == 3
    feat = gj["features"][0]
    assert feat["type"] == "Feature" and feat["geometry"]["type"] == "Polygon"
    ring = feat["geometry"]["coordinates"][0]
    assert len(ring) == 5 and ring[0] == ring[-1]
    lons = [c[0] for c in ring[:4]]
    lats = [c[1] for c in ring[:4]]
    # 100 m square in degrees
    assert max(lats) - min(lats) == pytest.approx(100 / 111194.92664455873,
                                                  rel=1e-9)
    assert feat["properties"] == {
        "scale_m": 100, "col": 0, "row": 0, "count": 31,
        "entropy_nats": 4.605170185988091,
        "entropy_norm": 4.605170185988091 / MAX_ENTROPY}
    undef = [f for f in gj["features"]
             if f["properties"]["entropy_nats"] is None]
    assert len(undef) == 1
    assert undef[0]["properties"]["entropy_norm"] is None
    p = tmp_path / "field.geojson"
    write_geojson(field_geojson(_field(small_aoi)), p)
    assert p.read_text() == text + "\n"


def test_combined_geojson(small_aoi):
    gj = json.loads("".join(combined_geojson(
        map_of(100, small_aoi, {(0, 0): 0.5}))))
    (feat,) = gj["features"]
    assert feat["properties"] == {"scale_m": 100, "col": 0, "row": 0,
                                  "score": 0.5}
    assert feat["geometry"]["coordinates"][0][0] == [139.3, 35.5]


def test_summary_is_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_summary({"zebra": 1, "alpha": {"y": 2, "x": [3, 4]}}, a)
    write_summary({"alpha": {"x": [3, 4], "y": 2}, "zebra": 1}, b)
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["alpha"]["x"] == [3, 4]


def test_write_read_is_byte_stable(small_aoi, tmp_path):
    f = _field(small_aoi)
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_field_csv(f, p1)
    write_field_csv(read_field_csv(p1, small_aoi), p2)
    assert p1.read_bytes() == p2.read_bytes()


# -- golden bytes: the array writers against a per-row reference --------------

def _reference_rows(path, header, meshes, aoi, tail):
    """The per-row writer: csv.writer and one mesh_center call per mesh."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for m in sorted(meshes, key=lambda m: (m.scale_m, m.row, m.col)):
            c = mesh_center(m, aoi)
            w.writerow((m.scale_m, m.col, m.row, repr(float(c.lat)),
                        repr(float(c.lon))) + tail(m))


def _reference_field_csv(field, path):
    def tail(m):
        e = field.entries[m]
        if e.entropy is None:
            return e.count, "", ""
        return (e.count, repr(float(e.entropy)),
                repr(float(e.entropy / MAX_ENTROPY)))
    _reference_rows(path, FIELD_HEADER, field.entries, field.aoi, tail)


def _reference_combined_csv(cmap, path):
    scores = scores_of(cmap)
    _reference_rows(path, FIELD_HEADER + ("score",), scores, cmap.aoi,
                    lambda m: ("", "", "", repr(float(scores[m]))))


def _same_bytes(tmp_path, write, reference, obj):
    """The writer's bytes equal the reference's, written in chunks of 3
    rows as well as in chunks of the default size."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    reference(obj, want)
    for rows in (3, mio._CHUNK_ROWS):
        with mock.patch.object(mio, "_CHUNK_ROWS", rows):
            write(obj, got)
        assert got.read_bytes() == want.read_bytes()


@settings(max_examples=60)
@given(entries=st.dictionaries(
    _cells,
    st.tuples(st.integers(1, 10**6),
              st.none() | st.floats(0.0, MAX_ENTROPY)),
    max_size=40))
def test_field_csv_matches_reference_bytes(tmp_path_factory, entries):
    field = field_of(100, DEFAULT_AOI, entries)
    _same_bytes(tmp_path_factory.mktemp("field"), write_field_csv,
                _reference_field_csv, field)


@settings(max_examples=60)
@given(scale=st.sampled_from([100, 1000]),
       scores=st.dictionaries(_cells, st.floats(0.0, 1.0), max_size=40))
def test_combined_csv_matches_reference_bytes(tmp_path_factory, scale,
                                              scores):
    _same_bytes(tmp_path_factory.mktemp("combined"), write_combined_csv,
                _reference_combined_csv, map_of(scale, DEFAULT_AOI, scores))


def test_computed_outputs_match_reference_bytes(tmp_path):
    from _throughput import uniform_batch

    batch = uniform_batch(60_000, DEFAULT_AOI, 3)
    windows = [TimeWindow(0.0, 5e4), TimeWindow(5e4, 1e5)]
    fields, _ = compute_fields(batch, DEFAULT_AOI, (1000, 2000), windows, 20)
    assert all(f.count.size and f.n_defined for f in fields)
    for field in fields:
        _same_bytes(tmp_path, write_field_csv, _reference_field_csv, field)
    cmap = combine([normalize(f) for f in fields[::2]], 1000)
    assert len(cmap.scores) > 1000
    _same_bytes(tmp_path, write_combined_csv, _reference_combined_csv, cmap)


def _reference_points_csv(points, path):
    """The per-point writer: one csv row built per TrajectoryPoint."""
    points = list(points)
    extras = any(p.heading is not None or p.speed is not None for p in points)
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(("user_id", "timestamp", "lat", "lon")
                   + (("heading", "speed") if extras else ()))
        for p in points:
            t = int(p.t) if float(p.t).is_integer() else repr(float(p.t))
            row = [p.user_id, t, repr(float(p.pos.lat)),
                   repr(float(p.pos.lon))]
            if extras:
                row.append("" if p.heading is None else repr(float(p.heading)))
                row.append("" if p.speed is None else repr(float(p.speed)))
            w.writerow(row)


def _reference_geojson(aoi, props, path):
    """The dict writer: a dict per feature, encoded by json.dump."""
    features = []
    for p in props:
        sw, se, ne, nw = oracles.mesh_corners(
            MeshId(p["scale_m"], p["col"], p["row"]), aoi)
        ring = [[q.lon, q.lat] for q in (sw, se, ne, nw, sw)]
        features.append({"type": "Feature", "properties": p,
                         "geometry": {"type": "Polygon",
                                      "coordinates": [ring]}})
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"type": "FeatureCollection", "features": features}, f,
                  sort_keys=True, separators=(",", ":"))
        f.write("\n")


def _reference_field_geojson(field, path):
    s = field.scale_m
    _reference_geojson(field.aoi, [
        {"scale_m": s, "col": m.col, "row": m.row, "count": e.count,
         "entropy_nats": e.entropy, "entropy_norm":
             None if e.entropy is None else e.entropy / MAX_ENTROPY}
        for m, e in field.entries.items()], path)


def _reference_combined_geojson(cmap, path):
    _reference_geojson(cmap.aoi, [
        {"scale_m": m.scale_m, "col": m.col, "row": m.row, "score": v}
        for m, v in scores_of(cmap).items()], path)


_ids = st.text(min_size=1, max_size=6) | st.sampled_from(
    ["a,b", 'say "hi"', "two\nlines", "cr\r", ",", '"', "\n"])
_times = st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e300]) | st.floats()
_POINTS = st.lists(st.builds(
    TrajectoryPoint, _ids, _times, st.builds(GeoPoint, st.floats(),
                                             st.floats()),
    st.none() | st.floats(allow_nan=False),
    st.none() | st.floats(allow_nan=False)), max_size=30)


@settings(max_examples=200)
@given(points=_POINTS)
@example(points=[])
@example(points=[TrajectoryPoint("a,\"b\"\n", -0.0, GeoPoint(-0.0, 1.5))])
@example(points=[TrajectoryPoint("u", 1.5, GeoPoint(35.5, 139.4), 0.0),
                 TrajectoryPoint("u", 2.0, GeoPoint(35.5, 139.4), None, 0.0)])
def test_points_csv_matches_reference_bytes(tmp_path_factory, points):
    tmp = tmp_path_factory.mktemp("points")
    _same_bytes(tmp, write_points_csv, _reference_points_csv, points)
    _same_bytes(tmp, write_points_csv, _reference_points_csv,
                ParseResult.from_points(points))


def _same_geojson(tmp, build, reference, table):
    """``_same_bytes`` for the GeoJSON of ``table`` that ``build`` gives."""
    _same_bytes(tmp, lambda t, path: write_geojson(build(t), path),
                reference, table)


@settings(max_examples=60)
@given(scale=st.sampled_from(STANDARD_SCALES_M),
       entries=st.dictionaries(_cells, st.tuples(st.integers(0, 10**6),
                                                 _entropies), max_size=40))
@example(scale=100, entries={})
@example(scale=100, entries={(0, 0): (1, None)})
@example(scale=4000, entries={(3, 2): (100, MAX_ENTROPY), (0, 0): (9, 0.0)})
def test_field_geojson_matches_reference_bytes(tmp_path_factory, scale,
                                               entries):
    field = field_of(scale, DEFAULT_AOI, entries)
    _same_geojson(tmp_path_factory.mktemp("geojson"), field_geojson,
                  _reference_field_geojson, field)


@settings(max_examples=60)
@given(scale=st.sampled_from(STANDARD_SCALES_M),
       scores=st.dictionaries(_cells, st.sampled_from([0.0, -0.0, 1.0])
                              | st.floats(allow_nan=False,
                                          allow_infinity=False),
                              max_size=40))
@example(scale=100, scores={})
@example(scale=1000, scores={(7, 4): 0.5})
def test_combined_geojson_matches_reference_bytes(tmp_path_factory, scale,
                                                  scores):
    cmap = map_of(scale, DEFAULT_AOI, scores)
    _same_geojson(tmp_path_factory.mktemp("geojson"), combined_geojson,
                  _reference_combined_geojson, cmap)


def test_computed_geojson_matches_reference_bytes(tmp_path):
    from _throughput import uniform_batch

    batch = uniform_batch(60_000, DEFAULT_AOI, 5)
    fields, _ = compute_fields(batch, DEFAULT_AOI, (1000, 2000), [ALL_TIME],
                               25)
    assert all(f.n_defined for f in fields)
    assert any(f.n_defined < f.count.size for f in fields)
    for field in fields:
        _same_geojson(tmp_path, field_geojson, _reference_field_geojson,
                      field)
    cmap = combine([normalize(f) for f in fields], 1000)
    assert len(cmap.scores) > 1000
    _same_geojson(tmp_path, combined_geojson, _reference_combined_geojson,
                  cmap)


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name, header", [("field CSV", FIELD_HEADER),
                                          ("stations CSV", STATION_HEADER)])
def test_readme_file_formats_match_headers(name, header):
    documented = re.search(rf"\*\*{name}\*\* — `([^`]*)`",
                           README.read_text(encoding="utf-8"))
    assert documented is not None, f"README lists no {name} columns"
    assert documented.group(1) == ",".join(header)


_MAX_READ = MAX_ENTROPY * (1 + ENTROPY_SLACK)


@pytest.mark.parametrize("count, entropy", [
    ("5", "nan"), ("5", "inf"), ("5", "-inf"), ("5", "-0.25"),
    ("5", repr(MAX_ENTROPY * (1 + 3 * ENTROPY_SLACK))), ("-1", "1.5"),
    ("-1", "")])
def test_field_csv_rejects_bad_values(small_aoi, tmp_path, count, entropy):
    p = tmp_path / "field.csv"
    write_field_csv(_field(small_aoi), p)
    lines = p.read_text().splitlines()
    row = lines[2].split(",")
    row[5], row[6] = count, entropy
    lines[2] = ",".join(row)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(PointParseError) as err:
        read_field_csv(p, small_aoi)
    assert err.value.line_no == 3


@pytest.mark.parametrize("entropy", ["0.0", repr(MAX_ENTROPY), repr(_MAX_READ),
                                     ""])
def test_field_csv_accepts_entropy_bounds(small_aoi, tmp_path, entropy):
    p = tmp_path / "field.csv"
    p.write_text(",".join(FIELD_HEADER)
                 + f"\n{_mesh(100, 0, 0, small_aoi)},40,{entropy},\n")
    (entry,) = read_field_csv(p, small_aoi).entries.values()
    assert entry.entropy == (float(entropy) if entropy else None)


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_combined_csv_rejects_non_finite_scores(small_aoi, tmp_path, score):
    p = tmp_path / "combined.csv"
    p.write_text(",".join(FIELD_HEADER) + ",score\n"
                 f"{_mesh(100, 0, 0, small_aoi)},,,,0.5\n"
                 f"{_mesh(100, 1, 0, small_aoi)},,,,{score}\n")
    with pytest.raises(PointParseError) as err:
        read_combined_csv(p, small_aoi)
    assert err.value.line_no == 3


_COMBINED_HEADER = ",".join(FIELD_HEADER) + ",score\n"
_FIELD_HEADER = ",".join(FIELD_HEADER) + "\n"


@pytest.mark.parametrize("reader, header, tail, last, message", [
    pytest.param(read_field_csv, _FIELD_HEADER, "40,1.5,0.3", (100, 5, 0),
                 "repeated mesh", id="field-repeat"),
    pytest.param(read_field_csv, _FIELD_HEADER, "40,1.5,0.3", (1000, 0, 0),
                 "mixed scales", id="field-mixed"),
    pytest.param(read_combined_csv, _COMBINED_HEADER, ",,,0.5", (100, 5, 0),
                 "repeated mesh", id="combined-repeat"),
    pytest.param(read_combined_csv, _COMBINED_HEADER, ",,,0.5", (1000, 0, 0),
                 "mixed scales", id="combined-mixed")])
def test_mesh_csv_refuses_repeats_and_mixed_scales(
        small_aoi, tmp_path, reader, header, tail, last, message):
    # line 4 is the first to repeat or mix; line 5 repeats too
    p = tmp_path / "table.csv"
    p.write_text(header + "".join(
        f"{_mesh(*mesh, small_aoi)},{tail}\n"
        for mesh in ((100, 5, 0), (100, 1, 0), last, (100, 1, 0))))
    with pytest.raises(PointParseError, match=f"^line 4: {message}") as err:
        reader(p, small_aoi)
    assert err.value.line_no == 4


def test_readers_sort_rows_into_grid_order(small_aoi, tmp_path):
    p = tmp_path / "field.csv"
    p.write_text(_FIELD_HEADER + f"{_mesh(100, 5, 1, small_aoi)},40,1.5,\n"
                 f"{_mesh(100, 0, 1, small_aoi)},40,,\n"
                 f"{_mesh(100, 9, 0, small_aoi)},40,0.5,\n")
    field = read_field_csv(p, small_aoi)
    assert field.row.tolist() == [0, 1, 1] and field.col.tolist() == [9, 0, 5]
    assert field.count.dtype == np.int64
    p.write_text(_COMBINED_HEADER + f"{_mesh(100, 5, 1, small_aoi)},,,,0.25\n"
                 f"{_mesh(100, 9, 0, small_aoi)},,,,0.75\n")
    cmap = read_combined_csv(p, small_aoi)
    assert list(zip(cmap.col.tolist(), cmap.scores.tolist())) == [
        (9, 0.75), (5, 0.25)]


@pytest.mark.parametrize("reader, tail", [(read_field_csv, "40,1.5,0.3"),
                                          (read_combined_csv, ",,,0.5")])
@pytest.mark.parametrize("col, row", [
    (-1, 0), ("ncols", 0), (10**20, 0), (0, -1), (0, "nrows"), (0, 10**20)])
def test_readers_refuse_meshes_outside_the_grid(small_aoi, tmp_path, reader,
                                                tail, col, row):
    ncols, nrows = small_aoi.grid_shape(100)
    col = ncols if col == "ncols" else col
    row = nrows if row == "nrows" else row
    header = _COMBINED_HEADER if reader is read_combined_csv else _FIELD_HEADER
    p = tmp_path / "table.csv"
    p.write_text(header + f"{_mesh(100, ncols - 1, nrows - 1, small_aoi)},"
                 f"{tail}\n{_mesh(100, col, row, small_aoi)},{tail}\n")
    with pytest.raises(PointParseError,
                       match=f"^line 3: mesh col {col}, row {row} outside"):
        reader(p, small_aoi)


@pytest.mark.parametrize("write, read, table", [
    (write_field_csv, read_field_csv, lambda aoi: _field(aoi)),
    (write_combined_csv, read_combined_csv,
     lambda aoi: map_of(100, aoi, {(3, 7): 0.25, (0, 0): 0.5, (9, 2): 1.0}))])
@pytest.mark.parametrize("lat, lon, refused", [
    (0.0, 0.0, False), (0.9e-9, -0.9e-9, False), (1.5e-9, 0.0, True),
    (0.0, -2e-9, True), (0.1, 0.0, True), ("nan", 0.0, True),
    ("north", 0.0, True)])
def test_readers_compare_centers_with_the_area(small_aoi, tmp_path, write,
                                               read, table, lat, lon,
                                               refused):
    p = tmp_path / "table.csv"
    write(table(small_aoi), p)
    lines = p.read_text().splitlines()
    cells = lines[2].split(",")
    cells[3] = lat if isinstance(lat, str) else repr(float(cells[3]) + lat)
    cells[4] = repr(float(cells[4]) + lon)
    lines[2] = ",".join(cells)
    p.write_text("\n".join(lines) + "\n")
    if not refused:
        back = read(p, small_aoi)
        assert back.col.tolist() == table(small_aoi).col.tolist()
        return
    with pytest.raises(PointParseError, match="^line 3: ") as err:
        read(p, small_aoi)
    if lat != "north":
        c, r = cells[1:3]
        want = mesh_center(MeshId(100, int(c), int(r)), small_aoi)
        assert (f"mesh col {c}, row {r} is centered at" in str(err.value)
                and f"puts its center at {want.lat!r}, {want.lon!r}"
                in str(err.value))


def test_readers_refuse_a_shifted_area(small_aoi, tmp_path):
    # the same size 0.01 degrees east: every mesh is inside its grid
    shifted = AreaOfInterest.from_bounds(139.31, 139.36, 35.5, 35.53)
    assert shifted.grid_shape(100) == small_aoi.grid_shape(100)
    p = tmp_path / "field.csv"
    write_field_csv(_field(small_aoi), p)
    with pytest.raises(PointParseError, match="^line 2: mesh col 0, row 0 "):
        read_field_csv(p, shifted)
    write_combined_csv(map_of(100, small_aoi, {(5, 5): 1.0}), p)
    with pytest.raises(PointParseError, match="^line 2: mesh col 5, row 5 "):
        read_combined_csv(p, shifted)
