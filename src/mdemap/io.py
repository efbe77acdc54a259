"""Readers and writers for the on-disk formats.

Floats are written with repr (shortest round-trip form), so re-parsing
an output CSV reproduces the in-memory values bit for bit and re-running
a command yields byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import PointParseError
from .evaluation import (PrecisionCurve, RecallCurve, Station, check_stations)
from .field import ALL_TIME, MAX_ENTROPY, MdeField, TimeWindow
from .fusion import CombinedMap
from .ingest import ParseResult, TrajectoryPoint
from .mesh import AreaOfInterest, GeoPoint, mesh_centers, mesh_corners

FIELD_HEADER = ("scale_m", "col", "row", "center_lat", "center_lon",
                "count", "entropy_nats", "entropy_norm")
STATION_HEADER = ("name", "lat", "lon", "rank")
CURVE_HEADER = ("x", "value")
# Relative slack above ln 100 for an entropy read back: the sum of 100
# equal p*log(p) terms may round past it.
ENTROPY_SLACK = 1e-12


def _fmt(v: float) -> str:
    return repr(float(v))


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of every value, formatted once per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    text = [repr(v) for v in distinct.tolist()]
    return [text[i] for i in inverse.tolist()]


def _write_mesh_rows(path, header, aoi: AreaOfInterest, scale_m, col, row,
                     tails: list[str]) -> None:
    """One row per mesh, ``scale_m,col,row,center_lat,center_lon,<tail>``.

    Rows keep the order given and end in ``\\r\\n``, as the csv module's
    default dialect writes them; no field needs quoting. A center
    coordinate depends on one grid index only, so few are distinct.
    """
    lat, lon = mesh_centers(scale_m, col, row, aoi)
    scale = np.broadcast_to(scale_m, np.shape(col)).tolist()
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.writelines([
            f"{s},{c},{r},{la},{lo},{t}\r\n"
            for s, c, r, la, lo, t in zip(scale, col.tolist(), row.tolist(),
                                          _reprs(lat), _reprs(lon), tails)])


def _texts(values: np.ndarray, undefined: str) -> list[str]:
    """``repr`` of every value, ``undefined`` for NaN."""
    return [undefined if math.isnan(v) else repr(v) for v in values.tolist()]


def write_field_csv(field: MdeField, path) -> None:
    """Rows in the field's (row, col) order; undefined meshes leave entropy empty."""
    tails = [f"{n},{h},{hn}" for n, h, hn in zip(
        field.count.tolist(), _texts(field.entropy, ""),
        _texts(field.entropy / MAX_ENTROPY, ""))]
    _write_mesh_rows(path, FIELD_HEADER, field.aoi, field.scale_m,
                     field.col, field.row, tails)


def _mesh_rows(path, aoi: AreaOfInterest, columns: tuple[str, ...],
               kind: str):
    """Yield (line number, scale, col, row, other ``columns`` as str).

    Rows of more than one scale, and meshes outside the grid that
    ``aoi.grid_shape`` gives, are a ``PointParseError`` naming the line.
    """
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        names = ("scale_m", "col", "row") + columns
        missing = [c for c in names if c not in header]
        if missing:
            raise PointParseError(f"{kind} file has no {missing[0]} column",
                                  line_no=1)
        pos = [header.index(c) for c in names]
        scale = None
        for rec in reader:
            if not rec:
                continue
            line = reader.line_num
            try:
                s, c, r, *rest = [rec[i] for i in pos]
                s, c, r = int(s), int(c), int(r)
            except (IndexError, ValueError) as exc:
                raise PointParseError(str(exc), line_no=line) from exc
            if scale is None:
                if s <= 0:
                    raise PointParseError(f"mesh scale {s} is not positive",
                                          line_no=line)
                scale = s
                ncols, nrows = aoi.grid_shape(s)
            elif s != scale:
                raise PointParseError(f"mixed scales in one {kind} file",
                                      line_no=line)
            if not (0 <= c < ncols and 0 <= r < nrows):
                raise PointParseError(
                    f"mesh col {c}, row {r} outside the {ncols} x {nrows} "
                    f"grid of {s} m meshes", line_no=line)
            yield line, s, c, r, rest
    if scale is None:
        raise PointParseError(f"{kind} file has no rows")


def _grid_order(lines: list, col: list, row: list, *values: np.ndarray):
    """``col``, ``row`` and ``values`` as arrays in (row, col) order.

    A mesh on two rows is a ``PointParseError`` naming the first line
    that repeats an earlier one.
    """
    c = np.array(col, dtype=np.int64)
    r = np.array(row, dtype=np.int64)
    order = np.lexsort((c, r))
    c, r = c[order], r[order]
    # the sort is stable, so the later row of a pair sorts second
    later = order[1:][(c[1:] == c[:-1]) & (r[1:] == r[:-1])]
    if later.size:
        i = int(later.min())
        raise PointParseError(f"repeated mesh col {col[i]}, row {row[i]}",
                              line_no=lines[i])
    return [c, r, *(v[order] for v in values)]


def read_field_csv(path, aoi: AreaOfInterest,
                   window: TimeWindow = ALL_TIME) -> MdeField:
    lines, col, row, count, ent = [], [], [], [], []
    for line, scale, c, r, (n, h) in _mesh_rows(
            path, aoi, ("count", "entropy_nats"), "field"):
        try:
            n = int(n)
            if n < 0:
                raise ValueError(f"negative count {n}")
            if h:
                h = float(h)
                if not 0.0 <= h <= MAX_ENTROPY * (1 + ENTROPY_SLACK):
                    raise ValueError(f"entropy {h!r} outside [0, ln 100]")
            else:
                h = math.nan
        except ValueError as exc:
            raise PointParseError(str(exc), line_no=line) from exc
        lines.append(line)
        col.append(c)
        row.append(r)
        count.append(n)
        ent.append(h)
    return MdeField(scale, window, aoi, *_grid_order(
        lines, col, row, np.array(count, dtype=np.int64),
        np.array(ent, dtype=np.float64)))


def write_combined_csv(cmap: CombinedMap, path) -> None:
    """Field schema plus a score column; count/entropy stay empty."""
    _write_mesh_rows(path, FIELD_HEADER + ("score",), cmap.aoi,
                     cmap.base_scale_m, cmap.col, cmap.row,
                     [f",,,{v!r}" for v in cmap.scores.tolist()])


def read_combined_csv(path, aoi: AreaOfInterest) -> CombinedMap:
    """Rebuild a combined map; contributing scales live in the summary."""
    lines, col, row, scores = [], [], [], []
    for line, scale, c, r, (v,) in _mesh_rows(path, aoi, ("score",),
                                                "combined"):
        try:
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"non-finite score {v!r}")
        except ValueError as exc:
            raise PointParseError(str(exc), line_no=line) from exc
        lines.append(line)
        col.append(c)
        row.append(r)
        scores.append(v)
    return CombinedMap(scale, aoi, *_grid_order(
        lines, col, row, np.array(scores, dtype=np.float64)), ())


def write_stations_csv(stations: Sequence[Station], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(STATION_HEADER)
        for s in stations:
            w.writerow((s.name, _fmt(s.pos.lat), _fmt(s.pos.lon), s.rank))


def read_stations_csv(path) -> list[Station]:
    stations: list[Station] = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        for rec in reader:
            try:
                stations.append(Station(
                    rec["name"],
                    GeoPoint(float(rec["lat"]), float(rec["lon"])),
                    int(rec["rank"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise PointParseError(str(exc),
                                      line_no=reader.line_num) from exc
    check_stations(stations)
    return stations


def write_recall_csv(curve: RecallCurve, path) -> None:
    """x = radius in km, value = stations within x of a top-K center."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(CURVE_HEADER)
        for r, c in zip(curve.radii_km, curve.counts):
            w.writerow((_fmt(r), c))


def write_precision_csv(curves: Sequence[PrecisionCurve], threshold_m: float,
                        path) -> None:
    """x = top-mesh count, value = percent within one threshold."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(CURVE_HEADER)
        for cur in curves:
            i = cur.thresholds_m.index(threshold_m)
            w.writerow((cur.x, _fmt(cur.percentages[i])))


def write_points_csv(points: ParseResult | Iterable[TrajectoryPoint],
                     path) -> None:
    """Standard points file; heading/speed columns only when any point has them."""
    cols = (points if isinstance(points, ParseResult)
            else ParseResult.from_points(points))
    columns = [cols.user_id.tolist(),
               map(lambda t: int(t) if t.is_integer() else t, cols.t.tolist()),
               cols.lat.tolist(), cols.lon.tolist()]
    if not (np.isnan(cols.heading).all() and np.isnan(cols.speed).all()):
        columns += [_texts(cols.heading, ""), _texts(cols.speed, "")]
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)     # writes floats as repr
        w.writerow(("user_id", "timestamp", "lat", "lon", "heading",
                    "speed")[:len(columns)])
        w.writerows(zip(*columns))


def _geojson(table, scale_m: int, **values: list[str]) -> str:
    """A polygon per mesh of ``table``, as compact ``json.dumps`` with sorted
    keys writes it; ``values`` holds the JSON text of the other properties."""
    values.update(col=table.col.tolist(), row=table.row.tolist(),
                  scale_m=repeat(scale_m))
    keys = sorted(values)
    props = map(",".join(f'"{k}":{{}}' for k in keys).format,
                *(values[k] for k in keys))
    south, north, west, east = (_reprs(e) for e in mesh_corners(
        scale_m, table.col, table.row, table.aoi))
    features = ",".join([
        f'{{"geometry":{{"coordinates":[[[{w},{s}],[{e},{s}],[{e},{n}],'
        f'[{w},{n}],[{w},{s}]]],"type":"Polygon"}},"properties":{{{p}}},'
        f'"type":"Feature"}}'
        for s, n, w, e, p in zip(south, north, west, east, props)])
    return f'{{"features":[{features}],"type":"FeatureCollection"}}'


def field_geojson(field: MdeField) -> str:
    """GeoJSON text of a field; undefined entropies are ``null``."""
    return _geojson(field, field.scale_m, count=field.count.tolist(),
                    entropy_nats=_texts(field.entropy, "null"),
                    entropy_norm=_texts(field.entropy / MAX_ENTROPY, "null"))


def combined_geojson(cmap: CombinedMap) -> str:
    return _geojson(cmap, cmap.base_scale_m,
                    score=_texts(cmap.scores, "null"))


def write_geojson(text: str, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
        f.write("\n")


def write_summary(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
