"""Readers and writers for the on-disk formats.

Floats are written with repr (shortest round-trip form), so re-parsing
an output CSV reproduces the in-memory values bit for bit and re-running
a command yields byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import PointParseError
from .evaluation import (PrecisionCurve, RecallCurve, Station, check_stations)
from .field import (ALL_TIME, MAX_ENTROPY, FieldColumns, MdeField, MeshEntry,
                    TimeWindow)
from .fusion import CombinedMap
from .ingest import TrajectoryPoint
from .mesh import AreaOfInterest, GeoPoint, MeshId, mesh_centers, mesh_corners

FIELD_HEADER = ("scale_m", "col", "row", "center_lat", "center_lon",
                "count", "entropy_nats", "entropy_norm")
STATION_HEADER = ("name", "lat", "lon", "rank")
CURVE_HEADER = ("x", "value")
# Relative slack above ln 100 for an entropy read back: the sum of 100
# equal p*log(p) terms may round past it.
ENTROPY_SLACK = 1e-12


def _fmt(v: float) -> str:
    return repr(float(v))


def _sorted_meshes(meshes: Iterable[MeshId]) -> list[MeshId]:
    return sorted(meshes, key=lambda m: (m.scale_m, m.row, m.col))


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


def write_field_csv(field: MdeField | FieldColumns, path) -> None:
    """Rows sorted by (row, col); undefined meshes leave entropy empty."""
    if isinstance(field, MdeField):
        field = FieldColumns.from_field(field)
    norm = field.entropy / MAX_ENTROPY
    tails = [f"{n},," if math.isnan(h) else f"{n},{h!r},{hn!r}"
             for n, h, hn in zip(field.count.tolist(), field.entropy.tolist(),
                                 norm.tolist())]
    _write_mesh_rows(path, FIELD_HEADER, field.aoi, field.scale_m,
                     field.col, field.row, tails)


def read_field_csv(path, aoi: AreaOfInterest,
                   window: TimeWindow = ALL_TIME) -> MdeField:
    entries: dict[MeshId, MeshEntry] = {}
    scale = None
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        for rec in reader:
            try:
                m = MeshId(int(rec["scale_m"]), int(rec["col"]),
                           int(rec["row"]))
                count = int(rec["count"])
                raw = rec["entropy_nats"]
                h = None if raw in (None, "") else float(raw)
                if count < 0:
                    raise ValueError(f"negative count {count}")
                if h is not None and not (
                        0.0 <= h <= MAX_ENTROPY * (1 + ENTROPY_SLACK)):
                    raise ValueError(f"entropy {h!r} outside [0, ln 100]")
                entries[m] = MeshEntry(count, h)
            except (KeyError, TypeError, ValueError) as exc:
                raise PointParseError(str(exc),
                                      line_no=reader.line_num) from exc
            if scale is None:
                scale = m.scale_m
            elif scale != m.scale_m:
                raise PointParseError("mixed scales in one field file",
                                      line_no=reader.line_num)
    if scale is None:
        raise PointParseError("field file has no rows")
    return MdeField(scale, window, aoi, entries)


def write_combined_csv(cmap: CombinedMap, path) -> None:
    """Field schema plus a score column; count/entropy stay empty."""
    n = len(cmap.scores)
    mesh = np.fromiter(chain.from_iterable(cmap.scores), dtype=np.int64,
                       count=3 * n).reshape(n, 3)
    scores = np.fromiter(cmap.scores.values(), dtype=np.float64, count=n)
    order = np.lexsort((mesh[:, 1], mesh[:, 2], mesh[:, 0]))
    mesh = mesh[order]
    _write_mesh_rows(path, FIELD_HEADER + ("score",), cmap.aoi, mesh[:, 0],
                     mesh[:, 1], mesh[:, 2],
                     [f",,,{v!r}" for v in scores[order].tolist()])


def read_combined_csv(path, aoi: AreaOfInterest) -> CombinedMap:
    """Rebuild a combined map; contributing scales live in the summary."""
    scores: dict[MeshId, float] = {}
    scale = None
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        for rec in reader:
            try:
                m = MeshId(int(rec["scale_m"]), int(rec["col"]),
                           int(rec["row"]))
                score = float(rec["score"])
                if not math.isfinite(score):
                    raise ValueError(f"non-finite score {score!r}")
                scores[m] = score
            except (KeyError, TypeError, ValueError) as exc:
                raise PointParseError(str(exc),
                                      line_no=reader.line_num) from exc
            scale = m.scale_m
    if scale is None:
        raise PointParseError("combined file has no rows")
    return CombinedMap(scale, aoi, scores, ())


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


def write_points_csv(points: Iterable[TrajectoryPoint], path) -> None:
    """Standard points file; heading/speed columns only when any point has them."""
    points = list(points)
    extras = any(p.heading is not None or p.speed is not None for p in points)
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(("user_id", "timestamp", "lat", "lon")
                   + (("heading", "speed") if extras else ()))
        for p in points:
            t = int(p.t) if float(p.t).is_integer() else _fmt(p.t)
            row = [p.user_id, t, _fmt(p.pos.lat), _fmt(p.pos.lon)]
            if extras:
                row.append("" if p.heading is None else _fmt(p.heading))
                row.append("" if p.speed is None else _fmt(p.speed))
            w.writerow(row)


def _ring(m: MeshId, aoi: AreaOfInterest) -> list[list[float]]:
    sw, se, ne, nw = mesh_corners(m, aoi)
    ring = [[p.lon, p.lat] for p in (sw, se, ne, nw)]
    ring.append(ring[0])
    return ring


def field_geojson(field: MdeField) -> dict:
    features = []
    for m in _sorted_meshes(field.entries):
        e = field.entries[m]
        props = {"scale_m": m.scale_m, "col": m.col, "row": m.row,
                 "count": e.count, "entropy_nats": e.entropy,
                 "entropy_norm": None if e.entropy is None
                 else e.entropy / MAX_ENTROPY}
        features.append({"type": "Feature", "properties": props,
                         "geometry": {"type": "Polygon",
                                      "coordinates": [_ring(m, field.aoi)]}})
    return {"type": "FeatureCollection", "features": features}


def combined_geojson(cmap: CombinedMap) -> dict:
    features = []
    for m in _sorted_meshes(cmap.scores):
        props = {"scale_m": m.scale_m, "col": m.col, "row": m.row,
                 "score": cmap.scores[m]}
        features.append({"type": "Feature", "properties": props,
                         "geometry": {"type": "Polygon",
                                      "coordinates": [_ring(m, cmap.aoi)]}})
    return {"type": "FeatureCollection", "features": features}


def write_geojson(obj: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def write_summary(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
