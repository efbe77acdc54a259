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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PointParseError
from .evaluation import (PrecisionCurve, RecallCurve, Station, check_stations)
from .field import ALL_TIME, MAX_ENTROPY, MdeField, TimeWindow
from .fusion import CombinedMap
from .ingest import ParseResult
from .mesh import (AreaOfInterest, GeoPoint, MeshId, mesh_center, mesh_centers,
                   mesh_corners)

FIELD_HEADER = ("scale_m", "col", "row", "center_lat", "center_lon",
                "count", "entropy_nats", "entropy_norm")
STATION_HEADER = ("name", "lat", "lon", "rank")
CURVE_HEADER = ("x", "value")
# Relative slack above ln 100 for an entropy read back: the sum of 100
# equal p*log(p) terms may round past it.
ENTROPY_SLACK = 1e-12


def _fmt(v: float) -> str:
    return repr(float(v))


# Rows (meshes or points) turned into text and written at a time.
_CHUNK_ROWS = 1 << 14
# Furthest, in degrees, that a mesh center read back may lie from the
# center the given area puts it at; files mdemap writes match exactly.
CENTER_TOLERANCE_DEG = 1e-9


def _chunks(n: int) -> Iterator[slice]:
    return (slice(i, i + _CHUNK_ROWS) for i in range(0, n, _CHUNK_ROWS))


def _per_line(values, index: np.ndarray):
    """``repr`` of one value per grid line, looked up by mesh.

    ``values(lines)`` gives the coordinate of each grid line in
    ``lines``; it is called once, for the lines that ``index`` holds, and
    the result maps an ``index`` slice to the texts of its meshes.
    """
    lo = int(index.min()) if index.size else 0
    present = np.zeros(int(index.max()) - lo + 1 if index.size else 0, bool)
    present[index - lo] = True
    text = [repr(v) for v in values(np.flatnonzero(present) + lo).tolist()]
    at = np.cumsum(present) - 1     # where each line's text is in ``text``
    return lambda sl: [text[i] for i in at[index[sl] - lo].tolist()]


def _write_mesh_rows(path, header, aoi: AreaOfInterest, scale_m, col, row,
                     tails) -> None:
    """One row per mesh, ``scale_m,col,row,center_lat,center_lon,<tail>``.

    ``tails(sl)`` gives the tail texts of the meshes in slice ``sl``.
    Rows keep the order given and end in ``\\r\\n``, as the csv module's
    default dialect writes them; no field needs quoting. A center's
    latitude depends on the row alone and its longitude on the column.
    """
    lat = _per_line(lambda r: mesh_centers(scale_m, 0, r, aoi)[0], row)
    lon = _per_line(lambda c: mesh_centers(scale_m, c, 0, aoi)[1], col)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for sl in _chunks(col.size):
            f.write("".join([
                f"{scale_m},{c},{r},{la},{lo},{t}\r\n"
                for c, r, la, lo, t in zip(col[sl].tolist(), row[sl].tolist(),
                                           lat(sl), lon(sl), tails(sl))]))


def _texts(values: np.ndarray, undefined: str) -> list[str]:
    """``repr`` of every value, ``undefined`` for NaN."""
    return [undefined if math.isnan(v) else repr(v) for v in values.tolist()]


def write_field_csv(field: MdeField, path) -> None:
    """Rows in the field's (row, col) order; undefined meshes leave entropy empty."""
    def tails(sl):
        h = field.entropy[sl]
        return map("{},{},{}".format, field.count[sl].tolist(), _texts(h, ""),
                   _texts(h / MAX_ENTROPY, ""))
    _write_mesh_rows(path, FIELD_HEADER, field.aoi, field.scale_m,
                     field.col, field.row, tails)


class _CenterText(dict):
    """``repr`` of one center coordinate per grid line, made on first use."""

    def __init__(self, coordinate):
        super().__init__()
        self.coordinate = coordinate

    def __missing__(self, line: int) -> str:
        text = self[line] = repr(self.coordinate(line))
        return text


def _mesh_rows(path, aoi: AreaOfInterest, columns: tuple[str, ...],
               kind: str):
    """Yield (line number, scale, col, row, other ``columns`` as str).

    Rows of more than one scale, meshes outside the grid that
    ``aoi.grid_shape`` gives, and centers further than
    ``CENTER_TOLERANCE_DEG`` from where ``aoi`` puts them (a file written
    for another area) are a ``PointParseError`` naming the line.
    """
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        names = ("scale_m", "col", "row", "center_lat", "center_lon") + columns
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
                s, c, r, la, lo, *rest = [rec[i] for i in pos]
                s, c, r = int(s), int(c), int(r)
            except (IndexError, ValueError) as exc:
                raise PointParseError(str(exc), line_no=line) from exc
            if scale is None:
                if s <= 0:
                    raise PointParseError(f"mesh scale {s} is not positive",
                                          line_no=line)
                scale = s
                ncols, nrows = aoi.grid_shape(s)
                # the text mdemap writes for each row's latitude and each
                # column's longitude
                lat_text = _CenterText(
                    lambda r: mesh_center(MeshId(scale, 0, r), aoi).lat)
                lon_text = _CenterText(
                    lambda c: mesh_center(MeshId(scale, c, 0), aoi).lon)
            elif s != scale:
                raise PointParseError(f"mixed scales in one {kind} file",
                                      line_no=line)
            if not (0 <= c < ncols and 0 <= r < nrows):
                raise PointParseError(
                    f"mesh col {c}, row {r} outside the {ncols} x {nrows} "
                    f"grid of {s} m meshes", line_no=line)
            if la != lat_text[r] or lo != lon_text[c]:
                _check_center(line, c, r, la, lo, float(lat_text[r]),
                              float(lon_text[c]))
            yield line, s, c, r, rest
    if scale is None:
        raise PointParseError(f"{kind} file has no rows")


def _check_center(line: int, col: int, row: int, lat: str, lon: str,
                  want_lat: float, want_lon: float) -> None:
    try:
        la, lo = float(lat), float(lon)
    except ValueError as exc:
        raise PointParseError(str(exc), line_no=line) from exc
    if not (abs(la - want_lat) <= CENTER_TOLERANCE_DEG
            and abs(lo - want_lon) <= CENTER_TOLERANCE_DEG):
        raise PointParseError(
            f"mesh col {col}, row {row} is centered at {la!r}, {lo!r}; the "
            f"given area of interest puts its center at {want_lat!r}, "
            f"{want_lon!r}", line_no=line)


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
            if not 0 <= n < 2**63:          # the range of int64 counts
                raise ValueError(f"count {n} outside [0, 2**63)")
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
                     lambda sl: [f",,,{v!r}" for v in cmap.scores[sl].tolist()])


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


def _csv_text(cell: str) -> str:
    """A text cell as ``csv.writer`` writes it by default (QUOTE_MINIMAL)."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _times_text(t: np.ndarray) -> list[str]:
    """Integral times as ints, others with ``repr``; once per distinct value."""
    distinct, inverse = np.unique(t, return_inverse=True)
    text = [str(int(v)) if v.is_integer() else repr(v)
            for v in distinct.tolist()]
    return [text[i] for i in inverse.tolist()]


def write_points_csv(points: ParseResult, path) -> None:
    """Standard points file; heading/speed columns only when any point has them.

    Bytes are those of ``csv.writer``: ids quoted where needed, integral
    times as ints, floats with ``repr``, absent heading/speed empty.
    """
    extras = not (np.isnan(points.heading).all()
                  and np.isnan(points.speed).all())
    names = ("user_id", "timestamp", "lat", "lon", "heading", "speed")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(names[:6 if extras else 4]) + "\r\n")
        for sl in _chunks(len(points)):
            ids = points.user_id[sl].tolist()
            text = {u: _csv_text(u) for u in set(ids)}
            tails = (map(",{},{}".format, _texts(points.heading[sl], ""),
                         _texts(points.speed[sl], ""))
                     if extras else repeat(""))
            f.write("".join([
                f"{u},{t},{la!r},{lo!r}{x}\r\n" for u, t, la, lo, x in zip(
                    map(text.__getitem__, ids), _times_text(points.t[sl]),
                    points.lat[sl].tolist(), points.lon[sl].tolist(), tails)]))


def _geojson(table, scale_m: int, **values) -> Iterator[str]:
    """A polygon per mesh of ``table``, as compact ``json.dumps`` with sorted
    keys writes it, in chunks of text; ``values[name](sl)`` gives the JSON
    text of property ``name`` for the meshes in slice ``sl``."""
    col, row = table.col, table.row
    values.update(col=lambda sl: col[sl].tolist(),
                  row=lambda sl: row[sl].tolist(),
                  scale_m=lambda sl: repeat(scale_m))
    keys = sorted(values)
    template = ",".join(f'"{k}":{{}}' for k in keys).format
    # south and north edges depend on the row alone, west and east on the
    # column alone
    south = _per_line(lambda r: mesh_corners(scale_m, 0, r, table.aoi)[0], row)
    north = _per_line(lambda r: mesh_corners(scale_m, 0, r, table.aoi)[1], row)
    west = _per_line(lambda c: mesh_corners(scale_m, c, 0, table.aoi)[2], col)
    east = _per_line(lambda c: mesh_corners(scale_m, c, 0, table.aoi)[3], col)
    yield '{"features":['
    for sl in _chunks(col.size):
        props = map(template, *(values[k](sl) for k in keys))
        yield ("," if sl.start else "") + ",".join([
            f'{{"geometry":{{"coordinates":[[[{w},{s}],[{e},{s}],[{e},{n}],'
            f'[{w},{n}],[{w},{s}]]],"type":"Polygon"}},"properties":{{{p}}},'
            f'"type":"Feature"}}'
            for s, n, w, e, p in zip(south(sl), north(sl), west(sl),
                                     east(sl), props)])
    yield '],"type":"FeatureCollection"}'


def field_geojson(field: MdeField) -> Iterator[str]:
    """GeoJSON text of a field in chunks; undefined entropies are ``null``."""
    return _geojson(
        field, field.scale_m, count=lambda sl: field.count[sl].tolist(),
        entropy_nats=lambda sl: _texts(field.entropy[sl], "null"),
        entropy_norm=lambda sl: _texts(field.entropy[sl] / MAX_ENTROPY,
                                       "null"))


def combined_geojson(cmap: CombinedMap) -> Iterator[str]:
    """GeoJSON text of a combined map in chunks."""
    return _geojson(cmap, cmap.base_scale_m,
                    score=lambda sl: _texts(cmap.scores[sl], "null"))


def write_geojson(chunks: Iterable[str], path) -> None:
    """Write GeoJSON text given in chunks, ending in a line end."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(chunks)
        f.write("\n")


def write_summary(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
