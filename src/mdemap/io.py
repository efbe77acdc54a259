"""Readers and writers for the on-disk formats.

Floats are written with repr (shortest round-trip form), so re-parsing
an output CSV reproduces the in-memory values bit for bit and re-running
a command yields byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PointParseError
from .evaluation import PrecisionCurve, RecallCurve, Station
from .field import ALL_TIME, MAX_ENTROPY, MdeField
from .fusion import CombinedMap
from .ingest import (ParseResult, _Block, _columns, _csv_blocks,
                     _floats_at, _lat_lon, _records)
from .mesh import AreaOfInterest, GeoPoint, mesh_centers, mesh_corners

FIELD_HEADER = ("scale_m", "col", "row", "center_lat", "center_lon",
                "count", "entropy_nats", "entropy_norm")
STATION_HEADER = ("name", "lat", "lon", "rank")
CURVE_HEADER = ("x", "value")
# Relative slack above ln 100 for an entropy read back: the sum of 100
# equal p*log(p) terms may round past it.
ENTROPY_SLACK = 1e-12
_MAX_READ = MAX_ENTROPY * (1 + ENTROPY_SLACK)


def _fmt(v: float) -> str:
    return repr(float(v))


# Rows (meshes or points) turned into text and written at a time.
_CHUNK_ROWS = 1 << 14
# Furthest, in degrees, that a mesh center read back may lie from the
# center the given area puts it at; files mdemap writes match exactly.
CENTER_TOLERANCE_DEG = 1e-9


def _chunks(n: int) -> Iterator[slice]:
    return (slice(i, i + _CHUNK_ROWS) for i in range(0, n, _CHUNK_ROWS))


def _distinct_texts(values: np.ndarray, text=repr) -> np.ndarray:
    """``text(v)`` of each float64 value as an object array, made once per
    bit pattern (-0.0, 0.0 and NaN keep their own): mesh centers, edges and
    combined scores repeat along grid lines and over coarse meshes."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([text(v) for v in bits.view(np.float64).tolist()],
                    dtype=object)[inverse]


def _write_mesh_rows(path, header, aoi: AreaOfInterest, scale_m, col, row,
                     tails) -> None:
    """One row per mesh, ``scale_m,col,row,center_lat,center_lon,<tail>``.

    ``tails(sl)`` gives the tail texts of the meshes in slice ``sl``.
    Rows keep the order given and end in ``\\r\\n``, as the csv module's
    default dialect writes them; no field needs quoting.
    """
    lat, lon = map(_distinct_texts, mesh_centers(scale_m, col, row, aoi))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for sl in _chunks(col.size):
            f.write("".join([
                f"{scale_m},{c},{r},{la},{lo},{t}\r\n"
                for c, r, la, lo, t in zip(col[sl].tolist(), row[sl].tolist(),
                                           lat[sl].tolist(), lon[sl].tolist(),
                                           tails(sl))]))


def _texts(values: np.ndarray, undefined: str) -> list[str]:
    """``repr`` of every value, ``undefined`` for NaN."""
    return [undefined if math.isnan(v) else repr(v) for v in values.tolist()]


def write_field_csv(field: MdeField, path) -> None:
    """Rows in the field's (row, col) order; undefined meshes leave entropy empty."""
    n, h = field.count, field.entropy
    _write_mesh_rows(path, FIELD_HEADER, field.aoi, field.scale_m, field.col,
                     field.row, lambda sl: map(
                         "{},{},{}".format, n[sl].tolist(), _texts(h[sl], ""),
                         _texts(h[sl] / MAX_ENTROPY, "")))


def _field_values(n: str, h: str) -> tuple[int, float]:
    n = int(n)
    if not 0 <= n < 2**63:          # the range of int64 counts
        raise ValueError(f"count {n} outside [0, 2**63)")
    if not h:
        return n, math.nan
    if not 0.0 <= (h := float(h)) <= _MAX_READ:
        raise ValueError(f"entropy {h!r} outside [0, ln 100]")
    return n, h


def _field_bulk(ok: np.ndarray, n: list, h: list) -> tuple:
    n = np.array(n, dtype=np.int64)
    given = np.fromiter(map(len, h), np.int64, len(h)) > 0
    h = _floats_at(h, given)        # NaN where empty or refused
    ok &= (n >= 0) & (~given | ((h >= 0.0) & (h <= _MAX_READ)))
    return n, h


def _score(v: str) -> tuple[float]:
    if not math.isfinite(v := float(v)):
        raise ValueError(f"non-finite score {v!r}")
    return (v,)


def _score_bulk(ok: np.ndarray, v: list) -> tuple:
    v = _floats_at(v, np.ones(len(v), dtype=bool))
    ok &= np.isfinite(v)
    return (v,)


# Value columns, per-row rule and bulk check (it clears ``ok``) by kind.
_KINDS = {"field": (("count", "entropy_nats"), _field_values, _field_bulk),
          "combined": (("score",), _score, _score_bulk)}


class _MeshRows:
    """A mesh CSV's per-row rule, the one that words its errors (mixed
    scales, meshes outside ``aoi``'s grid, centers off ``aoi``'s, bad
    values), and the bulk checks, which pass only rows the rule accepts."""

    def __init__(self, header: list, aoi: AreaOfInterest, kind: str):
        columns, self.values, self.bulk = _KINDS[kind]
        for name in FIELD_HEADER[:5] + columns:
            if name not in header:
                raise PointParseError(f"{kind} file has no {name} column",
                                      line_no=1)
        self.pos = [header.index(c) for c in FIELD_HEADER[:5] + columns]
        self.k, self.aoi, self.kind, self.scale = len(header), aoi, kind, None

    def __call__(self, rec: list, line: int) -> tuple:
        """(line, col, row, *values) of one record's cells."""
        try:
            s, c, r, la, lo, *rest = [rec[i] for i in self.pos]
            s, c, r = int(s), int(c), int(r)
            if self.scale is None:
                if s <= 0:
                    raise ValueError(f"mesh scale {s} is not positive")
                self.scale, self.shape = s, self.aoi.grid_shape(s)
            elif s != self.scale:
                raise ValueError(f"mixed scales in one {self.kind} file")
            ncols, nrows = self.shape
            if not (0 <= c < ncols and 0 <= r < nrows):
                raise ValueError(f"mesh col {c}, row {r} outside the {ncols} "
                                 f"x {nrows} grid of {s} m meshes")
            want_lat, want_lon = map(float, mesh_centers(s, c, r, self.aoi))
            la, lo = float(la), float(lo)
            if not (abs(la - want_lat) <= CENTER_TOLERANCE_DEG
                    and abs(lo - want_lon) <= CENTER_TOLERANCE_DEG):
                raise ValueError(
                    f"mesh col {c}, row {r} is centered at {la!r}, {lo!r}; "
                    f"the given area of interest puts its center at "
                    f"{want_lat!r}, {want_lon!r}")
            return (line, c, r, *self.values(*rest))
        except (IndexError, ValueError) as exc:
            raise PointParseError(str(exc), line_no=line) from exc

    def block(self, block: _Block, rows: list):
        """Columns (line, col, row, *values) of the full records of
        ``block`` that pass the bulk checks, or None; the rule takes the
        others. While no scale is set, the rule first checks the block's
        first record, which sets it."""
        if self.scale is None:
            for line, cells in block.rows(np.arange(len(block.line)) > 0)[:1]:
                self(cells, line)
            if self.scale is None:      # no record
                return None
        text = [block.cells[i::self.k] for i in self.pos]
        try:
            s, c, r = (np.array(t, dtype=np.int64) for t in text[:3])
            (ncols, nrows), scale = self.shape, self.scale
            ok = (s == scale) & (c >= 0) & (c < ncols) & (r >= 0) & (r < nrows)
            c, r = np.where(ok, c, 0), np.where(ok, r, 0)
            # the center texts mdemap writes
            for want, got in zip(mesh_centers(scale, c, r, self.aoi),
                                 text[3:5]):
                ok &= _distinct_texts(want) == np.array(got, dtype=object)
            part = [v[ok] for v in (block.line, c, r,
                                    *self.bulk(ok, *text[5:]))]
        except (ValueError, OverflowError):
            part, ok = None, np.zeros(len(block.line), bool)  # all to the rule
        rows += [self(cells, line) for line, cells in block.rows(ok)]
        return part


def _read_mesh_csv(path, aoi: AreaOfInterest, kind: str):
    """(scale, [col, row, *values]) of a mesh CSV, in (row, col) order.

    The full records of each ``_Block`` are checked in bulk; the rule takes
    the records those checks refuse, and the others. The first line
    repeating a mesh is refused."""
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        blocks = _csv_blocks(f)
        rule, rows = _MeshRows(next(blocks, []), aoi, kind), []
        # map holds no block while the next is read
        parts = list(map(rule.block, blocks, repeat(rows)))
    if rule.scale is None:
        raise PointParseError(f"{kind} file has no rows")
    parts.append([np.array(c) for c in zip(*rows)])
    line, col, row, *values = map(np.concatenate, zip(*filter(None, parts)))
    order = np.lexsort((line, col, row))
    c, r = col[order], row[order]
    later = order[1:][(c[1:] == c[:-1]) & (r[1:] == r[:-1])]
    if later.size:
        i = later[np.argmin(line[later])]
        raise PointParseError(f"repeated mesh col {col[i]}, row {row[i]}",
                              line_no=int(line[i]))
    return rule.scale, [c, r, *(v[order] for v in values)]


def read_field_csv(path, aoi: AreaOfInterest) -> MdeField:
    scale, columns = _read_mesh_csv(path, aoi, "field")
    return MdeField(scale, ALL_TIME, aoi, *columns)


def write_combined_csv(cmap: CombinedMap, path) -> None:
    """Field schema plus a score column; count/entropy stay empty."""
    tails = _distinct_texts(cmap.scores, ",,,{!r}".format)
    _write_mesh_rows(path, FIELD_HEADER + ("score",), cmap.aoi,
                     cmap.base_scale_m, cmap.col, cmap.row,
                     lambda sl: tails[sl].tolist())


def read_combined_csv(path, aoi: AreaOfInterest) -> CombinedMap:
    """Rebuild a combined map; contributing scales live in the summary."""
    scale, columns = _read_mesh_csv(path, aoi, "combined")
    return CombinedMap(scale, aoi, *columns, ())


def write_peaks_csv(cmap: CombinedMap, peaks: np.ndarray, path) -> None:
    """The meshes ``peaks`` indexes, in its order; rows end in ``\\n``."""
    base, col, row = cmap.base_scale_m, cmap.col[peaks], cmap.row[peaks]
    lat, lon = mesh_centers(base, col, row, cmap.aoi)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("scale_m,col,row,center_lat,center_lon,score\n")
        f.writelines(f"{base},{c},{r},{la!r},{lo!r},{v!r}\n"
                     for c, r, la, lo, v in zip(
                         col.tolist(), row.tolist(), lat.tolist(),
                         lon.tolist(), cmap.scores[peaks].tolist()))


def _write_csv(path, header: tuple, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([header, *rows])


def write_stations_csv(stations: Sequence[Station], path) -> None:
    _write_csv(path, STATION_HEADER, [(s.name, _fmt(s.pos.lat),
                                       _fmt(s.pos.lon), s.rank)
                                      for s in stations])


def read_stations_csv(path) -> list[Station]:
    """The stations of a file, each of a distinct rank of at least 1."""
    stations, first = [], {}        # first[rank]: the line that holds it
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        blocks = _csv_blocks(f)
        header = next(blocks, [])
        for name in STATION_HEADER:
            if name not in header:
                raise PointParseError(f"stations file has no {name} column",
                                      line_no=1)
        record = _records(header)
        for block in blocks:
            for line, cells in block.rows(np.zeros(len(block.line), bool)):
                rec = record(cells)
                try:
                    station = Station(rec["name"], GeoPoint(*_lat_lon(rec)),
                                      int(rec["rank"]))
                    rank = station.rank
                    if rank < 1:
                        raise ValueError(f"station rank {rank} is below 1")
                    if first.setdefault(rank, line) != line:
                        raise ValueError(f"station rank {rank} is already "
                                         f"on line {first[rank]}")
                except (TypeError, ValueError) as exc:
                    raise PointParseError(str(exc), line_no=line) from exc
                stations.append(station)
    if not stations:
        raise PointParseError("stations file has no rows")
    return stations


def write_recall_csv(curve: RecallCurve, path) -> None:
    """x = radius in km, value = stations within x of a top-K center."""
    _write_csv(path, CURVE_HEADER, [(_fmt(r), c) for r, c in zip(
        curve.radii_km, curve.counts)])


def write_precision_csv(curves: Sequence[PrecisionCurve], threshold_m: float,
                        path) -> None:
    """x = top-mesh count, value = percent within one threshold."""
    _write_csv(path, CURVE_HEADER, [
        (cur.x, _fmt(cur.percentages[cur.thresholds_m.index(threshold_m)]))
        for cur in curves])


def _csv_text(cell: str) -> str:
    """A text cell as ``csv.writer`` writes it by default (QUOTE_MINIMAL)."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _has_extras(points: ParseResult) -> bool:
    return not (np.isnan(points.heading).all()
                and np.isnan(points.speed).all())


def write_points_csv(blocks: Iterable[ParseResult], path) -> None:
    """Standard points file of blocks of ``ParseResult``; heading/speed
    columns only when a point of the first block has them.

    Bytes are those of ``csv.writer`` over the rows of every block: ids
    quoted where needed, integral times as ints, floats with ``repr``,
    absent heading/speed empty. A later block with a heading or speed
    where the first has no column for it raises ValueError.
    """
    blocks = iter(blocks)
    first = next(blocks, _columns([]))
    extras = _has_extras(first)
    names = ("user_id", "timestamp", "lat", "lon", "heading", "speed")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(names[:6 if extras else 4]) + "\r\n")
        for block in chain([first], blocks):
            if _has_extras(block) > extras:
                raise ValueError("a block after the first has heading or "
                                 "speed values, and the first has none")
            _write_point_rows(f, block, extras)


def _write_point_rows(f, points: ParseResult, extras: bool) -> None:
    for sl in _chunks(len(points)):
        ids = points.user_id[sl].tolist()
        text = {u: _csv_text(u) for u in set(ids)}
        tails = (map(",{},{}".format, _texts(points.heading[sl], ""),
                     _texts(points.speed[sl], ""))
                 if extras else repeat(""))
        f.write("".join([
            f"{u},{t},{la!r},{lo!r}{x}\r\n" for u, t, la, lo, x in zip(
                map(text.__getitem__, ids),
                _distinct_texts(points.t[sl], lambda t: str(int(t)) if
                                t.is_integer() else repr(t)).tolist(),
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
    south, north, west, east = map(_distinct_texts,
                                   mesh_corners(scale_m, col, row, table.aoi))
    yield '{"features":['
    for sl in _chunks(col.size):
        props = map(template, *(values[k](sl) for k in keys))
        yield ("," if sl.start else "") + ",".join([
            f'{{"geometry":{{"coordinates":[[[{w},{s}],[{e},{s}],[{e},{n}],'
            f'[{w},{n}],[{w},{s}]]],"type":"Polygon"}},"properties":{{{p}}},'
            f'"type":"Feature"}}'
            for s, n, w, e, p in zip(south[sl].tolist(), north[sl].tolist(),
                                     west[sl].tolist(), east[sl].tolist(),
                                     props)])
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
    score = _distinct_texts(cmap.scores,
                            lambda v: "null" if math.isnan(v) else repr(v))
    return _geojson(cmap, cmap.base_scale_m,
                    score=lambda sl: score[sl].tolist())


def write_geojson(chunks: Iterable[str], path) -> None:
    """Write GeoJSON text given in chunks, ending in a line end."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(chunks)
        f.write("\n")


def write_summary(summary: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, sort_keys=True, indent=2, allow_nan=False)
        f.write("\n")
