"""Readers and writers for the on-disk formats.

Every output goes through one text rule, one row engine and one file
writer. ``_texts`` writes numbers with repr (shortest round-trip form),
so re-parsing an output reproduces the in-memory values bit for bit;
``_rows`` fills a one-row ``%s`` template for a chunk of rows at a time;
``_write`` is the one ``open`` for writing, with line ends as given, so
re-running a command yields byte-identical files on any platform.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PointParseError
from .evaluation import PrecisionCurve, RecallCurve, Station
from .field import ALL_TIME, MAX_ENTROPY, MdeField
from .fusion import CombinedMap
from .ingest import (ParseResult, _REQUIRED, _Block, _concat, _coordinates,
                     _csv_blocks, _floats_at, _header, _refusal, _refuse)
from .mesh import AreaOfInterest, GeoPoint, mesh_centers, mesh_corners

FIELD_HEADER = ("scale_m", "col", "row", "center_lat", "center_lon",
                "count", "entropy_nats", "entropy_norm")
STATION_HEADER = ("name", "lat", "lon", "rank")
CURVE_HEADER = ("x", "value")
# Relative slack above ln 100 for an entropy read back: the sum of 100
# equal p*log(p) terms may round past it.
ENTROPY_SLACK = 1e-12
_MAX_READ = MAX_ENTROPY * (1 + ENTROPY_SLACK)


# Rows turned into text at a time: 2^12 keeps a chunk's texts in cache.
_CHUNK_ROWS = 1 << 12
# Furthest, in degrees, that a mesh center read back may lie from the
# center the given area puts it at; files mdemap writes match exactly.
CENTER_TOLERANCE_DEG = 1e-9


def _texts(values: np.ndarray, nan: str = "nan", text=repr) -> np.ndarray:
    """``text(v)`` of each integer or float value as an object array, made
    once per value (mesh numbers and coordinates repeat); a float once per
    float64 bit pattern, so -0.0 and 0.0 keep their own and NaN is ``nan``."""
    floats = values.dtype.kind == "f"
    bits = np.asarray(values, np.float64).view(np.int64) if floats else values
    # on 64 values or fewer, sorting out repeats costs more than it saves
    keys, inverse = (np.unique(bits, return_inverse=True) if bits.size > 64
                     else (bits, ...))
    keys = keys.view(np.float64) if floats else keys
    texts = np.array(list(map(text, keys.tolist())), dtype=object)
    texts[np.isnan(keys)] = nan
    return texts[inverse]


def _rows(line: str, columns: Sequence[np.ndarray]) -> Iterator[str]:
    """``line`` (one ``%s`` per column) filled for each row, ``_CHUNK_ROWS``
    rows at a time; ``_texts`` writes all but object columns, once each."""
    frame = line.replace("%s", "\0%s\0").split("\0")  # texts at the "%s"
    for i in range(0, len(columns[0]), _CHUNK_ROWS):
        texts = {id(c): c[i:i + _CHUNK_ROWS] for c in columns}
        texts = {k: (c if c.dtype == object else _texts(c)).tolist()
                 for k, c in texts.items()}
        m = len(texts[id(columns[0])])
        pieces = frame * m
        for j, column in enumerate(columns):
            pieces[2 * j + 1::len(frame)] = texts[id(column)]
        yield "".join(pieces)


def _write(path, chunks: Iterable[str], header: tuple = (),
           end: str = "\r\n") -> None:
    """The one ``open`` for writing: UTF-8, a ``header`` line if given."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + end if header else "")
        f.writelines(chunks)


def _write_mesh_rows(path, header: tuple, aoi: AreaOfInterest, scale_m, col,
                     row, tail: str, tails: Sequence, end="\r\n") -> None:
    """Per mesh: ``scale_m,col,row,center_lat,center_lon``, then ``tail``."""
    _write(path, _rows(f"{scale_m},%s,%s,%s,%s{tail}{end}",
                       [col, row, *mesh_centers(scale_m, col, row, aoi),
                        *tails]), header, end)


def write_field_csv(field: MdeField, path) -> None:
    """Rows in the field's (row, col) order; undefined meshes leave entropy empty."""
    h = field.entropy
    _write_mesh_rows(path, FIELD_HEADER, field.aoi, field.scale_m, field.col,
                     field.row, ",%s,%s,%s", [field.count, _texts(h, ""),
                                              _texts(h / MAX_ENTROPY, "")])


# Why a mesh row is refused, a key per check in the order they run, with the
# message its values fill; a conversion's error (``_value``) is its own.
_MESH_CHECKS = {
    "short": "list index out of range",
    "bad_scale_m": "{scale_m}", "bad_col": "{col}", "bad_row": "{row}",
    "scale": "mesh scale {scale_m} is not positive",
    "mixed_scales": "mixed scales in one {kind} file",
    "off_grid": ("mesh col {col}, row {row} outside the {ncols} x {nrows} "
                 "grid of {scale_m} m meshes"),
    "bad_center_lat": "{center_lat}", "bad_center_lon": "{center_lon}",
    "off_center": ("mesh col {col}, row {row} is centered at {center_lat!r}, "
                   "{center_lon!r}; the given area of interest puts its "
                   "center at {want[0]!r}, {want[1]!r}"),
    "bad_count": "{count}", "count_range": "count {count} outside [0, 2**63)",
    "bad_entropy_nats": "{entropy_nats}",
    "entropy_range": "entropy {entropy_nats!r} outside [0, ln 100]",
    "bad_score": "{score}", "score_range": "non-finite score {score!r}",
}
_INTS = ("scale_m", "col", "row", "count")      # the other columns: float


def _value(convert, cell: str):
    """``convert(cell)``, or the error it raises, whose text is the message."""
    try:
        return convert(cell)
    except ValueError as exc:
        return exc


def _ints(text: list) -> tuple[np.ndarray, np.ndarray]:
    """``int`` of each cell and the mask of those it refuses: int64, else
    an object array of Python ints (0 where refused), exact past int64."""
    try:
        return np.array(text, dtype=np.int64), np.zeros(len(text), bool)
    except (ValueError, OverflowError):
        v = np.array([_value(int, cell) for cell in text], dtype=object)
        bad = np.fromiter(map(isinstance, v, repeat(ValueError)), bool, len(v))
        return np.where(bad, 0, v), bad


class _MeshRows:
    """The one rule for a mesh CSV's rows: ``_MESH_CHECKS`` over a block's
    records at a time. The file's first record sets the scale."""

    def __init__(self, header: list, aoi: AreaOfInterest, kind: str):
        names = FIELD_HEADER[:5] + (("count", "entropy_nats")
                                    if kind == "field" else ("score",))
        col = _header(header, names, kind)
        self.pos = {name: col[name] for name in names}
        self.k, self.aoi, self.kind, self.scale = len(header), aoi, kind, None

    def block(self, block: _Block):
        """Columns (line, col, row, *values) of ``block``'s records, or None
        if it has none; the first line refused raises."""
        line, cells = block.padded(self.k)
        if not (n := len(line)):
            return None
        text = {name: cells[i::self.k] for name, i in self.pos.items()}
        reason = np.full(n, -1, dtype=np.int8)     # -1: not refused
        refuse = partial(_refuse, reason, keys=tuple(_MESH_CHECKS))

        def converted(name, convert, *rows):
            v, bad = convert(text[name], *rows)
            refuse(f"bad_{name}", bad)
            return v

        if block.others:        # padded pads these: refuse the short ones
            refuse("short", np.r_[np.zeros(len(block.line), bool), [
                len(o) <= max(self.pos.values()) for _, o in block.others]])
        s, c, r = (converted(name, _ints) for name in _INTS[:3])
        if self.scale is None:
            first = int(np.argmin(line))
            refuse("scale", (line == line[first]) & (s[first] <= 0))
            # if refused, the first record raises below, whatever the scale
            self.scale = int(s[first]) if reason[first] < 0 else 1
        refuse("mixed_scales", s != self.scale)
        ncols, nrows = self.aoi.grid_shape(self.scale)
        refuse("off_grid", ~((c >= 0) & (c < ncols) & (r >= 0) & (r < nrows)))
        ok = reason < 0
        c, r = np.where(ok, c, 0), np.where(ok, r, 0)
        want = mesh_centers(self.scale, c, r, self.aoi)
        off = np.zeros(n, bool)
        for name, w in zip(("center_lat", "center_lon"), want):
            # a cell that is not the text mdemap writes is read as a number
            odd = ok & (_texts(w) != np.array(text[name], object))
            if np.count_nonzero(odd):
                off |= odd & ~(np.abs(converted(name, _floats_at, odd) - w)
                               <= CENTER_TOLERANCE_DEG)
        refuse("off_center", off)
        if self.kind == "field":
            count = converted("count", _ints)
            refuse("count_range", ~((count >= 0) & (count < 2**63)))
            given = np.array(text["entropy_nats"], object) != ""
            h = converted("entropy_nats", _floats_at, given & (reason < 0))
            refuse("entropy_range", given & ~((h >= 0.0) & (h <= _MAX_READ)))
            values = [count, h]
        else:
            values = [converted("score", _floats_at, reason < 0)]
            refuse("score_range", ~np.isfinite(values[0]))
        if (bad := np.flatnonzero(reason >= 0)).size:
            i = bad[np.argmin(line[bad])]
            raise PointParseError([*_MESH_CHECKS.values()][reason[i]].format(
                kind=self.kind, ncols=ncols, nrows=nrows,
                want=[float(w[i]) for w in want], **{
                    name: _value(int if name in _INTS else float, t[i])
                    for name, t in text.items()}), line_no=int(line[i]))
        # int64: each cell fits. line is copied: block.line would pin the heap
        return [line.copy(), c, r, *values]


def _read_mesh_csv(path, aoi: AreaOfInterest, kind: str):
    """(scale, [col, row, *values]) of a mesh CSV, in (row, col) order; the
    first line repeating a mesh is refused."""
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        blocks = _csv_blocks(f)
        rule = _MeshRows(next(blocks, []), aoi, kind)
        # map holds no block while the next is read
        parts = list(filter(None, map(rule.block, blocks)))
    if rule.scale is None:
        raise PointParseError(f"{kind} file has no rows")
    line, col, row, *values = map(np.concatenate, zip(*parts))
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
    _write_mesh_rows(path, FIELD_HEADER + ("score",), cmap.aoi,
                     cmap.base_scale_m, cmap.col, cmap.row, ",,,,%s",
                     [cmap.scores])


def read_combined_csv(path, aoi: AreaOfInterest) -> CombinedMap:
    """Rebuild a combined map; contributing scales live in the summary."""
    scale, columns = _read_mesh_csv(path, aoi, "combined")
    return CombinedMap(scale, aoi, *columns)


def write_peaks_csv(cmap: CombinedMap, peaks: np.ndarray, path) -> None:
    """The meshes ``peaks`` indexes, in its order; rows end in ``\\n``."""
    _write_mesh_rows(path, FIELD_HEADER[:5] + ("score",), cmap.aoi,
                     cmap.base_scale_m, cmap.col[peaks], cmap.row[peaks],
                     ",%s", [cmap.scores[peaks]], "\n")


def write_stations_csv(stations: Sequence[Station], path) -> None:
    """Station names quoted as ``csv.writer`` quotes them."""
    _write(path, _rows("%s,%s,%s,%s\r\n", [
        np.fromiter((_csv_text(s.name) for s in stations), object),
        np.array([s.pos.lat for s in stations], np.float64),
        np.array([s.pos.lon for s in stations], np.float64),
        np.array([s.rank for s in stations], np.int64)]), STATION_HEADER)


def read_stations_csv(path) -> list[Station]:
    """The stations of a file, each of a distinct rank of at least 1, its
    lat and lon checked as a points row's are (``_coordinates``)."""
    stations, first = [], {}        # first[rank]: the line that holds it
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        blocks = _csv_blocks(f)
        names = next(blocks, [])
        col, k = _header(names, STATION_HEADER, "stations"), len(names)
        for block in blocks:
            line, cells = block.padded(k)
            cells = {name: cells[col[name]::k] for name in STATION_HEADER}
            reason = np.full(len(line), -1, dtype=np.int8)
            lat, lon = (c.tolist() for c in _coordinates(
                cells["lat"], cells["lon"], reason))
            for i in np.argsort(line).tolist():
                if reason[i] >= 0:
                    raise _refusal(reason[i], cells, i, line)
                at = int(line[i])
                try:
                    rank = int(cells["rank"][i])
                    if rank < 1:
                        raise ValueError(f"station rank {rank} is below 1")
                    if first.setdefault(rank, at) != at:
                        raise ValueError(f"station rank {rank} is already "
                                         f"on line {first[rank]}")
                except ValueError as exc:
                    raise PointParseError(str(exc), line_no=at) from exc
                stations.append(Station(cells["name"][i],
                                        GeoPoint(lat[i], lon[i]), rank))
    if not stations:
        raise PointParseError("stations file has no rows")
    return stations


def _write_curve(x: np.ndarray, value: np.ndarray, path) -> None:
    """A curve CSV: one ``x,value`` row per point, in order."""
    _write(path, _rows("%s,%s\r\n", [x, value]), CURVE_HEADER)


def write_recall_csv(curve: RecallCurve, path) -> None:
    """x = radius in km, value = stations within x of a top-K center."""
    _write_curve(np.array(curve.radii_km, np.float64),
                 np.array(curve.counts, np.int64), path)


def write_precision_csv(curve: PrecisionCurve, path) -> None:
    """x = top-mesh count, value = percent within the curve's threshold."""
    _write_curve(np.array(curve.x, np.int64),
                 np.array(curve.percentages, np.float64), path)


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
    first = next(blocks, _concat([]))
    extras = _has_extras(first)
    header = _REQUIRED + (("heading", "speed") if extras else ())
    _write(path, _point_rows(chain([first], blocks), extras), header)


def _point_rows(blocks: Iterable[ParseResult], extras: bool) -> Iterator[str]:
    """The rows of each block, their texts made a chunk at a time."""
    line = "%s,%s,%s,%s,%s,%s\r\n" if extras else "%s,%s,%s,%s\r\n"
    for block in blocks:
        if _has_extras(block) > extras:
            raise ValueError("a block after the first has heading or "
                             "speed values, and the first has none")
        for i in range(0, len(block), _CHUNK_ROWS):
            part = block.take(slice(i, i + _CHUNK_ROWS))
            ids = part.user_id.tolist()
            text = {u: _csv_text(u) for u in set(ids)}
            columns = [np.fromiter(map(text.__getitem__, ids), object),
                       _texts(part.t, text=lambda t: str(int(t)) if
                              t.is_integer() else repr(t)),
                       part.lat, part.lon]
            if extras:
                columns += [_texts(part.heading, ""), _texts(part.speed, "")]
            yield from _rows(line, columns)


def _geojson(table, scale_m: int, **values) -> Iterator[str]:
    """A polygon per mesh of ``table``, as compact ``json.dumps`` with sorted
    keys writes it, in chunks of text; ``values[name]`` holds property
    ``name`` of each mesh, as numbers or as JSON texts."""
    values.update(col=table.col, row=table.row,
                  scale_m=np.broadcast_to(scale_m, table.col.shape))
    keys = sorted(values)
    s, n, w, e = mesh_corners(scale_m, table.col, table.row, table.aoi)
    features = _rows(
        ',{"geometry":{"coordinates":[[[%s,%s],[%s,%s],[%s,%s],[%s,%s],'
        '[%s,%s]]],"type":"Polygon"},"properties":{'
        + ",".join(f'"{k}":%s' for k in keys) + '},"type":"Feature"}',
        [w, s, e, s, e, n, w, n, w, s, *map(values.get, keys)])
    yield '{"features":[' + next(features, ",")[1:]
    yield from features
    yield '],"type":"FeatureCollection"}'


def field_geojson(field: MdeField) -> Iterator[str]:
    """GeoJSON text of a field in chunks; undefined entropies are ``null``."""
    h = field.entropy
    return _geojson(field, field.scale_m, count=field.count,
                    entropy_nats=_texts(h, "null"),
                    entropy_norm=_texts(h / MAX_ENTROPY, "null"))


def combined_geojson(cmap: CombinedMap) -> Iterator[str]:
    """GeoJSON text of a combined map in chunks."""
    return _geojson(cmap, cmap.base_scale_m, score=_texts(cmap.scores, "null"))


def write_geojson(chunks: Iterable[str], path) -> None:
    """Write GeoJSON text given in chunks, ending in a line end."""
    _write(path, chain(chunks, ["\n"]))


def write_summary(summary: dict, path) -> None:
    _write(path, [json.dumps(summary, sort_keys=True, indent=2,
                             allow_nan=False), "\n"])
