"""Trajectory ingestion: point files to per-user movement vectors.

Directions follow the angular convention used throughout the package:
radians anticlockwise from north, so 0 = north, pi/2 = west, pi = south,
3*pi/2 = east.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, PointParseError
from .mesh import AreaOfInterest, project_arrays, TWO_PI


# -- point file parsing -------------------------------------------------

_REQUIRED = ("user_id", "timestamp", "lat", "lon")
FORMATS = ("csv", "ndjson")     # points file formats, the first the default
# Characters of CSV text read per block; a block ends at a line end.
_BLOCK_CHARS = 1 << 20
_COLUMNS = ("user_id", "t", "lat", "lon", "heading", "speed")


@dataclass(eq=False)
class ParseResult:
    """Point columns in file order, plus the count of malformed rows skipped.

    ``heading`` and ``speed`` are NaN where a point has none. Two results
    are equal when their columns hold equal values, NaN equal to NaN, and
    their skipped counts match.
    """

    user_id: np.ndarray          # object array of str
    t: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    heading: np.ndarray
    speed: np.ndarray
    skipped: int = 0

    def __len__(self) -> int:
        return int(self.t.size)

    def take(self, rows: np.ndarray, skipped: int) -> "ParseResult":
        """The ``rows`` (a mask or indices) of the columns, with ``skipped``."""
        return ParseResult(*(getattr(self, c)[rows] for c in _COLUMNS),
                           skipped)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParseResult):
            return NotImplemented
        return (self.skipped == other.skipped
                and self.user_id.tolist() == other.user_id.tolist()
                and all(np.array_equal(getattr(self, c), getattr(other, c),
                                       equal_nan=True) for c in _COLUMNS[1:]))


def _columns(rows: list[tuple], skipped: int = 0) -> ParseResult:
    """The columns of ``_build_point`` rows."""
    user, *numbers = zip(*rows) if rows else [()] * 6
    return ParseResult(np.array(user, dtype=object),
                       *np.array(numbers, dtype=np.float64), skipped)


def _number(raw, name: str = "value") -> float:
    """``float(raw)``, refusing JSON booleans (``float(True)`` is 1.0)."""
    if isinstance(raw, bool):
        raise ValueError(f"{name} {raw!r} is not a number")
    return float(raw)


def _parse_timestamp(raw) -> float:
    if isinstance(raw, str):
        text = raw.strip()
        try:
            t = float(text)
        except ValueError:
            if text.endswith(("Z", "z")):
                text = text[:-1] + "+00:00"
            dt = datetime.fromisoformat(text)
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            t = dt.timestamp()
    elif isinstance(raw, (int, float)):
        t = _number(raw, "timestamp")
    else:
        raise TypeError(f"timestamp {raw!r} is not a number or a string")
    if not math.isfinite(t):
        raise ValueError(f"non-finite timestamp {raw!r}")
    return t


def _build_point(rec: dict, line_no: int) -> tuple:
    """The one rule for a valid row: raises PointParseError otherwise.

    Returns ``(user_id, t, lat, lon, heading, speed)``, with NaN for an
    absent heading or speed.
    """
    try:
        if not isinstance(rec, dict):
            raise TypeError("line is not a JSON object")
        user = rec["user_id"]
        if user is None or str(user) == "":
            raise ValueError("empty user_id")
        t = _parse_timestamp(rec["timestamp"])
        lat = _number(rec["lat"], "lat")
        lon = _number(rec["lon"], "lon")
        if not (-90.0 <= lat <= 90.0):
            raise ValueError(f"latitude {lat} out of range")
        if not (-180.0 <= lon <= 180.0):
            raise ValueError(f"longitude {lon} out of range")
        heading = rec.get("heading")
        if heading in (None, ""):
            heading = math.nan
        else:
            heading = _number(heading, "heading")
            if not (0.0 <= heading < TWO_PI):
                raise ValueError(f"heading {heading} outside [0, 2*pi)")
        speed = rec.get("speed")
        if speed in (None, ""):
            speed = math.nan
        else:
            speed = _number(speed, "speed")
            if not (math.isfinite(speed) and speed >= 0.0):
                raise ValueError(f"bad speed {speed}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PointParseError(str(exc), line_no=line_no) from exc
    return str(user), t, lat, lon, heading, speed


def _open_text(source):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8")), True
    if hasattr(source, "read"):
        probe = source.read(0)
        if isinstance(probe, bytes):
            return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
        return source, False
    raise ConfigError(f"cannot read points from {type(source).__name__}")


def parse_points(source, fmt: str = FORMATS[0],
                 strict: bool = False) -> ParseResult:
    """Parse a points file (CSV or NDJSON) into point columns.

    Malformed rows are skipped and counted; with ``strict`` the first one
    raises instead, carrying its line number. A header missing required
    columns is structural and always raises. The columns are those of
    :func:`point_blocks`, concatenated.
    """
    return _concat(list(point_blocks(source, fmt, strict)))


def point_blocks(source, fmt: str = FORMATS[0],
                 strict: bool = False) -> Iterator[ParseResult]:
    """The rows of a points file as a ``ParseResult`` per block of lines.

    A block holds the rows of about ``_BLOCK_CHARS`` characters of text,
    in file order, and the count of malformed rows among them. Rules and
    errors are those of :func:`parse_points`.
    """
    if fmt not in FORMATS:
        raise ConfigError(f"unknown points format {fmt!r}")
    stream, owned = _open_text(source)
    try:
        yield from (_parse_csv if fmt == "csv" else _parse_ndjson)(stream,
                                                                  strict)
    finally:
        if owned:
            stream.close()


def _parse_csv(stream, strict: bool) -> Iterator[ParseResult]:
    """Plain blocks of ``_csv_blocks`` are split in bulk (``_parse_block``);
    the rows it refuses, and all csv-module records, go to ``_build_rows``."""
    blocks = _csv_blocks(stream)
    if (names := next(blocks, None)) is None:
        return
    if missing := [c for c in _REQUIRED if c not in names]:
        raise PointParseError(
            f"header missing columns {', '.join(missing)}", line_no=1)

    record = _records(names)
    for line_no, block in blocks:
        if line_no is None:
            yield _build_rows(block, record, strict)[0]
            continue
        part, keep = _parse_block(block, names)
        rest, lines = _build_rows(_leftovers(block, keep, line_no), record,
                                  strict)
        if lines:               # accepted leftovers go back in file order
            at = np.concatenate([np.flatnonzero(keep),
                                 np.array(lines) - line_no - 1])
            part = _concat([part, rest]).take(np.argsort(at), 0)
        part.skipped = rest.skipped
        yield part


def _records(names: list[str]):
    """Cells to a dict as ``csv.DictReader`` maps them, less its restkey."""
    return lambda cells: (dict(zip(names, cells))
                          | dict.fromkeys(names[len(cells):]))


def _csv_blocks(stream) -> Iterator:
    """The header cells of a CSV text, then its blocks of about
    ``_BLOCK_CHARS`` characters; an empty text yields nothing.

    While blocks are plain (``_plain``), each is ``(n, lines)``, the first
    line being line ``n + 1``. From the first that is not, ``csv.reader``
    reads the rest, and each block is ``(None, records)``: the ``(line,
    cells)`` of each non-blank record, ``line`` being its last. A csv module
    error (a cell over its size limit) raises PointParseError at its line.
    """
    line_no, lines = 0, stream.readlines(_BLOCK_CHARS)
    while lines and _plain(lines):
        if not line_no:
            yield next(csv.reader(lines[:1]))
            line_no, lines = 1, lines[1:]
        yield line_no, lines
        line_no += len(lines)
        lines = stream.readlines(_BLOCK_CHARS)
    if not lines:
        return
    reader = csv.reader(chain(lines, stream))
    try:
        if not line_no:
            yield next(reader, [])
        records, chars = [], 0
        for cells in reader:
            if cells:
                records.append((line_no + reader.line_num, cells))
                chars += sum(map(len, cells))
                if chars >= _BLOCK_CHARS:
                    yield None, records
                    records, chars = [], 0
    except csv.Error as exc:
        raise PointParseError(str(exc),
                              line_no=line_no + reader.line_num) from exc
    yield None, records


def _plain(lines: list[str]) -> bool:
    """Whether commas and line ends alone split these lines as csv would."""
    text = "".join(lines)
    # "\r" in text is a fast scan; counting "\r\n" is not
    return ('"' not in text
            and ("\r" not in text or text.count("\r") == text.count("\r\n"))
            and max(map(len, lines)) <= csv.field_size_limit())


def _leftovers(lines: list[str], keep: np.ndarray,
               line_no: int) -> Iterator[tuple[int, list[str]]]:
    """``(line, cells)`` of the non-blank plain lines that ``keep`` leaves
    out, the first of ``lines`` being line ``line_no + 1``."""
    for i in np.flatnonzero(~keep).tolist():
        if line := lines[i].rstrip("\r\n"):
            yield line_no + i + 1, line.split(",")   # as csv.reader splits


def _split(lines: list[str], k: int) -> tuple[np.ndarray, list[str]]:
    """Which lines have ``k`` fields, and their cells as csv splits them."""
    full = np.fromiter(map(str.count, lines, repeat(",")), np.int64,
                       len(lines)) == k - 1
    rows = "".join(compress(lines, full.tolist()))
    if "\r" in rows:
        rows = rows.replace("\r\n", "\n")
    if rows and not rows.endswith("\n"):
        rows += "\n"
    cells = rows.replace("\n", ",").split(",")
    cells.pop()                 # after the last line end
    return full, cells


def _parse_block(lines: list[str],
                 names: list[str]) -> tuple[ParseResult, np.ndarray]:
    """The rows of plain lines that the bulk checks accept, and their mask.

    Lines with one field per header name are split into columns, converted
    with ``float`` and range-checked in bulk, accepting only rows that
    ``_build_point`` accepts, with the same values.
    """
    k = len(names)
    col = {name: i for i, name in enumerate(names)}   # last duplicate wins
    full, cells = _split(lines, k)
    n = len(cells) // k

    # each column is converted only on the rows still valid, so a block
    # whose timestamps all need _build_point costs little more here
    user = cells[col["user_id"]::k]
    t = _timestamps(cells[col["timestamp"]::k])
    ok = (np.fromiter(map(len, user), np.int64, n) > 0) & np.isfinite(t)
    lat = _floats_at(cells[col["lat"]::k], ok)
    lon = _floats_at(cells[col["lon"]::k], ok)
    ok &= (lat >= -90.0) & (lat <= 90.0) & (lon >= -180.0) & (lon <= 180.0)
    optional = []
    for name in ("heading", "speed"):
        v = np.full(n, np.nan)
        if name in col:             # an empty cell means "absent"
            text = cells[col[name]::k]
            given = np.fromiter(map(len, text), np.int64, n) > 0
            v = _floats_at(text, ok & given)
            ok &= ~given | ((v >= 0.0) & (v < TWO_PI) if name == "heading"
                            else np.isfinite(v) & (v >= 0.0))
        optional.append(v)

    keep = np.zeros(len(lines), dtype=bool)
    keep[np.flatnonzero(full)[ok]] = True
    return ParseResult(*(c[ok] for c in (np.array(user, dtype=object), t,
                                         lat, lon, *optional))), keep


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _floats_at(text: list[str], rows: np.ndarray) -> np.ndarray:
    """``float`` of the cells in ``rows``, bit for bit; NaN elsewhere.

    A cell that ``float`` refuses is NaN too.
    """
    cells = list(compress(text, rows.tolist()))
    v = np.full(len(text), np.nan)
    try:
        v[rows] = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        v[rows] = np.fromiter(map(_float_or_nan, cells), np.float64,
                              len(cells))
    return v


def _timestamps(text: list[str]) -> np.ndarray:
    """Seconds of each timestamp cell; NaN where ``_build_point`` must decide.

    ``_parse_timestamp`` tries ``float`` first, and ``float`` never accepts
    ':'. So cells without one go through ``float``; cells with one are
    converted in bulk when they have the 20 characters of
    ``YYYY-MM-DDTHH:MM:SSZ`` or the 25 of ``YYYY-MM-DDTHH:MM:SS+HH:MM``
    (or ``-HH:MM``), and left to ``_build_point`` otherwise.
    """
    n = len(text)
    clock = np.fromiter(map(str.__contains__, text, repeat(":")), bool, n)
    t = _floats_at(text, ~clock)
    size = np.fromiter(map(len, text), np.int64, n)
    for width in (20, 25):
        iso = clock & (size == width)
        if iso.any():
            t[iso] = _utc_seconds(list(compress(text, iso.tolist())))
    return t


# Positions of the digits and of the separators in YYYY-MM-DDTHH:MM:SS
_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_SEPARATORS = [4, 7, 10, 13, 16]
_SEPARATOR_CHARS = np.frombuffer(b"--T::", np.uint8)
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _utc_seconds(text: list[str]) -> np.ndarray:
    """Unix seconds of ``YYYY-MM-DDTHH:MM:SSZ`` (20 characters) or
    ``YYYY-MM-DDTHH:MM:SS±HH:MM`` (25) strings, all of one length.

    NaN where the shape or the calendar is wrong: a year 0, a month or a
    day out of range, an hour past 23, a minute or second past 59, or an
    offset of 24 h or more, all of which ``datetime.fromisoformat``
    refuses too. It takes any two-digit offset minute below that bound,
    and so does this.
    """
    n, width = len(text), len(text[0])
    c = np.frombuffer("".join(text).encode("ascii", "replace"),
                      np.uint8).reshape(n, width)
    d = c.astype(np.int64) - ord("0")

    def number(i, j):
        return d[:, i:j] @ 10 ** np.arange(j - i - 1, -1, -1)

    ok = ((c[:, _DIGITS] - ord("0") <= 9).all(axis=1)
          & (c[:, _SEPARATORS] == _SEPARATOR_CHARS).all(axis=1))
    if width == 20:
        ok &= c[:, 19] == ord("Z")
        offset = 0
    else:
        ok &= (((c[:, 19] == ord("+")) | (c[:, 19] == ord("-")))
               & (c[:, [20, 21, 23, 24]] - ord("0") <= 9).all(axis=1)
               & (c[:, 22] == ord(":")))
        offset = 3600 * number(20, 22) + 60 * number(23, 25)
        ok &= offset < 86400
        offset = np.where(c[:, 19] == ord("-"), -offset, offset)
    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second = number(11, 13), number(14, 16), number(17, 19)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month - 1, 0, 11)] + (leap & (month == 2))
    ok &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
           & (day <= month_days) & (hour <= 23) & (minute <= 59)
           & (second <= 59))
    # days from 1970-01-01 in the proleptic Gregorian calendar, counting
    # years from March so that the leap day ends a year
    y = year - (month <= 2)
    era = y // 400
    yoe = y - 400 * era
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = 146097 * era + 365 * yoe + yoe // 4 - yoe // 100 + doy - 719468
    seconds = 86400 * days + 3600 * hour + 60 * minute + second - offset
    return np.where(ok, seconds.astype(np.float64), np.nan)


def _concat(parts: list[ParseResult]) -> ParseResult:
    if not parts:
        return _columns([])
    return ParseResult(*(np.concatenate([getattr(p, c) for p in parts])
                         for c in _COLUMNS), sum(p.skipped for p in parts))


def _parse_ndjson(stream, strict: bool) -> Iterator[ParseResult]:
    line_no = 0
    while lines := stream.readlines(_BLOCK_CHARS):
        yield _build_rows([(i, line) for i, line in enumerate(
            lines, start=line_no + 1) if line.strip()], json.loads,
            strict)[0]
        line_no += len(lines)


def _build_rows(rows: Iterable[tuple[int, object]], record,
                strict: bool) -> tuple[ParseResult, list[int]]:
    """The points of ``(line, raw)`` rows, and the lines they came from.

    ``record(raw)`` is the row's record, or raises ValueError. A row it or
    ``_build_point`` refuses is skipped and counted, or with ``strict``
    raises."""
    points, lines, skipped = [], [], 0
    for line, raw in rows:
        try:
            try:
                rec = record(raw)
            except ValueError as exc:
                raise PointParseError(str(exc), line_no=line) from exc
            points.append(_build_point(rec, line))
            lines.append(line)
        except PointParseError:
            if strict:
                raise
            skipped += 1
    return _columns(points, skipped), lines


def user_groups(blocks: Iterable[ParseResult]) -> Iterator[ParseResult]:
    """Point blocks regrouped so that a user's adjacent rows stay together.

    The rows of the user a block ends in carry over to the next block, so
    a user whose rows are contiguous in the file is whole in one group;
    a user spanning many blocks is carried until its rows end. Rows keep
    their file order within each user, and every block's skipped count
    goes to the group that takes its rows.
    """
    carry: list[ParseResult] = []
    carried = None              # the one user of the carried rows
    for block in blocks:
        carry.append(block)
        if not len(block):
            continue
        last = block.user_id[-1]
        if carried in (None, last) and (block.user_id == last).all():
            carried = last
            continue
        rows = _concat(carry)
        tail = rows.user_id == last
        carry, carried = [rows.take(tail, 0)], last
        yield rows.take(~tail, rows.skipped)
    if carry:
        yield _concat(carry)


# -- movement extraction ------------------------------------------------

MIN_DISPLACEMENT_M = 10.0       # extract_movements' defaults
MAX_GAP_S = 1800.0
DIRECTIONS = ("consecutive", "heading")     # the first is the default


@dataclass
class ExtractionStats:
    n_points: int = 0
    n_users: int = 0
    n_vectors: int = 0
    dropped_duplicate: int = 0
    dropped_gap: int = 0
    dropped_short: int = 0
    dropped_no_heading: int = 0

    def __iadd__(self, other: "ExtractionStats") -> "ExtractionStats":
        """Counts of two extractions over disjoint sets of users."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name)
                    + getattr(other, f.name))
        return self


@dataclass
class MovementBatch:
    """Movement vectors as columns, ordered by (user_id, t).

    A vector is timestamped at the later of its two fixes (in
    ``heading`` mode, at its one fix). ``x``/``y`` are the origins
    projected into ``aoi`` local coordinates (out-of-area origins simply
    land outside the grid and are dropped later, at accumulation).
    """

    aoi: AreaOfInterest
    user_id: np.ndarray
    t: np.ndarray
    origin_lat: np.ndarray
    origin_lon: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    displacement: np.ndarray
    duration: np.ndarray

    def __len__(self) -> int:
        return int(self.t.size)


def _empty_batch(aoi: AreaOfInterest) -> MovementBatch:
    return MovementBatch(aoi, np.empty(0, dtype=object), *np.empty((8, 0)))


def extract_movements(points: ParseResult, aoi: AreaOfInterest,
                      min_displacement: float = MIN_DISPLACEMENT_M,
                      max_gap: float = MAX_GAP_S,
                      source: str = DIRECTIONS[0],
                      ) -> tuple[MovementBatch, ExtractionStats]:
    """Derive movement vectors from the point columns of ``points``.

    Points may arrive unsorted; they are grouped by user and sorted by
    time, and an exact duplicate (user, t) keeps the first occurrence.
    In ``consecutive`` mode each adjacent fix pair of one user becomes a
    vector when its duration is at most ``max_gap`` and its projected
    displacement at least ``min_displacement``; in ``heading`` mode each
    fix carrying a heading becomes a vector on its own. Drops are
    counted, never raised.
    """
    if source not in DIRECTIONS:
        raise ConfigError(f"unknown direction source {source!r}")
    if not (0 <= min_displacement < math.inf and 0 < max_gap < math.inf):
        raise ConfigError("need finite min_displacement >= 0 and max_gap > 0")
    stats = ExtractionStats(n_points=len(points))
    if not len(points):
        return _empty_batch(aoi), stats

    t = points.t
    # codes in sorted id order; a dict keeps each id whole, where a
    # fixed-width str array pads every id to the longest and drops
    # trailing NULs
    ids = points.user_id.tolist()
    code_of = {u: i for i, u in enumerate(sorted(set(ids)))}
    codes = np.fromiter(map(code_of.__getitem__, ids), np.int64, len(ids))
    stats.n_users = len(code_of)
    # stable (user, t) order: ties keep input order, so dedup keeps the first
    order = np.lexsort((np.arange(t.size), t, codes))
    codes, t = codes[order], t[order]
    dup = np.zeros(t.size, dtype=bool)
    dup[1:] = (codes[1:] == codes[:-1]) & (t[1:] == t[:-1])
    stats.dropped_duplicate = int(dup.sum())
    keep = order[~dup]
    codes, t = codes[~dup], t[~dup]
    lat, lon, user = points.lat[keep], points.lon[keep], points.user_id[keep]

    if source == "heading":
        heading, speed = points.heading[keep], points.speed[keep]
        has = ~np.isnan(heading)
        stats.dropped_no_heading = int((~has).sum())
        disp = np.maximum(np.where(np.isnan(speed[has]), 0.0, speed[has]),
                          min_displacement)
        batch = _finish_batch(aoi, user[has], t[has], lat[has], lon[has],
                              heading[has], disp,
                              np.ones(int(has.sum()), dtype=np.float64))
        stats.n_vectors = len(batch)
        return batch, stats

    adj = codes[1:] == codes[:-1]
    oi = np.flatnonzero(adj)
    if oi.size == 0:
        return _empty_batch(aoi), stats
    x, y = project_arrays(lat, lon, aoi)
    dx = x[oi + 1] - x[oi]
    dy = y[oi + 1] - y[oi]
    duration = t[oi + 1] - t[oi]
    disp = np.hypot(dx, dy)
    over_gap = duration > max_gap
    # zero displacement has no direction, whatever the threshold
    short = ~over_gap & ((disp < min_displacement) | (disp == 0.0))
    stats.dropped_gap = int(over_gap.sum())
    stats.dropped_short = int(short.sum())
    ok = ~over_gap & ~short
    oi = oi[ok]
    theta = np.mod(-np.arctan2(dx[ok], dy[ok]), TWO_PI)
    theta[theta >= TWO_PI] = 0.0  # rounding at the wrap
    batch = _finish_batch(aoi, user[oi], t[oi + 1], lat[oi], lon[oi],
                          theta, disp[ok], duration[ok])
    stats.n_vectors = len(batch)
    return batch, stats


def _finish_batch(aoi, user, t, lat, lon, theta, disp, dur) -> MovementBatch:
    x, y = project_arrays(lat, lon, aoi)
    return MovementBatch(aoi, user, np.ascontiguousarray(t), lat, lon, x, y,
                         np.ascontiguousarray(theta),
                         np.ascontiguousarray(disp),
                         np.ascontiguousarray(dur))
