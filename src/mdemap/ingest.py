"""Trajectory ingestion: point files to per-user movement vectors.

Directions follow the angular convention used throughout the package:
radians anticlockwise from north, so 0 = north, pi/2 = west, pi = south,
3*pi/2 = east.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain, compress, count, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import kernels
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

    def take(self, rows: np.ndarray) -> "ParseResult":
        """The ``rows`` (a mask or indices) of the columns, none skipped."""
        return ParseResult(*(getattr(self, c)[rows] for c in _COLUMNS))

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


def _lat_lon(rec: dict) -> tuple[float, float]:
    """A record's ``lat`` in [-90, 90] and ``lon`` in [-180, 180]; raises
    ValueError otherwise, NaN included."""
    lat, lon = _number(rec["lat"], "lat"), _number(rec["lon"], "lon")
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"latitude {lat} out of range")
    if not (-180.0 <= lon <= 180.0):
        raise ValueError(f"longitude {lon} out of range")
    return lat, lon


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
        lat, lon = _lat_lon(rec)
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


@dataclass(frozen=True)
class ParseSettings:
    """A points file's ``fmt`` of ``FORMATS`` and whether it is read
    ``strict`` (True or False); other values are refused when the object
    is made."""

    fmt: str = FORMATS[0]
    strict: bool = False

    def __post_init__(self):
        if self.fmt not in FORMATS:
            raise ConfigError(f"unknown points format {self.fmt!r}")
        if not isinstance(self.strict, bool):
            raise ConfigError(f"bad strict {self.strict!r}: not true or false")


def parse_points(source,
                 settings: ParseSettings = ParseSettings()) -> ParseResult:
    """Parse a points file (CSV or NDJSON) into point columns.

    Malformed rows are skipped and counted; with ``strict`` the first one
    raises instead, carrying its line number. A header missing a required
    column is structural and always raises. The columns are those of
    :func:`point_blocks`, concatenated.
    """
    return _concat(list(point_blocks(source, settings)))


def point_blocks(source, settings: ParseSettings = ParseSettings(),
                 ) -> Iterator[ParseResult]:
    """The rows of a points file as a ``ParseResult`` per block of lines.

    A path is read as UTF-8 after an optional byte order mark, a text
    stream as it is given. A block holds the rows of about ``_BLOCK_CHARS``
    characters, in file order, and the count of malformed rows among them.
    Rules and errors are those of :func:`parse_points`.
    """
    with (open(source, "r", encoding="utf-8-sig", newline="")
          if isinstance(source, (str, Path)) else nullcontext(source)
          ) as stream:
        yield from (_parse_csv if settings.fmt == "csv" else _parse_ndjson)(
            stream, settings.strict)


def _parse_csv(stream, strict: bool) -> Iterator[ParseResult]:
    """The bulk checks (``_parse_block``) take each ``_Block``'s full
    records; ``_build_rows`` takes the rest."""
    blocks = _csv_blocks(stream)
    if (names := next(blocks, None)) is None:
        return
    col, record = _header(names, _REQUIRED, "points"), _records(names)
    for block in blocks:
        part, keep = _parse_block(block, len(names), col)
        rest, lines = _build_rows(block.rows(keep), record, strict)
        if lines:               # accepted rows go back in file order
            at = np.concatenate([block.line[keep], lines])
            part = _concat([part, rest]).take(np.argsort(at))
        part.skipped = rest.skipped
        del block               # frees its cells before the caller takes part
        yield part


def _header(names: list[str], required, what: str) -> dict[str, int]:
    """The column of each of ``names``, the last of a repeated name, as
    ``_records`` reads it; refuses at line 1 the first ``required`` name
    they lack."""
    col = {name: i for i, name in enumerate(names)}
    for name in required:
        if name not in col:
            raise PointParseError(f"{what} file has no {name} column",
                                  line_no=1)
    return col


def _records(names: list[str]):
    """Cells to a dict as ``csv.DictReader`` maps them, less its restkey."""
    return lambda cells: (dict(zip(names, cells))
                          | dict.fromkeys(names[len(cells):]))


class _Block(NamedTuple):
    """CSV records at their last lines: the ``line`` and flat ``cells`` of
    those with one cell per header name, and the ``(line, cells)`` of the
    ``others``. A blank line is no record."""

    line: np.ndarray
    cells: list[str]
    others: list[tuple[int, list[str]]]

    def rows(self, keep: np.ndarray) -> list[tuple[int, list[str]]]:
        """``(line, cells)`` of the others and of the full records that
        the mask ``keep`` leaves out, in file order."""
        k, left = len(self.cells) // max(len(self.line), 1), ~keep
        return sorted(self.others + [
            (line, self.cells[i * k:i * k + k]) for i, line in zip(
                np.flatnonzero(left).tolist(), self.line[left].tolist())])


def _csv_blocks(stream) -> Iterator:
    """The header cells of a CSV text, read from the stream as one csv
    record, then a ``_Block`` per block of about ``_BLOCK_CHARS`` characters
    of the lines after it; an empty text yields nothing. Plain blocks
    (``_plain``) are split at commas in bulk; from the first that is not,
    ``csv.reader`` reads the rest. So a quoted header leaves plain rows to
    the bulk split, while one quoted cell in the rows hands the rest of the
    text to ``csv.reader``. A csv module error (a cell over its size limit)
    raises PointParseError at its line."""
    line_no, reader = 0, csv.reader(stream)
    try:
        if (names := next(reader, None)) is None:
            return
        yield names
        line_no, lines = reader.line_num, stream.readlines(_BLOCK_CHARS)
        while lines and _plain(lines):
            yield _plain_block(lines, len(names), line_no)
            line_no += len(lines)
            lines = stream.readlines(_BLOCK_CHARS)
        reader, records, chars = csv.reader(chain(lines, stream)), [], 0
        for cells in reader:
            if cells:
                records.append((line_no + reader.line_num, cells))
                chars += sum(map(len, cells))
                if chars >= _BLOCK_CHARS:
                    yield _record_block(records, len(names))
                    records, chars = [], 0
        if records:
            yield _record_block(records, len(names))
    except csv.Error as exc:
        raise PointParseError(str(exc),
                              line_no=line_no + reader.line_num) from exc


def _plain(lines: list[str]) -> bool:
    """Whether commas and line ends alone split these lines as csv would."""
    text = "".join(lines)
    # "\r" in text is a fast scan; counting "\r\n" is not
    return ('"' not in text
            and ("\r" not in text or text.count("\r") == text.count("\r\n"))
            and max(map(len, lines)) <= csv.field_size_limit())


def _plain_block(lines: list[str], k: int, line_no: int) -> _Block:
    """The ``_Block`` of plain lines under ``k`` header names, the first
    being line ``line_no + 1``, split at commas as csv splits them."""
    # a blank line has no comma, so under one name no line is full
    full = np.fromiter(map(str.count, lines, repeat(",")), np.int64,
                       len(lines)) == ((k - 1) or -1)
    rows = "".join(compress(lines, full.tolist()))
    if "\r" in rows:
        rows = rows.replace("\r\n", "\n")
    if rows and not rows.endswith("\n"):
        rows += "\n"
    cells = rows.replace("\n", ",").split(",")
    cells.pop()                 # after the last line end
    return _Block(line_no + 1 + np.flatnonzero(full), cells, [
        (line_no + i + 1, line.split(","))
        for i in np.flatnonzero(~full).tolist()
        if (line := lines[i].rstrip("\r\n"))])


def _record_block(records: list[tuple[int, list[str]]], k: int) -> _Block:
    """The ``_Block`` of ``csv.reader`` records under ``k`` header names."""
    full = [r for r in records if len(r[1]) == k]
    return _Block(np.array([line for line, _ in full], np.int64),
                  [c for _, cells in full for c in cells],
                  [r for r in records if len(r[1]) != k])


def _parse_block(block: _Block, k: int,
                 col: dict[str, int]) -> tuple[ParseResult, np.ndarray]:
    """The full records (``k`` cells each) that the bulk checks accept,
    and their mask; ``col`` is ``_header``'s column of each name.

    The cells are split into columns, converted with ``float`` and
    range-checked in bulk, accepting only rows that ``_build_point``
    accepts, with the same values.
    """
    cells, n = block.cells, len(block.line)

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
    return ParseResult(*(c[ok] for c in (np.array(user, dtype=object), t,
                                         lat, lon, *optional))), ok


def _floats_at(text: list[str], rows: np.ndarray) -> np.ndarray:
    """``float`` of the cells in ``rows``, bit for bit; NaN elsewhere.

    A cell that ``float`` refuses is NaN too; the conversion goes on from
    the next cell, so each refused cell costs one exception.
    """
    cells = compress(text, rows.tolist())
    out: list[float] = []
    while True:
        try:
            out.extend(map(float, cells))   # keeps what came before a refusal
            break
        except ValueError:
            out.append(math.nan)
    v = np.full(len(text), np.nan)
    v[rows] = out
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


def _utc_seconds(text: list[str]) -> np.ndarray:
    """Unix seconds of ``YYYY-MM-DDTHH:MM:SSZ`` (20 characters) or
    ``YYYY-MM-DDTHH:MM:SS±HH:MM`` (25) strings, all of one length.

    NaN where the shape or the calendar is wrong: a year 0, a month or a
    day out of range, an hour past 23, a minute or second past 59, or an
    offset of 24 h or more, all of which ``datetime.fromisoformat``
    refuses too. It takes any two-digit offset minute below that bound,
    and so does this. Days are counted in integers by numpy's
    ``datetime64`` calendar, so every second is exact.
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
    # the first days of the row's month and of the next, from 1970-01-01
    months = (year - 1970) * 12 + np.clip(month, 1, 12) - 1
    first, after = (m.astype("datetime64[M]").astype("datetime64[D]")
                    .astype(np.int64) for m in (months, months + 1))
    ok &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
           & (day <= after - first) & (hour <= 23) & (minute <= 59)
           & (second <= 59))
    days = first + day - 1
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


# -- movement extraction ------------------------------------------------

DIRECTIONS = ("consecutive", "heading")     # the first is the default


@dataclass(frozen=True)
class ExtractSettings:
    """A ``direction`` of ``DIRECTIONS``, a finite ``min_displacement`` >= 0
    (m) and a finite ``max_gap`` > 0 (s) for :func:`extract_movements`;
    other values are refused when the object is made."""

    min_displacement: float = 10.0
    max_gap: float = 1800.0
    direction: str = DIRECTIONS[0]

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"unknown direction {self.direction!r}")
        if not 0 <= self.min_displacement < math.inf:   # NaN fails too
            raise ConfigError("min_displacement must be finite and >= 0")
        if not 0 < self.max_gap < math.inf:
            raise ConfigError("max_gap must be finite and > 0")


@dataclass
class ExtractionStats:
    n_points: int = 0
    n_skipped: int = 0          # malformed rows: the blocks' ``skipped``
    n_users: int = 0
    n_vectors: int = 0
    dropped_duplicate: int = 0
    dropped_gap: int = 0
    dropped_short: int = 0
    dropped_no_heading: int = 0


@dataclass
class MovementBatch:
    """Movement vectors as columns, ordered by user code (``Carry``), then t.

    A vector is timestamped at the later of its two fixes (in
    ``heading`` mode, at its one fix). ``x``/``y`` are the origins
    projected into ``aoi`` local coordinates (out-of-area origins simply
    land outside the grid and are dropped later, at accumulation).
    ``bins`` and ``in_area`` are made on first use: change no column after.
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

    @cached_property
    def bins(self) -> np.ndarray:
        """Each vector's direction bin (uint8), made once for all scales."""
        return kernels.direction_bins(self.theta).astype(np.uint8)

    @cached_property
    def in_area(self) -> np.ndarray:
        """Whether each origin lies in ``aoi``, made once for all scales."""
        return self.aoi.contains(self.origin_lat, self.origin_lon)


class _BackInTime(Exception):
    """A block holds a row earlier than its user's carried fix."""


class Carry:
    """The blocks of one file extracted so far: ``code[user]`` numbers each
    user once, by first appearance and a block's new users in id order;
    ``ids[code]`` is its id and row ``code`` of ``fixes`` its last fix
    ``(t, lat, lon)``, which a next block's columns join (later rows are
    spare); ``stats`` counts every block."""

    def __init__(self):
        self.code, self.stats = {}, ExtractionStats()
        self.ids, self.fixes = np.empty(0, object), np.empty((0, 3))


def extract_movements(points: ParseResult, aoi: AreaOfInterest,
                      settings: ExtractSettings = ExtractSettings(),
                      carry: Carry | None = None,
                      ) -> tuple[MovementBatch, ExtractionStats]:
    """Derive movement vectors from the point columns of ``points``.

    Points may arrive unsorted; they are grouped by user and sorted by
    time, and an exact duplicate (user, t) keeps the first occurrence.
    In ``consecutive`` mode each adjacent fix pair of one user becomes a
    vector when its duration is at most ``max_gap`` and its projected
    displacement at least ``min_displacement``; in ``heading`` mode each
    fix carrying a heading becomes a vector on its own. Drops are
    counted, never raised.

    ``points`` may be a block of a file, with the ``carry`` of the blocks
    before it (else a fresh ``Carry``). The fixes carried for its users
    join its ``t``, ``lat`` and ``lon`` columns in front: each pairs with
    its user's first row and makes a row of equal time a duplicate, but
    has no heading and adds no point, user, vector or drop. ``carry``
    then takes the block's users, last fixes and counts; the stats
    returned are ``carry.stats``. A row earlier than its user's carried
    fix raises ``_BackInTime`` and leaves ``carry`` as it was.
    """
    carry = Carry() if carry is None else carry
    code, held = carry.code, len(carry.code)
    # one dict lookup per row (a str array would drop trailing NULs); a new
    # user's code is held + its first row, then its rank in id order
    codes = np.fromiter(map(code.setdefault, points.user_id.tolist(),
                            count(held)), np.int64, len(points))
    old = codes < held          # rows of users of earlier blocks
    first = np.flatnonzero(codes == held + np.arange(len(points)))
    first = first[np.argsort(points.user_id[first])]
    new = points.user_id[first].tolist()
    if (points.t[old] < carry.fixes[codes[old], 0]).any():
        for user in new:
            del code[user]
        raise _BackInTime
    code.update(zip(new, count(held)))
    recode = np.empty(len(points), np.int64)
    recode[first] = np.arange(held, len(code))
    codes[~old] = recode[codes[~old] - held]
    stats = carry.stats
    stats.n_points += len(points)
    stats.n_skipped += points.skipped
    stats.n_users += len(new)
    carried = np.sort(codes[old])   # np.unique, which hashes, is 10x slower
    carried = carried[np.diff(carried, prepend=-1) > 0]
    codes = np.concatenate([carried, codes])
    t, lat, lon = (np.concatenate([fix, col]) for fix, col in zip(
        carry.fixes[carried].T, (points.t, points.lat, points.lon)))
    # (user, t) order; lexsort is stable, so ties keep input order: dedup
    # keeps the first, and a carried fix goes before the rows of its time
    order = np.lexsort((t, codes))
    codes, t = codes[order], t[order]
    dup = np.zeros(t.size, dtype=bool)
    dup[1:] = (codes[1:] == codes[:-1]) & (t[1:] == t[:-1])
    keep = order[~dup]
    codes, t, lat, lon = codes[~dup], t[~dup], lat[keep], lon[keep]
    if len(code) > len(carry.ids):      # doubling: copies stay linear
        size = max(len(code), 2 * len(carry.ids))
        carry.ids = np.resize(carry.ids, size)
        carry.fixes = np.resize(carry.fixes, (size, 3))
    carry.ids[held:len(code)] = new
    last = np.flatnonzero(np.diff(codes, append=-1))
    carry.fixes[codes[last]] = np.column_stack([t[last], lat[last],
                                                lon[last]])
    stats.dropped_duplicate += int(dup.sum())

    if settings.direction == "heading":
        rows = keep - carried.size      # a carried fix's row is negative
        heading, speed = points.heading[rows], points.speed[rows]
        has = ~np.isnan(heading) & (rows >= 0)
        stats.dropped_no_heading += int((rows >= 0).sum() - has.sum())
        disp = np.maximum(np.where(np.isnan(speed[has]), 0.0, speed[has]),
                          settings.min_displacement)
        lat, lon = lat[has], lon[has]
        batch = MovementBatch(aoi, carry.ids[codes[has]], t[has], lat, lon,
                              *project_arrays(lat, lon, aoi), heading[has],
                              disp, np.ones(disp.size))
        stats.n_vectors += len(batch)
        return batch, stats

    oi = np.flatnonzero(codes[1:] == codes[:-1])
    x, y = project_arrays(lat, lon, aoi)
    dx = x[oi + 1] - x[oi]
    dy = y[oi + 1] - y[oi]
    duration = t[oi + 1] - t[oi]
    disp = np.hypot(dx, dy)
    over_gap = duration > settings.max_gap
    # zero displacement has no direction, whatever the threshold
    short = ~over_gap & ((disp < settings.min_displacement) | (disp == 0.0))
    stats.dropped_gap += int(over_gap.sum())
    stats.dropped_short += int(short.sum())
    ok = ~over_gap & ~short
    oi = oi[ok]
    theta = np.mod(-np.arctan2(dx[ok], dy[ok]), TWO_PI)
    theta[theta >= TWO_PI] = 0.0  # rounding at the wrap
    batch = MovementBatch(aoi, carry.ids[codes[oi]], t[oi + 1], lat[oi],
                          lon[oi], x[oi], y[oi], theta, disp[ok],
                          duration[ok])
    stats.n_vectors += len(batch)
    return batch, stats
