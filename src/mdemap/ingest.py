"""Trajectory ingestion: point files to per-user movement vectors.

Directions follow the angular convention used throughout the package:
radians anticlockwise from north, so 0 = north, pi/2 = west, pi = south,
3*pi/2 = east.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain, compress, count, repeat
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import kernels
from .errors import ConfigError, PointParseError
from .mesh import AreaOfInterest, project_arrays, TWO_PI


# -- point file parsing -------------------------------------------------

_REQUIRED = ("user_id", "timestamp", "lat", "lon")
_NAMES = _REQUIRED + ("heading", "speed")     # every column a row may have
FORMATS = ("csv", "ndjson")     # points file formats, the first the default
# Characters of text read per block; a block ends at a line end.
_BLOCK_CHARS = 1 << 20
_COLUMNS = ("user_id", "t", "lat", "lon", "heading", "speed")
# Why a row is refused, a key per check in the order they run, with the
# column it reads and the message strict mode fills with the row's cell.
_CHECKS = {
    "not_object": (None, "line is not a JSON object"),
    "empty_user_id": ("user_id", "empty user_id"),
    "bad_timestamp": ("timestamp", "bad timestamp {}"),
    "bad_lat": ("lat", "lat {} is not a number"),
    "lat_range": ("lat", "latitude {} out of range"),
    "bad_lon": ("lon", "lon {} is not a number"),
    "lon_range": ("lon", "longitude {} out of range"),
    "bad_heading": ("heading", "heading {} outside [0, 2*pi)"),
    "bad_speed": ("speed", "bad speed {}"),
}
REASONS = tuple(_CHECKS)


@dataclass(eq=False)
class ParseResult:
    """Point columns in file order, plus, as ``refused``, the ``REASONS``
    indexes and the lines of the malformed rows skipped, in order.

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
    refused: tuple = ()

    def __len__(self) -> int:
        return int(self.t.size)

    @property
    def skipped(self) -> int:
        return len(self.refused[0]) if self.refused else 0

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
    characters, in file order, and its malformed rows; every row of either
    format goes through ``_check``. Errors are those of
    :func:`parse_points`.
    """
    with (open(source, "r", encoding="utf-8-sig", newline="")
          if isinstance(source, (str, Path)) else nullcontext(source)
          ) as stream:
        yield from (_parse_csv if settings.fmt == "csv" else _parse_ndjson)(
            stream, settings.strict)


def _parse_csv(stream, strict: bool) -> Iterator[ParseResult]:
    blocks = _csv_blocks(stream)
    if (names := next(blocks, None)) is None:
        return
    col, k = _header(names, _REQUIRED, "points"), len(names)
    for block in blocks:
        line, cells = block.padded(k)
        part = _check(line, {name: cells[col[name]::k] if name in col
                             else None for name in _NAMES}, strict)
        del block, cells        # frees the cells before the caller takes part
        yield part


def _parse_ndjson(stream, strict: bool) -> Iterator[ParseResult]:
    """Each block's lines but blank ones, as columns of their keys' values:
    "" where absent or null, a boolean as its ``str``, which no conversion
    takes, and ``user_id`` as ``str``."""
    line_no = 0
    while lines := stream.readlines(_BLOCK_CHARS):
        given = np.fromiter(map(bool, map(str.strip, lines)), bool,
                            len(lines))
        text = list(compress(lines, given.tolist()))
        records = _json_values(text)
        obj = np.fromiter(map(isinstance, records, repeat(dict)), bool,
                          len(records))
        if not obj.all():
            records = [r if o else {} for r, o in zip(records, obj.tolist())]
        cells = {}
        for name in _NAMES:
            column = cells[name] = list(map(dict.get, records, repeat(name),
                                            repeat("")))
            odd = np.fromiter(map(isinstance, column, repeat(
                (bool, type(None)))), bool, len(column))
            for i in np.flatnonzero(odd).tolist():
                column[i] = "" if column[i] is None else str(column[i])
        cells["user_id"] = list(map(str, cells["user_id"]))
        del records, text       # the cells hold the values
        yield _check(line_no + 1 + np.flatnonzero(given), cells, strict, obj)
        line_no += len(lines)


def _json_values(lines: list[str]) -> list:
    """``json.loads`` of each line, None where it refuses the line."""
    values, rest = [], iter(lines)
    while True:
        try:
            values.extend(map(json.loads, rest))    # keeps what came before
            return values
        except ValueError:
            values.append(None)


def _check(line: np.ndarray, cells: dict, strict: bool,
           obj: np.ndarray | None = None) -> ParseResult:
    """The one rule for a points row, over the rows of a block: ``line``
    holds their lines, ``cells`` each of ``_NAMES`` as a column (text or a
    JSON number, "" where absent; None where the file has no such column)
    and ``obj`` whether each is a JSON object. The checks of ``_CHECKS``
    run in order, each converting its column in bulk on the rows not yet
    refused. Returns the rows all accept, in line order, and the refused
    ones; with ``strict`` the first refused row raises instead."""
    n = len(line)
    reason = np.full(n, -1, dtype=np.int8)     # -1: not refused
    if obj is not None:
        _refuse(reason, "not_object", ~obj)
    user = cells["user_id"]
    _refuse(reason, "empty_user_id",
            np.fromiter(map(len, user), np.int64, n) == 0)
    t = _timestamps(cells["timestamp"], reason < 0)
    _refuse(reason, "bad_timestamp", ~np.isfinite(t))
    columns = [t, *_coordinates(cells["lat"], cells["lon"], reason)]
    for name, fits in (("heading", lambda x: (x >= 0.0) & (x < TWO_PI)),
                       ("speed", lambda x: np.isfinite(x) & (x >= 0.0))):
        x, given = np.full(n, np.nan), np.zeros(n, dtype=bool)
        if cells[name] is not None:     # an empty cell means "absent"
            given = np.fromiter(map(operator.ne, cells[name], repeat("")),
                                bool, n)
            x = _floats_at(cells[name], (reason < 0) & given)[0]
        _refuse(reason, f"bad_{name}", given & ~fits(x))
        columns.append(x)
    ok = reason < 0
    part = ParseResult(np.array(user, dtype=object)[ok],
                       *(c[ok] for c in columns))
    if n and (np.diff(line) < 0).any():     # records of another width last
        part = part.take(np.argsort(line[ok]))
    bad = np.flatnonzero(~ok)
    bad = bad[np.argsort(line[bad])]
    if strict and bad.size:
        raise _refusal(reason[bad[0]], cells, bad[0], line)
    part.refused = (reason[bad], line[bad])
    return part


def _refuse(reason: np.ndarray, key: str, bad: np.ndarray) -> None:
    """Refuses for ``key`` the rows ``bad`` marks that are not yet (-1)."""
    reason[(reason < 0) & bad] = REASONS.index(key)


def _refusal(reason: int, cells: dict, row: int,
             line: np.ndarray) -> PointParseError:
    """The error of a row refused for ``REASONS[reason]``, with its cell."""
    name, message = _CHECKS[REASONS[reason]]
    cell = cells[name][row] if name else None
    try:
        cell = float(cell)
    except (TypeError, ValueError, OverflowError):
        cell = repr(cell)
    return PointParseError(message.format(cell), line_no=int(line[row]))


def _coordinates(lat: list, lon: list, reason: np.ndarray) -> list:
    """``float`` of the ``lat`` and ``lon`` cells of the rows not refused;
    refuses a cell that is no number, a latitude outside [-90, 90] and a
    longitude outside [-180, 180], NaN included."""
    out = []
    for name, cells, bound in (("lat", lat, 90.0), ("lon", lon, 180.0)):
        x, refused = _floats_at(cells, reason < 0)
        _refuse(reason, f"bad_{name}", refused)
        _refuse(reason, f"{name}_range", ~((x >= -bound) & (x <= bound)))
        out.append(x)
    return out


def _header(names: list[str], required, what: str) -> dict[str, int]:
    """The column of each of ``names``, the last of a repeated name, as
    ``csv.DictReader`` reads them; refuses at line 1 the first ``required``
    name they lack."""
    col = {name: i for i, name in enumerate(names)}
    for name in required:
        if name not in col:
            raise PointParseError(f"{what} file has no {name} column",
                                  line_no=1)
    return col


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

    def padded(self, k: int) -> tuple[np.ndarray, list[str]]:
        """``line`` and ``cells`` of every record, the others last, padded
        with empty cells (``csv.DictReader``'s absent ones) or cut to ``k``."""
        if not self.others:
            return self.line, self.cells
        return (np.concatenate([self.line, [at for at, _ in self.others]]),
                self.cells + [c for _, rec in self.others
                              for c in (rec + [""] * k)[:k]])


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


def _floats_at(text: list, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``float`` of the cells in ``rows``, bit for bit, NaN elsewhere, and
    the mask of the cells it refuses (NaN too); the conversion goes on
    after a refused cell, so each costs one exception."""
    cells, out, refused = compress(text, rows.tolist()), [], []
    while True:
        try:
            out.extend(map(float, cells))   # keeps what came before a refusal
            break
        except (ValueError, TypeError, OverflowError):
            refused.append(len(out))
            out.append(math.nan)
    at = np.flatnonzero(rows)
    v, bad = np.full(len(text), np.nan), np.zeros(len(text), dtype=bool)
    v[at], bad[at[refused]] = out, True
    return v, bad


def _timestamps(text: list, rows: np.ndarray) -> np.ndarray:
    """Seconds of the timestamp cells in ``rows``, NaN elsewhere or where
    refused. ``float`` never takes a ':', so only cells without one go
    through it; cells with one are converted in bulk when 20 characters
    long, as ``YYYY-MM-DDTHH:MM:SSZ``, or 25, as ``...+HH:MM``. A cell
    neither settles goes alone through ``datetime.fromisoformat``, a
    trailing "Z" or "z" read as "+00:00" and no offset as UTC."""
    n = len(text)
    try:
        clock = np.fromiter(map(str.__contains__, text, repeat(":")), bool, n)
    except TypeError:       # JSON numbers among the cells: only text has one
        clock = np.fromiter(map(isinstance, text, repeat(str)), bool, n)
        clock[clock] = list(map(str.__contains__, compress(
            text, clock.tolist()), repeat(":")))
    clock &= rows
    t, left = _floats_at(text, rows & ~clock)
    at = np.flatnonzero(clock)
    stamps = list(compress(text, clock.tolist()))
    size = np.fromiter(map(len, stamps), np.int64, len(stamps))
    for width in (20, 25):
        if (iso := size == width).any():
            t[at[iso]] = _utc_seconds(list(compress(stamps, iso.tolist())))
    left[at] |= np.isnan(t[at])
    for i in np.flatnonzero(left).tolist():
        try:
            stamp = text[i].strip()     # AttributeError: not text
            if stamp.endswith(("Z", "z")):
                stamp = stamp[:-1] + "+00:00"
            dt = datetime.fromisoformat(stamp)
            t[i] = (dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)
                    ).timestamp()
        except (AttributeError, ValueError, OverflowError):
            pass
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
        return ParseResult(np.empty(0, dtype=object), *np.empty((5, 0)))
    return ParseResult(*(np.concatenate([getattr(p, c) for p in parts])
                         for c in _COLUMNS),
                       tuple(map(np.concatenate,
                                 zip(*(p.refused for p in parts)))))


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
    # their reasons: each one's "count" and "first_lines", the first five
    skipped_by_reason: dict = field(default_factory=dict)
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
    for reason, line in zip(*(r.tolist() for r in points.refused)):
        had = stats.skipped_by_reason.setdefault(
            REASONS[reason], {"count": 0, "first_lines": []})
        had["count"] += 1
        if had["count"] <= 5:
            had["first_lines"].append(line)
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
