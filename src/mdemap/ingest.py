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
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, PointParseError, UndefinedDirectionError
from .mesh import AreaOfInterest, GeoPoint, project_arrays, TWO_PI


class TrajectoryPoint(NamedTuple):
    """One GPS fix; heading (radians, same convention) and speed are optional."""

    user_id: str
    t: float
    pos: GeoPoint
    heading: float | None = None
    speed: float | None = None


class MovementVector(NamedTuple):
    """One displacement event, timestamped at the later fix."""

    user_id: str
    t: float
    origin: GeoPoint
    theta: float
    displacement: float
    duration: float


def direction_of(dx: float, dy: float) -> float:
    """Angle of a local displacement (meters east, meters north).

    theta = (-atan2(dx, dy)) mod 2*pi: anticlockwise from north.
    """
    if dx == 0.0 and dy == 0.0:
        raise UndefinedDirectionError("zero displacement has no direction")
    theta = math.fmod(-math.atan2(dx, dy), TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    # adding 2*pi to a tiny negative can round to exactly 2*pi
    return 0.0 if theta >= TWO_PI else theta


# -- point file parsing -------------------------------------------------

_REQUIRED = ("user_id", "timestamp", "lat", "lon")


@dataclass
class ParseResult:
    """Points in file order plus the count of malformed rows skipped."""

    points: list[TrajectoryPoint]
    skipped: int = 0

    def __iter__(self) -> Iterator[TrajectoryPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def _parse_timestamp(raw) -> float:
    if isinstance(raw, (int, float)):
        t = float(raw)
    else:
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
    if not math.isfinite(t):
        raise ValueError(f"non-finite timestamp {raw!r}")
    return t


def _build_point(rec: dict, line_no: int) -> TrajectoryPoint:
    try:
        user = rec["user_id"]
        if user is None or str(user) == "":
            raise ValueError("empty user_id")
        t = _parse_timestamp(rec["timestamp"])
        lat = float(rec["lat"])
        lon = float(rec["lon"])
        if not (-90.0 <= lat <= 90.0):
            raise ValueError(f"latitude {lat} out of range")
        if not (-180.0 <= lon <= 180.0):
            raise ValueError(f"longitude {lon} out of range")
        heading = rec.get("heading")
        if heading in (None, ""):
            heading = None
        else:
            heading = float(heading)
            if not (0.0 <= heading < TWO_PI):
                raise ValueError(f"heading {heading} outside [0, 2*pi)")
        speed = rec.get("speed")
        if speed in (None, ""):
            speed = None
        else:
            speed = float(speed)
            if not (math.isfinite(speed) and speed >= 0.0):
                raise ValueError(f"bad speed {speed}")
    except (KeyError, TypeError, ValueError) as exc:
        raise PointParseError(str(exc), line_no=line_no) from exc
    return TrajectoryPoint(str(user), t, GeoPoint(lat, lon), heading, speed)


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


def parse_points(source, fmt: str = "csv", strict: bool = False) -> ParseResult:
    """Parse a points file (CSV or NDJSON) into trajectory points.

    Malformed rows are skipped and counted; with ``strict`` the first one
    raises instead, carrying its line number. A header missing required
    columns is structural and always raises.
    """
    if fmt not in ("csv", "ndjson"):
        raise ConfigError(f"unknown points format {fmt!r}")
    stream, owned = _open_text(source)
    try:
        if fmt == "csv":
            return _parse_csv(stream, strict)
        return _parse_ndjson(stream, strict)
    finally:
        if owned:
            stream.close()


def _parse_csv(stream, strict: bool) -> ParseResult:
    reader = csv.DictReader(stream)
    if reader.fieldnames is not None:
        missing = [c for c in _REQUIRED if c not in reader.fieldnames]
        if missing:
            raise PointParseError(
                f"header missing columns {', '.join(missing)}", line_no=1)
    points: list[TrajectoryPoint] = []
    skipped = 0
    for rec in reader:
        try:
            points.append(_build_point(rec, reader.line_num))
        except PointParseError:
            if strict:
                raise
            skipped += 1
    return ParseResult(points, skipped)


def _parse_ndjson(stream, strict: bool) -> ParseResult:
    points: list[TrajectoryPoint] = []
    skipped = 0
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("line is not a JSON object")
            except ValueError as exc:
                raise PointParseError(str(exc), line_no=line_no) from exc
            points.append(_build_point(rec, line_no))
        except PointParseError:
            if strict:
                raise
            skipped += 1
    return ParseResult(points, skipped)


# -- movement extraction ------------------------------------------------


@dataclass
class ExtractionStats:
    n_points: int = 0
    n_users: int = 0
    n_vectors: int = 0
    dropped_duplicate: int = 0
    dropped_gap: int = 0
    dropped_short: int = 0
    dropped_no_heading: int = 0

    @property
    def dropped(self) -> int:
        return (self.dropped_duplicate + self.dropped_gap
                + self.dropped_short + self.dropped_no_heading)


@dataclass
class MovementBatch:
    """Movement vectors in column form, ordered by (user_id, t).

    Iterating yields MovementVector tuples; the arrays are the working
    representation for field accumulation. ``x``/``y`` are the origins
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

    def __getitem__(self, i: int) -> MovementVector:
        return MovementVector(
            str(self.user_id[i]), float(self.t[i]),
            GeoPoint(float(self.origin_lat[i]), float(self.origin_lon[i])),
            float(self.theta[i]), float(self.displacement[i]),
            float(self.duration[i]))

    def __iter__(self) -> Iterator[MovementVector]:
        for i in range(len(self)):
            yield self[i]

    @classmethod
    def from_vectors(cls, vectors: Iterable[MovementVector],
                     aoi: AreaOfInterest) -> "MovementBatch":
        vecs = list(vectors)
        user = np.asarray([v.user_id for v in vecs], dtype=object)
        t = np.asarray([v.t for v in vecs], dtype=np.float64)
        lat = np.asarray([v.origin.lat for v in vecs], dtype=np.float64)
        lon = np.asarray([v.origin.lon for v in vecs], dtype=np.float64)
        theta = np.asarray([v.theta for v in vecs], dtype=np.float64)
        disp = np.asarray([v.displacement for v in vecs], dtype=np.float64)
        dur = np.asarray([v.duration for v in vecs], dtype=np.float64)
        x, y = project_arrays(lat, lon, aoi)
        return cls(aoi, user, t, lat, lon, x, y, theta, disp, dur)


def _empty_batch(aoi: AreaOfInterest) -> MovementBatch:
    f = np.empty(0, dtype=np.float64)
    return MovementBatch(aoi, np.empty(0, dtype=object), f, f.copy(),
                         f.copy(), f.copy(), f.copy(), f.copy(), f.copy(),
                         f.copy())


def extract_movements(points, aoi: AreaOfInterest,
                      min_displacement: float = 10.0,
                      max_gap: float = 1800.0,
                      source: str = "consecutive",
                      ) -> tuple[MovementBatch, ExtractionStats]:
    """Derive movement vectors from trajectory points.

    Points may arrive unsorted; they are grouped by user and sorted by
    time, and an exact duplicate (user, t) keeps the first occurrence.
    In ``consecutive`` mode each adjacent fix pair of one user becomes a
    vector when its duration is at most ``max_gap`` and its projected
    displacement at least ``min_displacement``; in ``heading`` mode each
    fix carrying a heading becomes a vector on its own. Drops are
    counted, never raised.
    """
    if source not in ("consecutive", "heading"):
        raise ConfigError(f"unknown direction source {source!r}")
    if min_displacement < 0 or max_gap <= 0:
        raise ConfigError("min_displacement must be >= 0 and max_gap > 0")
    pts = points.points if isinstance(points, ParseResult) else list(points)
    stats = ExtractionStats(n_points=len(pts))
    if not pts:
        return _empty_batch(aoi), stats

    user = np.asarray([p.user_id for p in pts], dtype=object)
    t = np.asarray([p.t for p in pts], dtype=np.float64)
    lat = np.asarray([p.pos.lat for p in pts], dtype=np.float64)
    lon = np.asarray([p.pos.lon for p in pts], dtype=np.float64)
    uniq, codes = np.unique(user.astype(str), return_inverse=True)
    stats.n_users = int(uniq.size)
    # stable (user, t) order: ties keep input order, so dedup keeps the first
    order = np.lexsort((np.arange(t.size), t, codes))
    codes, t = codes[order], t[order]
    dup = np.zeros(t.size, dtype=bool)
    dup[1:] = (codes[1:] == codes[:-1]) & (t[1:] == t[:-1])
    stats.dropped_duplicate = int(dup.sum())
    keep = order[~dup]
    codes, t = codes[~dup], t[~dup]
    lat, lon, user = lat[keep], lon[keep], user[keep]

    if source == "heading":
        heading = np.asarray(
            [pts[i].heading if pts[i].heading is not None else np.nan
             for i in keep], dtype=np.float64)
        speed = np.asarray(
            [pts[i].speed if pts[i].speed is not None else 0.0
             for i in keep], dtype=np.float64)
        has = ~np.isnan(heading)
        stats.dropped_no_heading = int((~has).sum())
        disp = np.maximum(speed[has], min_displacement)
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
