"""Moving direction entropy fields.

Movement directions are discretized into 100 angular bins of width
pi/50; each mesh of a scale accumulates a histogram of the directions of
movements originating inside it during a time window, and its entropy

    H = -sum_i p_i ln p_i,   p_i = count_i / total

is the mesh's moving direction entropy, in nats, in [0, ln 100].
Meshes with fewer than ``min_samples`` movements are kept with their
count but marked undefined (no entropy).

Accumulation is a commutative monoid: chunks of the input may be
accumulated separately and merged, and the finished field is identical
bit for bit regardless of chunk boundaries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from . import kernels
from .errors import ConfigError
from .ingest import MovementBatch, _number
from .kernels import N_BINS
from .mesh import (AreaOfInterest, MeshId, STANDARD_SCALES_M,
                   project_arrays)

MAX_ENTROPY = math.log(N_BINS)
# Most time windows one field build may make, per scale.
MAX_WINDOWS = 100_000


class TimeWindow(NamedTuple):
    """Half-open interval [start, end) in UTC seconds."""

    start: float = -math.inf
    end: float = math.inf


ALL_TIME = TimeWindow()


class MeshEntry(NamedTuple):
    count: int
    entropy: float | None


@dataclass(eq=False)
class MdeField:
    """One scale's field in one time window, as columns in (row, col) order.

    ``entropy`` is NaN where the mesh is undefined. Two fields are equal
    when scale, window, area and columns match bit for bit;
    ``dropped_out_of_area`` is not compared.
    """

    scale_m: int
    window: TimeWindow
    aoi: AreaOfInterest
    col: np.ndarray
    row: np.ndarray
    count: np.ndarray
    entropy: np.ndarray
    dropped_out_of_area: int = 0

    def __eq__(self, other):
        if not isinstance(other, MdeField):
            return NotImplemented
        return ((self.scale_m, self.window, self.aoi)
                == (other.scale_m, other.window, other.aoi)
                and all(a.shape == b.shape and a.tobytes() == b.tobytes()
                        for a, b in ((self.col, other.col),
                                     (self.row, other.row),
                                     (self.count, other.count),
                                     (self.entropy, other.entropy))))

    @property
    def n_defined(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.entropy)))

    @cached_property
    def entries(self) -> Mapping[MeshId, MeshEntry]:
        """Read-only per-mesh view, ``entropy=None`` where undefined.

        Built on first access; later changes to the columns do not
        reach it.
        """
        ent = self.entropy.astype(object)
        ent[np.isnan(self.entropy)] = None
        return MappingProxyType(dict(zip(
            map(MeshId, repeat(self.scale_m), self.col.tolist(),
                self.row.tolist()),
            map(MeshEntry, self.count.tolist(), ent.tolist()))))

    def defined(self) -> Iterator[tuple[MeshId, MeshEntry]]:
        """The defined meshes of :attr:`entries`, in (row, col) order."""
        return ((m, e) for m, e in self.entries.items()
                if e.entropy is not None)


def _positive_int(value) -> bool:
    return isinstance(value, numbers.Integral) and value > 0


@dataclass(frozen=True)
class FieldSettings:
    """Distinct positive integer ``scales`` (m), a ``window`` of "all" or a
    length in s (a number or its text) and a positive integer
    ``min_samples``; other values are refused when the object is made."""

    scales: tuple[int, ...] = STANDARD_SCALES_M
    window: str | float = "all"
    min_samples: int = 30

    def __post_init__(self):
        if not (self.scales and len(set(self.scales)) == len(self.scales)
                and all(map(_positive_int, self.scales))):
            raise ConfigError("scales must be distinct positive integers")
        try:
            ok = self.window == "all" or 0 < _number(self.window) < math.inf
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ConfigError("window must be 'all' or a positive length in s")
        if not _positive_int(self.min_samples):
            raise ConfigError("min_samples must be an integer >= 1")

    def windows(self, t: np.ndarray) -> tuple[TimeWindow, ...]:
        """The windows ``[start, start + W)`` of length ``W``, aligned to
        multiples of ``W``, that hold each time of ``t`` exactly once;
        ``(ALL_TIME,)`` for "all" or no times."""
        if self.window == "all" or t.size == 0:
            return (ALL_TIME,)
        width, spec = _number(self.window), f"window {self.window}"
        first, last, out = float(t.min()), float(t.max()), []
        k = first / width
        if not math.isfinite(k):
            raise ConfigError(f"{spec} is too short for the timestamps")
        start = math.floor(k) * width
        while start > first and start - width < start:
            start -= width      # the rounded product passed the first time
        while start <= last or not out:
            if start + width == start:
                raise ConfigError(f"{spec} is below the float resolution of "
                                  f"the timestamps near {start!r}")
            if len(out) == MAX_WINDOWS:
                raise ConfigError(f"{spec} makes more than MAX_WINDOWS = "
                                  f"{MAX_WINDOWS} windows")
            out.append(TimeWindow(start, start + width))
            start += width
        return tuple(out)


def _window_bounds(windows: tuple[TimeWindow, ...]):
    """(starts, ends) of windows; empty, unsorted or overlapping ones are
    refused."""
    starts, ends = np.array(windows, np.float64).reshape(-1, 2).T
    if not (starts < ends).all() or (starts[1:] < ends[:-1]).any():
        raise ConfigError("time windows must be non-empty, sorted and "
                          "disjoint")
    return starts, ends


def _movement_arrays(movements: MovementBatch, aoi: AreaOfInterest):
    """(x, y, theta, t, n_out_of_area) of a batch's vectors."""
    lat, lon = movements.origin_lat, movements.origin_lon
    theta, t = movements.theta, movements.t
    x = y = None
    if movements.aoi == aoi:
        x, y = movements.x, movements.y
    sw, ne = aoi.south_west, aoi.north_east
    inside = ((lat >= sw.lat) & (lat <= ne.lat)
              & (lon >= sw.lon) & (lon <= ne.lon))
    dropped = int(inside.size - inside.sum())
    if dropped:
        lat, lon, theta, t = lat[inside], lon[inside], theta[inside], t[inside]
        if x is not None:
            x, y = x[inside], y[inside]
    if x is None:
        x, y = project_arrays(lat, lon, aoi)
    return x, y, theta, t, dropped


def _mesh_index(x, y, scale_m: int, ncols: int) -> np.ndarray:
    """Flat grid index row * ncols + col of each local coordinate, with
    col = x // scale_m and row = y // scale_m.

    Each floor division is taken as q = floor(v / s), less 1 where
    q * s > v, which is faster than ``np.floor_divide`` and gives the same
    integer for finite v and an integer s with |v| + s <= 2**53. Let n be
    the floor of the exact quotient. n and n + 1 are doubles and rounding
    is monotone, so the rounded v / s lies in [n, n + 1] and q is n or
    n + 1. q * s is an integer of magnitude at most |v| + s, so it is
    computed exactly, and q * s > v holds just when q = n + 1.
    ``floor_divide`` gives n too: its ``fmod`` remainder and the multiple
    of s it leaves are exact.
    """
    row = _floor_div(y, scale_m)
    row *= ncols
    row += _floor_div(x, scale_m)
    return row


def _floor_div(v, s: int) -> np.ndarray:
    """``v // s`` as int64, by the argument in ``_mesh_index``."""
    q = v / s
    np.floor(q, out=q)
    out = q.astype(np.int64)
    q *= s
    out -= q > v
    return out


# Unmerged (key, count) pairs an accumulator holds before it merges them:
# this many, or twice as many as its last merge left, whichever is more.
_MERGE_KEYS = 1 << 20


class FieldAccumulator:
    """Streaming accumulator of per-mesh direction histograms for one scale.

    ``windows`` is a sorted, disjoint tuple of ``TimeWindow``; counts are
    keyed by (window, mesh, bin), so one accumulator builds every window's
    field. A vector counts in the window holding its time,
    ``start <= t < end``. ``add`` may be called with arbitrary input
    chunks in any order; ``merge`` combines accumulators built over
    disjoint chunks. The finished fields do not depend on how the input
    was split, and the held counts grow with the (window, mesh, bin) keys
    seen, not with the vectors.
    """

    def __init__(self, aoi: AreaOfInterest, scale_m: int,
                 windows: tuple[TimeWindow, ...] = (ALL_TIME,),
                 min_samples: int = FieldSettings.min_samples):
        self.windows = tuple(windows)
        # refuse a bad scale, sample floor or window before any input
        FieldSettings((int(scale_m),), min_samples=min_samples)
        self._starts, self._ends = _window_bounds(self.windows)
        self.aoi = aoi
        self.scale_m = int(scale_m)
        self.min_samples = int(min_samples)
        self.dropped_out_of_area = 0
        self._ncols, nrows = aoi.grid_shape(self.scale_m)
        self._ncells = self._ncols * nrows
        if len(self.windows) * self._ncells * N_BINS > np.iinfo(np.int64).max:
            raise ConfigError(
                f"{len(self.windows)} windows x {self._ncells} meshes at "
                f"{self.scale_m} m overflow the int64 (window, mesh, bin) key")
        self._keys: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        self._merge_at = _MERGE_KEYS

    def add(self, movements: MovementBatch) -> None:
        x, y, theta, t, dropped = _movement_arrays(movements, self.aoi)
        self.dropped_out_of_area += dropped
        if self.windows != (ALL_TIME,):
            # the last window with start <= t; -1 before the first, and NaN
            # sorts after every start, so t < end then fails
            w = np.searchsorted(self._starts, t, side="right") - 1
            keep = (w >= 0) & (t < self._ends[np.maximum(w, 0)])
            if not keep.all():
                x, y, theta, w = x[keep], y[keep], theta[keep], w[keep]
        if x.size == 0:
            return
        flat = _mesh_index(x, y, self.scale_m, self._ncols)
        if len(self.windows) > 1:
            flat += w * self._ncells
        keys, counts = kernels.count_mesh_bins(
            flat, kernels.direction_bins(theta))
        self._keys.append(keys)
        self._counts.append(counts)
        if sum(map(len, self._keys)) > self._merge_at:
            self._merge_at = max(_MERGE_KEYS, 2 * self._merged()[0].size)

    def merge(self, other: "FieldAccumulator") -> None:
        if (other.aoi, other.scale_m, other.windows, other.min_samples) != \
                (self.aoi, self.scale_m, self.windows, self.min_samples):
            raise ConfigError("cannot merge accumulators with different setups")
        if other is self:
            raise ConfigError("cannot merge an accumulator into itself")
        self._keys.extend(other._keys)
        self._counts.extend(other._counts)
        self.dropped_out_of_area += other.dropped_out_of_area

    def _merged(self):
        """The held (key, count) pairs summed by key, keys ascending, kept
        as the one part held from then on; key = (window * meshes + mesh)
        * N_BINS + bin.

        Every held part comes from ``count_mesh_bins`` or an earlier
        merge, so a single part is already summed and ascending. Parts may
        be shared with a merged accumulator and are never changed in
        place."""
        if not self._keys:
            z = np.empty(0, dtype=np.int64)
            return z, z
        if len(self._keys) == 1:
            return self._keys[0], self._counts[0]
        keys, counts = kernels.group_counts(np.concatenate(self._keys),
                                            np.concatenate(self._counts))
        self._keys, self._counts = [keys], [counts]
        return keys, counts

    def finish(self) -> MdeField:
        """The field of a one-window accumulator."""
        if len(self.windows) != 1:
            raise ConfigError(f"finish() makes one field, not "
                              f"{len(self.windows)}; use finish_all()")
        return self._fields()[0]

    def finish_all(self) -> list[MdeField]:
        """One field per window, in window order, each carrying the
        out-of-area count. A one-window accumulator finishes through
        ``finish``, so what wraps that method sees every one-window build."""
        return [self.finish()] if len(self.windows) == 1 else self._fields()

    def _fields(self) -> list[MdeField]:
        keys, counts = self._merged()
        mesh, totals, ent = kernels.field_entropy(keys, counts,
                                                  self.min_samples)
        # keys ascend, so each window's meshes are one run
        cuts = [0, *np.searchsorted(mesh, self._ncells * np.arange(
            1, len(self.windows))).tolist(), mesh.size]
        out = []
        for i, w in enumerate(self.windows):
            sl = slice(cuts[i], cuts[i + 1])
            row, col = np.divmod(mesh[sl] - i * self._ncells, self._ncols)
            out.append(MdeField(self.scale_m, w, self.aoi, col, row,
                                totals[sl], ent[sl], self.dropped_out_of_area))
        return out


def compute_fields(batches: Iterable[MovementBatch], aoi: AreaOfInterest,
                   settings: FieldSettings = FieldSettings(), windows=None,
                   ) -> list[MdeField]:
    """Every (scale, window) field of the vectors of ``batches``, in
    scale-major order: each batch is added once to one accumulator per
    scale, over every window. Each field carries the number of out-of-area
    vectors, each counted once, as its ``dropped_out_of_area``.

    ``windows``, sorted and disjoint, default to ``settings.windows`` of
    the vector times. Batches are dropped once added, except that a width
    window without ``windows`` keeps them until the time range is known.
    """
    if windows is None and settings.window != "all":
        batches = list(batches)
        windows = settings.windows(np.concatenate(
            [np.empty(0)] + [b.t for b in batches]))
    windows = (ALL_TIME,) if windows is None else windows
    accumulators = [FieldAccumulator(aoi, scale, windows, settings.min_samples)
                    for scale in settings.scales]
    for batch in batches:
        for acc in accumulators:
            acc.add(batch)
    return [f for acc in accumulators for f in acc.finish_all()]
