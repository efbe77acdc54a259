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


def _movement_arrays(movements: MovementBatch, aoi: AreaOfInterest, k):
    """(x, y, theta, k, n_out_of_area) of a batch's vectors inside the area,
    where ``k`` is a column of the batch."""
    lat, lon = movements.origin_lat, movements.origin_lon
    theta = movements.theta
    x = y = None
    if movements.aoi == aoi:
        x, y = movements.x, movements.y
    sw, ne = aoi.south_west, aoi.north_east
    inside = ((lat >= sw.lat) & (lat <= ne.lat)
              & (lon >= sw.lon) & (lon <= ne.lon))
    dropped = int(inside.size - inside.sum())
    if dropped:
        lat, lon, theta, k = lat[inside], lon[inside], theta[inside], k[inside]
        if x is not None:
            x, y = x[inside], y[inside]
    if x is None:
        x, y = project_arrays(lat, lon, aoi)
    return x, y, theta, k, dropped


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

    ``window`` is "all" or a width W in s: window k is ``[k*W, (k+1)*W)``,
    each bound the product rounded once, and the windows run from the
    lowest to the highest k of any vector added, in the area or not.
    Counts are keyed by (k - base, mesh, bin), base being the first k seen.
    ``add`` may be called with arbitrary input chunks in any order;
    ``merge`` combines accumulators built over disjoint chunks. The
    finished fields do not depend on how the input was split, and the held
    counts grow with the (window, mesh, bin) keys seen, not with the
    vectors.
    """

    def __init__(self, aoi: AreaOfInterest, scale_m: int,
                 window: str | float = "all",
                 min_samples: int = FieldSettings.min_samples):
        # refuse a bad scale, sample floor or window before any input
        FieldSettings((int(scale_m),), window, min_samples)
        self.aoi = aoi
        self.scale_m = int(scale_m)
        self.window = window
        self.min_samples = int(min_samples)
        self.dropped_out_of_area = 0
        self._width = None if window == "all" else _number(window)
        # first k seen (None for "all" or no vector yet), lowest and highest
        self._base, self._lo, self._hi = None, 0, 0
        self._ncols, nrows = aoi.grid_shape(self.scale_m)
        self._ncells = self._ncols * nrows
        self._keys: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        self._merge_at = _MERGE_KEYS

    def _window_numbers(self, t: np.ndarray) -> np.ndarray:
        """Each time's k, ``k*W <= t < (k+1)*W``: ``floor(t / W)``, then one
        step down or up. For |k| < 2**53 the rounded quotient is the floor n
        of the exact one or n + 1, and ``n*W`` rounds to at most t and
        ``(n+1)*W`` to at least t, so one step finds k when no window is
        empty, as ``_cover`` ensures."""
        if t.size == 0:
            return t
        with np.errstate(over="ignore"):
            k = np.floor(t / self._width)
        if not np.isfinite(k).all():
            raise ConfigError(f"window {self.window} is too short for the "
                              f"timestamps")
        k -= k * self._width > t
        k += (k + 1) * self._width <= t
        self._cover(int(k.min()), int(k.max()))
        return k.astype(np.int64)

    def _cover(self, lo: int, hi: int) -> None:
        """Widen the range of k to hold ``lo..hi``. More than
        ``MAX_WINDOWS`` windows, keys that overflow int64 and |k| >= 2**52
        are refused; below that, ``k*W`` and ``(k+1)*W`` are W apart and
        the doubles near them closer than W, so no window is empty."""
        if self._base is None:
            self._base = self._lo = self._hi = lo
        lo, hi = min(lo, self._lo), max(hi, self._hi)
        n, spec = hi - lo + 1, f"window {self.window}"
        if max(-lo, hi + 1) >= 2 ** 52:
            raise ConfigError(f"{spec} is below the float resolution of the "
                              f"timestamps near {lo * self._width!r}")
        if n > MAX_WINDOWS:
            raise ConfigError(f"{spec} makes more than MAX_WINDOWS = "
                              f"{MAX_WINDOWS} windows")
        if n * self._ncells * N_BINS > np.iinfo(np.int64).max:
            raise ConfigError(
                f"{n} windows x {self._ncells} meshes at {self.scale_m} m "
                f"overflow the int64 (window, mesh, bin) key")
        self._lo, self._hi = lo, hi

    def add(self, movements: MovementBatch) -> None:
        k = movements.t if self._width is None else self._window_numbers(
            movements.t)
        x, y, theta, k, dropped = _movement_arrays(movements, self.aoi, k)
        self.dropped_out_of_area += dropped
        if x.size == 0:
            return
        flat = _mesh_index(x, y, self.scale_m, self._ncols)
        if self._lo != self._hi:
            flat += (k - self._base) * self._ncells
        keys, counts = kernels.count_mesh_bins(
            flat, kernels.direction_bins(theta))
        self._keys.append(keys)
        self._counts.append(counts)
        if sum(map(len, self._keys)) > self._merge_at:
            self._merge_at = max(_MERGE_KEYS, 2 * self._merged()[0].size)

    def merge(self, other: "FieldAccumulator") -> None:
        if (other.aoi, other.scale_m, other._width, other.min_samples) != \
                (self.aoi, self.scale_m, self._width, self.min_samples):
            raise ConfigError("cannot merge accumulators with different setups")
        if other is self:
            raise ConfigError("cannot merge an accumulator into itself")
        keys = other._keys
        if other._base is not None:
            self._cover(other._lo, other._hi)
            shift = (other._base - self._base) * self._ncells * N_BINS
            keys = [part + shift for part in keys] if shift else keys
        self._keys.extend(keys)
        self._counts.extend(other._counts)
        self.dropped_out_of_area += other.dropped_out_of_area

    def _merged(self):
        """The held (key, count) pairs summed by key, keys ascending, kept
        as the one part held from then on; key = ((k - base) * meshes +
        mesh) * N_BINS + bin.

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
        if self._lo != self._hi:
            raise ConfigError(f"finish() makes one field, not "
                              f"{self._hi - self._lo + 1}; use finish_all()")
        return self._fields()[0]

    def finish_all(self) -> list[MdeField]:
        """One field per window, in window order, empty windows included,
        each carrying the out-of-area count. A one-window accumulator
        finishes through ``finish``, so what wraps that method sees every
        one-window build."""
        return [self.finish()] if self._lo == self._hi else self._fields()

    def _fields(self) -> list[MdeField]:
        keys, counts = self._merged()
        mesh, totals, ent = kernels.field_entropy(keys, counts,
                                                  self.min_samples)
        windows, first, w = [ALL_TIME], 0, self._width
        if self._base is not None:
            windows = [TimeWindow(k * w, (k + 1) * w)
                       for k in range(self._lo, self._hi + 1)]
            first = self._lo - self._base
        # keys ascend, so window i's meshes are the run from (first + i) *
        # meshes
        starts = self._ncells * np.arange(first, first + len(windows) + 1)
        cuts = np.searchsorted(mesh, starts).tolist()
        out = []
        for i, window in enumerate(windows):
            sl = slice(cuts[i], cuts[i + 1])
            row, col = np.divmod(mesh[sl] - starts[i], self._ncols)
            out.append(MdeField(self.scale_m, window, self.aoi, col, row,
                                totals[sl], ent[sl], self.dropped_out_of_area))
        return out


def compute_fields(batches: Iterable[MovementBatch], aoi: AreaOfInterest,
                   settings: FieldSettings = FieldSettings(),
                   ) -> list[MdeField]:
    """Every (scale, window) field of the vectors of ``batches``, in
    scale-major order: each batch is added once to one accumulator per
    scale and then dropped. Each field carries the number of out-of-area
    vectors, each counted once, as its ``dropped_out_of_area``."""
    accumulators = [FieldAccumulator(aoi, scale, settings.window,
                                     settings.min_samples)
                    for scale in settings.scales]
    for batch in batches:
        for acc in accumulators:
            acc.add(batch)
    return [f for acc in accumulators for f in acc.finish_all()]
