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
from typing import Iterator, Mapping, NamedTuple

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
        multiples of ``W``, from the first time in ``t`` to the last;
        ``(ALL_TIME,)`` for "all" or no times."""
        if self.window == "all" or t.size == 0:
            return (ALL_TIME,)
        width, spec = _number(self.window), f"window {self.window}"
        k = float(t.min()) / width
        if not math.isfinite(k):
            raise ConfigError(f"{spec} is too short for the timestamps")
        start, last, out = math.floor(k) * width, float(t.max()), []
        while start <= last:
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


def _windowed_arrays(movements: MovementBatch, aoi: AreaOfInterest,
                     windows: tuple[TimeWindow, ...]):
    """(x, y, theta, window index, n_out_of_area) of the kept vectors.

    A vector is kept when its origin lies in ``aoi`` and its time in a
    window, ``start <= t < end``; ``windows`` are sorted and disjoint.
    ``ALL_TIME`` alone keeps every in-area vector.
    """
    x, y, theta, t, dropped = _movement_arrays(movements, aoi)
    if windows == (ALL_TIME,):
        return x, y, theta, np.zeros(x.size, dtype=np.int64), dropped
    starts, ends = _window_bounds(windows)
    # the last window with start <= t; -1 before the first, and NaN
    # sorts after every start, so t < end then fails
    widx = np.searchsorted(starts, t, side="right") - 1
    keep = (widx >= 0) & (t < ends[np.maximum(widx, 0)])
    if not keep.all():
        x, y, theta, widx = x[keep], y[keep], theta[keep], widx[keep]
    return x, y, theta, widx, dropped


def _mesh_index(x, y, scale_m: int, ncols: int) -> np.ndarray:
    """Flat grid index row * ncols + col of each local coordinate."""
    col = (x // scale_m).astype(np.int64)
    row = (y // scale_m).astype(np.int64)
    return row * ncols + col


def _field(scale_m, window, aoi, ncols, mesh_flat, totals, ent,
           dropped=0) -> MdeField:
    row, col = np.divmod(mesh_flat, ncols)
    return MdeField(scale_m, window, aoi, col, row, totals, ent, dropped)


class FieldAccumulator:
    """Streaming accumulator of per-mesh direction histograms for one scale.

    ``add`` may be called with arbitrary input chunks in any order;
    ``merge`` combines accumulators built over disjoint chunks. The
    finished field does not depend on how the input was split.
    """

    def __init__(self, aoi: AreaOfInterest, scale_m: int,
                 window: TimeWindow = ALL_TIME,
                 min_samples: int = FieldSettings.min_samples):
        # refuse a bad scale, sample floor or window before any input
        FieldSettings((int(scale_m),), min_samples=min_samples)
        _window_bounds((window,))
        self.aoi = aoi
        self.scale_m = int(scale_m)
        self.window = window
        self.min_samples = int(min_samples)
        self.dropped_out_of_area = 0
        self._ncols, _ = aoi.grid_shape(self.scale_m)
        self._keys: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []

    def add(self, movements: MovementBatch) -> None:
        x, y, theta, _, dropped = _windowed_arrays(movements, self.aoi,
                                                   (self.window,))
        self.dropped_out_of_area += dropped
        if x.size == 0:
            return
        flat = _mesh_index(x, y, self.scale_m, self._ncols)
        bins = kernels.direction_bins(theta)
        keys, counts = kernels.count_mesh_bins(flat, bins)
        self._keys.append(keys)
        self._counts.append(counts)

    def merge(self, other: "FieldAccumulator") -> None:
        if (other.aoi, other.scale_m, other.window, other.min_samples) != \
                (self.aoi, self.scale_m, self.window, self.min_samples):
            raise ConfigError("cannot merge accumulators with different setups")
        self._keys.extend(other._keys)
        self._counts.extend(other._counts)
        self.dropped_out_of_area += other.dropped_out_of_area

    def _merged(self):
        if not self._keys:
            z = np.empty(0, dtype=np.int64)
            return z, z
        keys = np.concatenate(self._keys)
        counts = np.concatenate(self._counts)
        return kernels.group_counts(keys, counts)

    def finish(self) -> MdeField:
        keys, counts = self._merged()
        mesh_flat, totals, ent = kernels.field_entropy(
            keys, counts, self.min_samples)
        return _field(self.scale_m, self.window, self.aoi, self._ncols,
                      mesh_flat, totals, ent, self.dropped_out_of_area)


def compute_fields(movements: MovementBatch, aoi: AreaOfInterest,
                   settings: FieldSettings = FieldSettings(), windows=None,
                   ) -> tuple[list[MdeField], int]:
    """Every (scale, window) field of ``movements`` in one pass per scale.

    ``windows``, sorted and disjoint, default to ``settings.windows`` of
    the vector times. The window index is one more key dimension,
    (window, mesh, bin), so each scale takes one count and one entropy
    call over the whole input. Returns the fields in scale-major order,
    each bit for bit what a ``FieldAccumulator`` of that scale and window
    gives, and the number of out-of-area vectors, each counted once; the
    fields' own ``dropped_out_of_area`` stay 0.
    """
    windows = (settings.windows(movements.t) if windows is None
               else tuple(windows))
    scales, min_samples = settings.scales, settings.min_samples
    x, y, theta, widx, dropped = _windowed_arrays(movements, aoi, windows)
    bins = kernels.direction_bins(theta)
    out: list[MdeField] = []
    for scale in scales:
        ncols, nrows = aoi.grid_shape(scale)
        ncells = ncols * nrows
        if len(windows) * ncells * N_BINS > np.iinfo(np.int64).max:
            raise ConfigError(
                f"{len(windows)} windows x {ncells} meshes at {scale} m "
                "overflow the int64 (window, mesh, bin) key")
        flat = widx * ncells + _mesh_index(x, y, scale, ncols)
        keys, counts = kernels.count_mesh_bins(flat, bins)
        mesh, totals, ent = kernels.field_entropy(keys, counts, min_samples)
        w_of, mesh_flat = np.divmod(mesh, ncells)
        cuts = np.searchsorted(w_of, np.arange(len(windows) + 1))
        for i, w in enumerate(windows):
            sl = slice(cuts[i], cuts[i + 1])
            out.append(_field(scale, w, aoi, ncols, mesh_flat[sl],
                              totals[sl], ent[sl]))
    return out, dropped
