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
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import kernels
from .errors import (EmptyHistogramError, InvalidAngleError, InvalidScaleError,
                     ConfigError)
from .ingest import MovementBatch, MovementVector
from .kernels import N_BINS
from .mesh import AreaOfInterest, GeoPoint, MeshId, project_arrays, TWO_PI

BIN_WIDTH = TWO_PI / N_BINS
MAX_ENTROPY = math.log(N_BINS)


def bin_of(theta: float) -> int:
    """Direction bin 0..99 of an angle in radians (reduced mod 2*pi)."""
    if not math.isfinite(theta):
        raise InvalidAngleError(f"non-finite angle {theta!r}")
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    return min(int((t / TWO_PI) * N_BINS), N_BINS - 1)


@dataclass
class DirectionHistogram:
    """Counts over the 100 direction bins; bin i covers [i*pi/50, (i+1)*pi/50)."""

    counts: np.ndarray = dc_field(
        default_factory=lambda: np.zeros(N_BINS, dtype=np.int64))

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (N_BINS,):
            raise ConfigError(f"histogram needs {N_BINS} bins")
        if (self.counts < 0).any():
            raise ConfigError("negative bin count")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def add(self, theta: float, weight: int = 1) -> None:
        self.counts[bin_of(theta)] += weight

    def merge(self, other: "DirectionHistogram") -> "DirectionHistogram":
        return DirectionHistogram(self.counts + other.counts)

    @classmethod
    def from_thetas(cls, thetas) -> "DirectionHistogram":
        bins = kernels.direction_bins(np.asarray(thetas, dtype=np.float64))
        return cls(np.bincount(bins, minlength=N_BINS).astype(np.int64))


def entropy(h: DirectionHistogram) -> float:
    """Shannon entropy of the direction distribution, in nats."""
    total = h.total
    if total == 0:
        raise EmptyHistogramError("entropy of an empty histogram")
    s = 0.0
    for c in h.counts:
        if c:
            p = c / total
            s += p * math.log(p)
    return -s + 0.0


def entropy_norm(h_nats: float) -> float:
    """Entropy rescaled by its maximum ln 100, in [0, 1]."""
    return h_nats / MAX_ENTROPY


class TimeWindow(NamedTuple):
    """Half-open interval [start, end) in UTC seconds."""

    start: float = -math.inf
    end: float = math.inf

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end


ALL_TIME = TimeWindow()


class MeshEntry(NamedTuple):
    count: int
    entropy: float | None


@dataclass
class MdeField:
    """Per-mesh entropy values for one scale and one time window."""

    scale_m: int
    window: TimeWindow
    aoi: AreaOfInterest
    entries: dict[MeshId, MeshEntry]
    dropped_out_of_area: int = dc_field(default=0, compare=False)

    def defined(self) -> Iterator[tuple[MeshId, MeshEntry]]:
        for m, e in self.entries.items():
            if e.entropy is not None:
                yield m, e

    @property
    def n_defined(self) -> int:
        return sum(1 for _ in self.defined())


def _movement_arrays(movements, aoi: AreaOfInterest):
    """(x, y, theta, t, n_out_of_area) for a batch or any MovementVector iterable."""
    x = y = None
    if isinstance(movements, MovementBatch):
        lat, lon = movements.origin_lat, movements.origin_lon
        theta, t = movements.theta, movements.t
        if movements.aoi == aoi:
            x, y = movements.x, movements.y
    else:
        vecs = list(movements)
        lat = np.array([v.origin.lat for v in vecs], dtype=np.float64)
        lon = np.array([v.origin.lon for v in vecs], dtype=np.float64)
        theta = np.array([v.theta for v in vecs], dtype=np.float64)
        t = np.array([v.t for v in vecs], dtype=np.float64)
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


class FieldAccumulator:
    """Streaming accumulator of per-mesh direction histograms for one scale.

    ``add`` may be called with arbitrary input chunks in any order;
    ``merge`` combines accumulators built over disjoint chunks. The
    finished field does not depend on how the input was split.
    """

    def __init__(self, aoi: AreaOfInterest, scale_m: int,
                 window: TimeWindow = ALL_TIME, min_samples: int = 30):
        if scale_m <= 0:
            raise InvalidScaleError(f"mesh scale must be positive, got {scale_m}")
        if min_samples < 1:
            raise ConfigError(f"min_samples must be >= 1, got {min_samples}")
        if not window.start < window.end:
            raise ConfigError(f"empty time window {window!r}")
        self.aoi = aoi
        self.scale_m = int(scale_m)
        self.window = window
        self.min_samples = int(min_samples)
        self.dropped_out_of_area = 0
        self._ncols, _ = aoi.grid_shape(self.scale_m)
        self._keys: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []

    def add(self, movements) -> None:
        x, y, theta, t, dropped = _movement_arrays(movements, self.aoi)
        self.dropped_out_of_area += dropped
        if self.window != ALL_TIME:
            m = (t >= self.window.start) & (t < self.window.end)
            x, y, theta = x[m], y[m], theta[m]
        if x.size == 0:
            return
        col = (x // self.scale_m).astype(np.int64)
        row = (y // self.scale_m).astype(np.int64)
        flat = row * self._ncols + col
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

    def histograms(self) -> dict[MeshId, np.ndarray]:
        """Merged per-mesh histograms (100-bin int64 arrays)."""
        keys, counts = self._merged()
        out: dict[MeshId, np.ndarray] = {}
        for k, c in zip(keys.tolist(), counts.tolist()):
            mesh_flat, b = divmod(k, N_BINS)
            mid = MeshId(self.scale_m, mesh_flat % self._ncols,
                         mesh_flat // self._ncols)
            h = out.get(mid)
            if h is None:
                h = out[mid] = np.zeros(N_BINS, dtype=np.int64)
            h[b] = c
        return out

    def finish(self) -> MdeField:
        keys, counts = self._merged()
        mesh_flat, totals, ent = kernels.field_entropy(
            keys, counts, self.min_samples)
        entries: dict[MeshId, MeshEntry] = {}
        ncols = self._ncols
        for f, n, h in zip(mesh_flat.tolist(), totals.tolist(), ent.tolist()):
            mid = MeshId(self.scale_m, f % ncols, f // ncols)
            entries[mid] = MeshEntry(n, None if math.isnan(h) else h)
        return MdeField(self.scale_m, self.window, self.aoi, entries,
                        dropped_out_of_area=self.dropped_out_of_area)


def compute_field(movements, aoi: AreaOfInterest, scale_m: int,
                  window: TimeWindow = ALL_TIME,
                  min_samples: int = 30) -> MdeField:
    """Accumulate movements into one scale's moving direction entropy field."""
    acc = FieldAccumulator(aoi, scale_m, window, min_samples)
    acc.add(movements)
    return acc.finish()
