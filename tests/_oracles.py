"""Scalar reference implementations the tests check the kernels against.

These are the per-displacement, per-angle, per-histogram and per-mesh
forms of the method: slow and plain, so that the columnar code in
``mdemap`` has something independent to agree with.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from mdemap import (AreaOfInterest, ConfigError, EmptyHistogramError,
                    GeoPoint, InvalidAngleError, LocalCoord, MeshId, N_BINS,
                    inverse_project, kernels)
from mdemap.mesh import TWO_PI


def direction_of(dx: float, dy: float) -> float:
    """Angle of a local displacement (meters east, meters north).

    theta = (-atan2(dx, dy)) mod 2*pi: radians anticlockwise from north.
    """
    if dx == 0.0 and dy == 0.0:
        raise ValueError("zero displacement has no direction")
    theta = math.fmod(-math.atan2(dx, dy), TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    # adding 2*pi to a tiny negative can round to exactly 2*pi
    return 0.0 if theta >= TWO_PI else theta


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


def histograms(acc) -> dict[MeshId, np.ndarray]:
    """Merged per-mesh histograms (100-bin int64 arrays) of an accumulator."""
    keys, counts = acc._merged()
    ncols = acc.aoi.grid_shape(acc.scale_m)[0]
    out: dict[MeshId, np.ndarray] = {}
    for k, c in zip(keys.tolist(), counts.tolist()):
        mesh_flat, b = divmod(k, N_BINS)
        mid = MeshId(acc.scale_m, mesh_flat % ncols, mesh_flat // ncols)
        h = out.get(mid)
        if h is None:
            h = out[mid] = np.zeros(N_BINS, dtype=np.int64)
        h[b] = c
    return out


def mesh_corners(m: MeshId, aoi: AreaOfInterest) -> list[GeoPoint]:
    """Corners in ring order sw, se, ne, nw (not closed), one
    ``inverse_project`` each."""
    s = m.scale_m
    x0, y0 = m.col * s, m.row * s
    return [inverse_project(LocalCoord(x, y), aoi) for x, y in (
        (x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s))]
