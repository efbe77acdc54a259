"""Nested square mesh grids over a local metric projection.

Coordinates are WGS84 decimal degrees. All analysis happens in a local
frame anchored at the south-west corner of a rectangular area of
interest: x meters east, y meters north, obtained by an equirectangular
projection scaled with the mean-Earth-radius degree length and the
cosine of the area's central latitude. Square meshes of side ``scale_m``
tile this frame. Because every scale shares the same anchor, grids of
scales that divide each other nest exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidScaleError

EARTH_RADIUS_M = 6_371_000.0
TWO_PI = 2.0 * math.pi

# Arc length of one degree at mean Earth radius, ~111194.9 m. The haversine
# distance of ``kernels`` uses the same radius, so projected and great-circle
# lengths agree.
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0

STANDARD_SCALES_M = (100, 1000, 2000, 4000)


class GeoPoint(NamedTuple):
    lat: float
    lon: float


class LocalCoord(NamedTuple):
    """Meters east (x) and north (y) of the area's south-west corner."""

    x: float
    y: float


class MeshId(NamedTuple):
    """Half-open square [col*s, (col+1)*s) x [row*s, (row+1)*s), s = scale_m."""

    scale_m: int
    col: int
    row: int


def _check_geo(p: GeoPoint) -> None:
    if not (-90.0 <= p.lat <= 90.0 and -180.0 <= p.lon <= 180.0):
        raise ConfigError(f"invalid WGS84 coordinate {p!r}")


def _check_scale(scale_m: int) -> None:
    if scale_m <= 0:
        raise InvalidScaleError(f"mesh scale must be positive, got {scale_m}")


@dataclass(frozen=True)
class AreaOfInterest:
    """Axis-aligned lat/lon rectangle; the anchor of every mesh grid."""

    south_west: GeoPoint
    north_east: GeoPoint

    def __post_init__(self):
        _check_geo(self.south_west)
        _check_geo(self.north_east)
        if not (self.north_east.lat > self.south_west.lat
                and self.north_east.lon > self.south_west.lon):
            raise ConfigError(
                "north_east corner must be strictly north and east of south_west")

    @classmethod
    def from_bounds(cls, lon_min, lon_max, lat_min, lat_max) -> "AreaOfInterest":
        return cls(GeoPoint(lat_min, lon_min), GeoPoint(lat_max, lon_max))

    @property
    def mid_lat(self) -> float:
        return 0.5 * (self.south_west.lat + self.north_east.lat)

    @property
    def meters_per_degree_lon(self) -> float:
        return METERS_PER_DEGREE * math.cos(math.radians(self.mid_lat))

    @property
    def width_m(self) -> float:
        return (self.north_east.lon - self.south_west.lon) * self.meters_per_degree_lon

    @property
    def height_m(self) -> float:
        return (self.north_east.lat - self.south_west.lat) * METERS_PER_DEGREE

    def contains(self, lat, lon) -> np.ndarray:
        """Whether each point lies in the area, edges included."""
        sw, ne = self.south_west, self.north_east
        return ((lat >= sw.lat) & (lat <= ne.lat)
                & (lon >= sw.lon) & (lon <= ne.lon))

    def grid_shape(self, scale_m: int) -> tuple[int, int]:
        """(ncols, nrows) of the mesh grid covering the area, closed edges included."""
        _check_scale(scale_m)
        return int(self.width_m // scale_m) + 1, int(self.height_m // scale_m) + 1


# The default analysis window: a ~63 x 39 km rectangle west of Tokyo Bay.
DEFAULT_AOI = AreaOfInterest.from_bounds(139.3, 140.0, 35.5, 35.85)


def project_arrays(lat: np.ndarray, lon: np.ndarray,
                   aoi: AreaOfInterest) -> tuple[np.ndarray, np.ndarray]:
    """Local (x, y) of each point; points outside ``aoi`` are projected too."""
    y = (lat - aoi.south_west.lat) * METERS_PER_DEGREE
    x = (lon - aoi.south_west.lon) * aoi.meters_per_degree_lon
    return x, y


def inverse_project(c: LocalCoord, aoi: AreaOfInterest) -> GeoPoint:
    """Inverse of :func:`project_arrays`; ``c`` may hold arrays."""
    lat = aoi.south_west.lat + c.y / METERS_PER_DEGREE
    lon = aoi.south_west.lon + c.x / aoi.meters_per_degree_lon
    return GeoPoint(lat, lon)


def mesh_center(m: MeshId, aoi: AreaOfInterest) -> GeoPoint:
    c = LocalCoord((m.col + 0.5) * m.scale_m, (m.row + 0.5) * m.scale_m)
    return inverse_project(c, aoi)


def mesh_centers(scale_m, col, row,
                 aoi: AreaOfInterest) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`mesh_center`: (lat, lon) arrays, bit for bit equal.

    ``scale_m`` is one scale or an array of them, one per mesh.
    """
    s = np.asarray(scale_m, dtype=np.float64)
    return inverse_project(LocalCoord((np.asarray(col, np.float64) + 0.5) * s,
                                      (np.asarray(row, np.float64) + 0.5) * s),
                           aoi)


def mesh_corners(scale_m, col, row, aoi: AreaOfInterest) -> tuple:
    """Vectorized corners, bit for bit: (south, north, west, east) arrays."""
    s = np.asarray(scale_m, dtype=np.float64)
    sw = LocalCoord(np.asarray(col, np.float64) * s,
                    np.asarray(row, np.float64) * s)
    south, west = inverse_project(sw, aoi)
    north, east = inverse_project(LocalCoord(sw.x + s, sw.y + s), aoi)
    return south, north, west, east
