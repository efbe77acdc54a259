"""Evaluation of high-MDE regions against a ground-truth station list.

Two protocols, both over great-circle center-to-station distances:
recall counts stations lying within x km of any top-K mesh center, and
precision measures what share of the top-x mesh centers lie within a
distance threshold of their nearest station.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import ConfigError, EmptyFieldError
from .field import MdeField
from .mesh import GeoPoint, mesh_centers

DEFAULT_TOP_K = {100: 300, 1000: 60, 2000: 60, 4000: 50}
DEFAULT_THRESHOLDS_M = (100.0, 300.0, 1000.0, 2000.0)
DEFAULT_RADII_KM = tuple(r / 2 for r in range(1, 21))


class Station(NamedTuple):
    name: str
    pos: GeoPoint
    rank: int


class TopKSelection(NamedTuple):
    """The selected meshes as columns, best first, with their centers."""

    scale_m: int
    k: int
    col: np.ndarray
    row: np.ndarray
    entropy: np.ndarray
    lat: np.ndarray
    lon: np.ndarray


class RecallCurve(NamedTuple):
    scale_m: int
    radii_km: tuple[float, ...]
    counts: tuple[int, ...]


class PrecisionCurve(NamedTuple):
    scale_m: int
    x: int
    thresholds_m: tuple[float, ...]
    percentages: tuple[float, ...]


def default_x_values(k: int) -> tuple[int, ...]:
    xs = list(range(10, k + 1, 10))
    if not xs or xs[-1] != k:
        xs.append(k)
    return tuple(xs)


def check_stations(stations: Sequence[Station]) -> None:
    if not stations:
        raise ConfigError("station list is empty")
    ranks = [s.rank for s in stations]
    if len(set(ranks)) != len(ranks):
        raise ConfigError("station ranks are not unique")
    if any(r < 1 for r in ranks):
        raise ConfigError("station ranks must be positive")


def top_k(field: MdeField, k: int) -> TopKSelection:
    """The k highest-entropy defined meshes, ties broken by (row, col)."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    defined = np.flatnonzero(~np.isnan(field.entropy))
    if defined.size == 0:
        raise EmptyFieldError(
            f"no defined meshes at scale {field.scale_m} m")
    col, row, ent = (field.col[defined], field.row[defined],
                     field.entropy[defined])
    picked = np.lexsort((col, row, -ent))[:k]
    col, row = col[picked], row[picked]
    lat, lon = mesh_centers(field.scale_m, col, row, field.aoi)
    return TopKSelection(field.scale_m, k, col, row, ent[picked], lat, lon)


def _station_arrays(stations: Sequence[Station]):
    lat = np.array([s.pos.lat for s in stations], dtype=np.float64)
    lon = np.array([s.pos.lon for s in stations], dtype=np.float64)
    return lat, lon


def recall_curve(sel: TopKSelection, stations: Sequence[Station],
                 radii_km: Sequence[float] = DEFAULT_RADII_KM) -> RecallCurve:
    """Stations within x km of the nearest top-K mesh center, per x."""
    check_stations(stations)
    if not all(0 < r < math.inf for r in radii_km):     # NaN fails too
        raise ConfigError(f"radii must be finite and > 0 km, got {radii_km}")
    s_lat, s_lon = _station_arrays(stations)
    nearest = kernels.min_haversine_m(s_lat, s_lon, sel.lat, sel.lon)
    counts = tuple(int((nearest <= r * 1000.0).sum()) for r in radii_km)
    return RecallCurve(sel.scale_m, tuple(float(r) for r in radii_km), counts)


def precision_curve(field: MdeField, stations: Sequence[Station],
                    thresholds_m: Sequence[float] = DEFAULT_THRESHOLDS_M,
                    x_values: Sequence[int] | None = None,
                    ) -> list[PrecisionCurve]:
    """Share of top-x mesh centers within each threshold of a station.

    The denominator is the actual selection size when fewer than x
    meshes are defined.
    """
    check_stations(stations)
    if x_values is None:
        x_values = default_x_values(DEFAULT_TOP_K.get(field.scale_m, 50))
    if any(x < 1 for x in x_values):
        raise ConfigError("x values must be >= 1")
    s_lat, s_lon = _station_arrays(stations)
    sel = top_k(field, max(x_values))
    nearest = kernels.min_haversine_m(sel.lat, sel.lon, s_lat, s_lon)
    curves = []
    for x in x_values:
        n = min(x, nearest.size)
        head = nearest[:n]
        pct = tuple(100.0 * float((head <= d).sum()) / n
                    for d in thresholds_m)
        curves.append(PrecisionCurve(field.scale_m, x,
                                     tuple(float(d) for d in thresholds_m),
                                     pct))
    return curves
