"""Evaluation of high-MDE regions against a ground-truth station list.

Two protocols, both over great-circle center-to-station distances:
recall counts stations lying within x km of any top-K mesh center, and
precision measures what share of the top-x mesh centers lie within a
distance threshold of their nearest station.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import ConfigError, EmptyFieldError
from .field import MdeField, _positive_int
from .mesh import GeoPoint, mesh_centers

DEFAULT_TOP_K = {100: 300, 1000: 60, 2000: 60, 4000: 50}
FALLBACK_TOP_K = 50             # K of a scale DEFAULT_TOP_K does not name
DEFAULT_THRESHOLDS_M = (100.0, 300.0, 1000.0, 2000.0)
DEFAULT_RADII_KM = tuple(r / 2 for r in range(1, 21))


@dataclass(frozen=True)
class EvaluationSettings:
    """``top_k``: (scale, K) pairs over ``DEFAULT_TOP_K``, each scale once,
    all positive integers; ``radii``: finite positive km. Other values are
    refused when the object is made."""

    top_k: tuple[tuple[int, int], ...] = ()
    radii: tuple[float, ...] = DEFAULT_RADII_KM

    def __post_init__(self):
        if len(dict(self.top_k)) != len(self.top_k) or not all(
                _positive_int(s) and _positive_int(k) for s, k in self.top_k):
            raise ConfigError("top_k needs scale=K pairs of positive "
                              "integers, each scale once")
        if not (self.radii and all(0 < r < math.inf for r in self.radii)):
            raise ConfigError("radii must be finite and > 0 km")

    def k(self, scale_m: int) -> int:
        """The K of a scale: its override, else its default."""
        return dict(self.top_k).get(
            scale_m, DEFAULT_TOP_K.get(scale_m, FALLBACK_TOP_K))


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
    """Per top-mesh count x, the percent of the top x within one threshold."""

    scale_m: int
    threshold_m: float
    x: tuple[int, ...]
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
                 settings: EvaluationSettings = EvaluationSettings(),
                 ) -> RecallCurve:
    """Stations within x km of the nearest top-K mesh center, per x of
    ``settings.radii``."""
    check_stations(stations)
    s_lat, s_lon = _station_arrays(stations)
    nearest = kernels.min_haversine_m(s_lat, s_lon, sel.lat, sel.lon)
    radii = tuple(float(r) for r in settings.radii)
    counts = tuple(int((nearest <= r * 1000.0).sum()) for r in radii)
    return RecallCurve(sel.scale_m, radii, counts)


def precision_curve(sel: TopKSelection, stations: Sequence[Station],
                    ) -> list[PrecisionCurve]:
    """Share of the top-x mesh centers within a threshold of a station,
    one curve per threshold of ``DEFAULT_THRESHOLDS_M``, per x of
    ``default_x_values(sel.k)``.

    The denominator is the actual selection size when fewer than x
    meshes are defined.
    """
    check_stations(stations)
    s_lat, s_lon = _station_arrays(stations)
    nearest = kernels.min_haversine_m(sel.lat, sel.lon, s_lat, s_lon)
    xs = default_x_values(sel.k)
    heads = [nearest[:x] for x in xs]
    return [PrecisionCurve(sel.scale_m, d, xs, tuple(
        100.0 * float((head <= d).sum()) / head.size for head in heads))
        for d in DEFAULT_THRESHOLDS_M]
