"""Multiscale fusion: normalized layers, combined maps, local peaks.

Entropies are comparable only within one scale, so each scale is min-max
normalized on its own before layers are coupled. A combined map lives on
the finest participating grid; each base mesh takes the mean (or max) of
the normalized values of its defined ancestors across layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyFieldError, InvalidScaleError
from .field import MdeField
from .mesh import AreaOfInterest

_ROW_SHIFT = 32  # packed grid key: (row << 32) | col
_COL_MASK = (1 << _ROW_SHIFT) - 1
MODES = ("mean", "max")         # ways to fuse layers, the first the default


@dataclass(frozen=True)
class FusionSettings:
    """A ``mode`` of ``MODES`` for :func:`combine` and a ``percentile_floor``
    in [0, 100] for :func:`find_local_peaks`; other values are refused
    when the object is made."""

    mode: str = MODES[0]
    percentile_floor: float = 90.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.percentile_floor <= 100.0:   # NaN fails too
            raise ConfigError("percentile_floor must be in [0, 100]")


@dataclass(eq=False)
class CombinedMap:
    """Scores on one mesh grid, as columns in (row, col) order.

    A normalized layer is the one-layer map of a single scale.
    """

    base_scale_m: int
    aoi: AreaOfInterest
    col: np.ndarray
    row: np.ndarray
    scores: np.ndarray


def normalize(field: MdeField) -> CombinedMap:
    """Min-max rescale a field's defined entropies; all-equal maps to 0.5."""
    defined = ~np.isnan(field.entropy)
    if not defined.any():
        raise EmptyFieldError(
            f"no defined meshes at scale {field.scale_m} m")
    ent = field.entropy[defined]
    lo, hi = ent.min(), ent.max()
    if hi > lo:
        scaled = (ent - lo) / (hi - lo)
    else:
        scaled = np.full(ent.size, 0.5)
    return CombinedMap(field.scale_m, field.aoi, field.col[defined],
                       field.row[defined], scaled)


def _expand_to_base(layer: CombinedMap, base_scale_m: int,
                    ncols: int, nrows: int):
    """Packed base-grid keys plus scores of every base mesh a layer covers."""
    f = layer.base_scale_m // base_scale_m
    off = np.arange(f, dtype=np.int64)
    # (mesh, row offset, col offset) blocks of descendants
    cols = (layer.col * f)[:, None, None] + off[None, None, :]
    rows = (layer.row * f)[:, None, None] + off[None, :, None]
    # coarse edge meshes overhang the base grid; clip descendants
    inside = (cols < ncols) & (rows < nrows)
    rows, cols = np.broadcast_arrays(rows, cols)
    vals = np.broadcast_to(layer.scores[:, None, None], inside.shape)
    return (rows[inside] << _ROW_SHIFT) | cols[inside], vals[inside]


def combine(layers: list[CombinedMap],
            settings: FusionSettings = FusionSettings()) -> CombinedMap:
    """Fuse normalized layers onto the grid of the finest of them.

    Each base mesh collects the value of its ancestor in every layer
    where that ancestor is defined; undefined ancestors are skipped, and
    base meshes with nothing collected are omitted.
    """
    if not layers:
        raise EmptyFieldError("no layers to combine")
    aoi = layers[0].aoi
    base_scale_m = min(layer.base_scale_m for layer in layers)
    for layer in layers:
        if layer.aoi != aoi:
            raise ConfigError("layers cover different areas")
        if (scale := layer.base_scale_m) % base_scale_m:
            raise InvalidScaleError(
                f"scale {scale} does not nest with base {base_scale_m}")
    ncols, nrows = aoi.grid_shape(base_scale_m)
    parts = [_expand_to_base(layer, base_scale_m, ncols, nrows)
             for layer in layers]
    keys = np.concatenate([k for k, _ in parts])
    vals = np.concatenate([v for _, v in parts])
    # a stable sort keeps each mesh's values in layer order
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
    uniq = keys[starts]
    if settings.mode == "max":
        agg = np.maximum.reduceat(vals, starts)
    else:
        lens = np.diff(np.append(starts, keys.size))
        agg = np.add.reduceat(vals, starts) / lens
    return CombinedMap(base_scale_m, aoi, uniq & _COL_MASK,
                       uniq >> _ROW_SHIFT, agg)


def find_local_peaks(heat: CombinedMap,
                     settings: FusionSettings = FusionSettings()
                     ) -> np.ndarray:
    """Meshes strictly above all scored 8-neighbours, at or above the floor.

    The floor is the ``settings.percentile_floor``-th percentile of all
    scores. Returns indices into ``heat``'s columns, sorted by descending
    score, ties by (row, col).
    """
    n = heat.scores.size
    if n == 0:
        raise EmptyFieldError("empty map has no peaks")
    keys = (heat.row << _ROW_SHIFT) | heat.col
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], heat.scores[order]
    floor = np.percentile(vals, settings.percentile_floor)
    ok = vals >= floor
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            nk = keys + (dr << _ROW_SHIFT) + dc
            idx = np.searchsorted(keys, nk)
            idx[idx == n] = 0
            hit = keys[idx] == nk
            beaten = hit & (vals[idx] >= vals)
            ok &= ~beaten
    picked = order[ok]
    return picked[np.lexsort((heat.col[picked], heat.row[picked],
                              -heat.scores[picked]))]
