import math

import numpy as np
import pytest
from hypothesis import settings

from mdemap import (ALL_TIME, AreaOfInterest, CombinedMap, MdeField, MeshId,
                    MovementVector)
from mdemap.mesh import inverse_project, LocalCoord

# Per-example deadlines fail at random on a loaded machine; every property
# test runs without one.
settings.register_profile("mdemap", deadline=None)
settings.load_profile("mdemap")


@pytest.fixture
def small_aoi():
    # ~4.5 km x ~3.3 km, enough for a few meshes at every standard scale
    return AreaOfInterest.from_bounds(139.3, 139.35, 35.5, 35.53)


def make_vectors(rng, n, aoi, t_lo=0.0, t_hi=1000.0):
    """Random movement vectors with origins uniform over the AOI."""
    xs = rng.uniform(0.0, aoi.width_m, n)
    ys = rng.uniform(0.0, aoi.height_m, n)
    thetas = rng.uniform(0.0, 2.0 * np.pi, n)
    ts = rng.uniform(t_lo, t_hi, n)
    out = []
    for i in range(n):
        origin = inverse_project(LocalCoord(xs[i], ys[i]), aoi)
        out.append(MovementVector(f"u{i % 17}", float(ts[i]), origin,
                                  float(thetas[i]), 25.0, 60.0))
    return out


def field_of(scale_m, aoi, entries, window=ALL_TIME) -> MdeField:
    """An ``MdeField`` from ``{(col, row): (count, entropy or None)}``."""
    cells = sorted(entries, key=lambda cr: (cr[1], cr[0]))
    ent = [entries[cr][1] for cr in cells]
    return MdeField(
        scale_m, window, aoi,
        np.array([c for c, _ in cells], dtype=np.int64),
        np.array([r for _, r in cells], dtype=np.int64),
        np.array([entries[cr][0] for cr in cells], dtype=np.int64),
        np.array([math.nan if h is None else h for h in ent],
                 dtype=np.float64))


def map_of(scale_m, aoi, scores) -> CombinedMap:
    """A one-scale ``CombinedMap`` from ``{(col, row): score}``."""
    cells = sorted(scores, key=lambda cr: (cr[1], cr[0]))
    return CombinedMap(
        scale_m, aoi, np.array([c for c, _ in cells], dtype=np.int64),
        np.array([r for _, r in cells], dtype=np.int64),
        np.array([scores[cr] for cr in cells], dtype=np.float64), (scale_m,))


def scores_of(cmap: CombinedMap) -> dict[MeshId, float]:
    """A map's scores keyed by ``MeshId``."""
    return {MeshId(cmap.base_scale_m, c, r): v
            for c, r, v in zip(cmap.col.tolist(), cmap.row.tolist(),
                               cmap.scores.tolist())}
