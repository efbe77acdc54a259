import dataclasses
import math

import numpy as np
import pytest
from hypothesis import settings

from mdemap import (ALL_TIME, AreaOfInterest, CombinedMap, MdeField, MeshId,
                    MovementBatch, ParseResult)
from mdemap.mesh import inverse_project, LocalCoord, project_arrays

# Per-example deadlines fail at random on a loaded machine; every property
# test runs without one.
settings.register_profile("mdemap", deadline=None)
settings.load_profile("mdemap")


@pytest.fixture
def small_aoi():
    # ~4.5 km x ~3.3 km, enough for a few meshes at every standard scale
    return AreaOfInterest.from_bounds(139.3, 139.35, 35.5, 35.53)


def points_of(rows, skipped=0) -> ParseResult:
    """A ``ParseResult`` from ``(user_id, t, lat, lon[, heading[, speed]])``
    rows; a missing or None heading or speed is NaN."""
    cols = [[] for _ in range(6)]
    for row in rows:
        row = tuple(row) + (None,) * (6 - len(row))
        for col, v in zip(cols, row):
            col.append(math.nan if v is None else v)
    return ParseResult(np.array(cols[0], dtype=object),
                       *(np.array(c, dtype=np.float64) for c in cols[1:]),
                       skipped)


def fixes(aoi, rows) -> ParseResult:
    """Points from ``(user_id, t, x, y[, heading[, speed]])`` rows, with
    ``x``/``y`` in meters east and north of ``aoi``'s south-west corner."""
    out = []
    for user, t, x, y, *rest in rows:
        lat, lon = inverse_project(LocalCoord(x, y), aoi)
        out.append((user, float(t), lat, lon, *rest))
    return points_of(out)


def batch_at(aoi, lat, lon, theta, t=0.0, user="u") -> MovementBatch:
    """Vectors from origins ``lat``/``lon`` in directions ``theta`` at times
    ``t``, all broadcast to one length; each is 25 m over 60 s."""
    lat, lon, theta, t = np.broadcast_arrays(
        *(np.array(v, dtype=np.float64, ndmin=1) for v in (lat, lon, theta,
                                                          t)))
    n = t.size
    x, y = project_arrays(lat, lon, aoi)
    return MovementBatch(aoi, np.full(n, user, dtype=object), t.copy(),
                         lat.copy(), lon.copy(), x, y, theta.copy(),
                         np.full(n, 25.0), np.full(n, 60.0))


def vectors(aoi, x, y, theta, t=0.0) -> MovementBatch:
    """``batch_at`` with origins in local meters of ``aoi``."""
    x, y = np.broadcast_arrays(np.array(x, dtype=np.float64, ndmin=1),
                               np.array(y, dtype=np.float64, ndmin=1))
    lat, lon = inverse_project(LocalCoord(x, y), aoi)
    return batch_at(aoi, lat, lon, theta, t)


def make_vectors(rng, n, aoi, t_lo=0.0, t_hi=1000.0) -> MovementBatch:
    """Random movement vectors with origins uniform over the AOI."""
    xs = rng.uniform(0.0, aoi.width_m, n)
    ys = rng.uniform(0.0, aoi.height_m, n)
    thetas = rng.uniform(0.0, 2.0 * np.pi, n)
    ts = rng.uniform(t_lo, t_hi, n)
    return dataclasses.replace(
        vectors(aoi, xs, ys, thetas, ts),
        user_id=np.array([f"u{i % 17}" for i in range(n)], dtype=object))


_BATCH_COLUMNS = [f.name for f in dataclasses.fields(MovementBatch)
                  if f.name != "aoi"]


def take(batch: MovementBatch, rows) -> MovementBatch:
    """The ``rows`` (a slice, mask or indices) of a batch's vectors."""
    return dataclasses.replace(batch, **{
        c: getattr(batch, c)[rows] for c in _BATCH_COLUMNS})


def concat(*batches: MovementBatch) -> MovementBatch:
    """The vectors of batches over one area, one after another."""
    return dataclasses.replace(batches[0], **{
        c: np.concatenate([getattr(b, c) for b in batches])
        for c in _BATCH_COLUMNS})


def same_batch(a: MovementBatch, b: MovementBatch) -> bool:
    """Whether two batches hold equal vectors in the same order."""
    return a.aoi == b.aoi and all(
        np.array_equal(getattr(a, c), getattr(b, c)) for c in _BATCH_COLUMNS)


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
