"""The numpy kernels of the method.

Direction binning, (mesh, bin) counting, count merging, per-mesh
entropy and nearest-station haversine distance. Callers reach them as
``kernels.<name>``, so tracing tools can wrap them by name.

Two kernels take a fast path on the inputs a field build gives them, and
each returns the same bits as its general path:

- ``direction_bins`` skips the reduction mod 2*pi when every angle lies
  in [0, 2*pi). ``np.mod`` returns such an angle unchanged, except that
  it turns -0.0 into +0.0, and both land in bin 0.
- ``count_mesh_bins`` counts with ``np.bincount`` over the key range when
  that range is no longer than the keys themselves. Integer counts are
  exact in any order, and the nonzero bins come out ascending, as the
  sorted run boundaries do; the count array is no larger than the input.

``field._mesh_index`` gives the argument for its exact floor division.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidAngleError
from .mesh import EARTH_RADIUS_M, TWO_PI

# Read by the benchmark's provenance record (perfbench/run.py).
BACKEND = "python"

N_BINS = 100


def direction_bins(theta):
    """Map angles (radians, any real) to direction bin indices 0..99.

    Angles are reduced mod 2*pi; bin i covers [i*pi/50, (i+1)*pi/50).
    """
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    # NaN fails both tests, so only finite angles skip the reduction
    if theta.size and not (theta.min() >= 0.0 and theta.max() < TWO_PI):
        if not np.all(np.isfinite(theta)):
            raise InvalidAngleError("non-finite direction angle")
        theta = np.mod(theta, TWO_PI)
    t = theta / TWO_PI
    t *= N_BINS
    idx = t.astype(np.int64)
    np.minimum(idx, N_BINS - 1, out=idx)
    return idx


def count_mesh_bins(mesh_idx, bins):
    """Count occurrences of (mesh, bin) pairs.

    Returns (keys, counts) with key = mesh * 100 + bin, keys strictly
    ascending. Merging chunked outputs and re-grouping reproduces the
    unchunked result exactly. Keys that span no more values than there
    are keys are counted densely, others by sorting.
    """
    mesh_idx = np.ascontiguousarray(mesh_idx, dtype=np.int64)
    bins = np.ascontiguousarray(bins, dtype=np.int64)
    keys = mesh_idx * N_BINS
    keys += bins
    if keys.size == 0:
        return keys, keys.copy()
    lo, hi = int(keys.min()), int(keys.max())
    if hi - lo < keys.size:
        keys -= lo
        counts = np.bincount(keys)
        seen = np.flatnonzero(counts)
        return seen + lo, counts[seen].astype(np.int64, copy=False)
    keys.sort()
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    counts = np.diff(np.append(starts, keys.size))
    return keys[starts], counts.astype(np.int64)


def group_counts(keys, counts):
    """Sum counts of duplicate keys; input need not be sorted."""
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    if keys.size == 0:
        return keys, counts
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    return keys[starts], np.add.reduceat(counts, starts)


def field_entropy(keys, counts, min_samples):
    """Per-mesh Shannon entropy from sorted (mesh*100+bin, count) pairs.

    Returns (mesh_ids, totals, entropy) with entropy NaN where the mesh
    total is below ``min_samples``. Each mesh sums its p*log(p) terms
    from 0.0 in bin order, one occupied bin per step for all meshes at
    once; the meshes are ordered by occupied-bin count, most first, so
    each step adds to the prefix still summing. Field files write every
    entropy with ``repr``, so this order is part of the output:
    ``np.add.reduceat`` sums in another order and changes the last bits
    of most meshes with many occupied bins.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    if keys.size == 0:
        return (keys, counts,
                np.empty(0, dtype=np.float64))
    mesh = keys // N_BINS
    starts = np.concatenate(([0], np.flatnonzero(np.diff(mesh)) + 1))
    lens = np.diff(np.append(starts, mesh.size))
    totals = np.add.reduceat(counts, starts)
    p = counts / np.repeat(totals, lens)
    plogp = p * np.log(p)
    order = np.argsort(-lens, kind="stable")
    first, longest = starts[order], -lens[order]
    # meshes with more than j occupied bins, for each step j
    summing = np.searchsorted(longest, -np.arange(lens.max()))
    s = np.zeros(starts.size, dtype=np.float64)
    for j, n in enumerate(summing.tolist()):
        s[:n] += plogp[first[:n] + j]
    h = np.empty_like(s)
    h[order] = -s + 0.0
    h[totals < min_samples] = np.nan
    return mesh[starts], totals, h


def min_haversine_m(lat_a, lon_a, lat_b, lon_b, radius_m=EARTH_RADIUS_M):
    """For each point in A, the distance to its nearest point in B (meters).

    The minimum is taken over the haversine parameter h, which is
    monotone in distance, so the arcsine runs once per row of A.
    """
    la = np.radians(np.ascontiguousarray(lat_a, dtype=np.float64))[:, None]
    lb = np.radians(np.ascontiguousarray(lat_b, dtype=np.float64))[None, :]
    oa = np.radians(np.ascontiguousarray(lon_a, dtype=np.float64))[:, None]
    ob = np.radians(np.ascontiguousarray(lon_b, dtype=np.float64))[None, :]
    if lb.size == 0:
        return np.full(la.shape[0], np.inf)
    sdp = np.sin((lb - la) / 2.0)
    sdl = np.sin((ob - oa) / 2.0)
    h = sdp * sdp + np.cos(la) * np.cos(lb) * sdl * sdl
    hmin = np.minimum(h.min(axis=1), 1.0)
    return 2.0 * radius_m * np.arcsin(np.sqrt(hmin))
