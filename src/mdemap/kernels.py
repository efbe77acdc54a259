"""The numpy kernels of the method.

Direction binning, (mesh, bin) counting, count merging, per-mesh
entropy and nearest-station haversine distance. Callers reach them as
``kernels.<name>``, so tracing tools can wrap them by name.

The field kernels take fast paths on the inputs a field build gives
them, and each returns the same bits as its general path:

- ``direction_bins`` skips the reduction mod 2*pi when every angle lies
  in [0, 2*pi). ``np.mod`` returns such an angle unchanged, except that
  it turns -0.0 into +0.0, and both land in bin 0.
- ``count_mesh_bins`` counts with ``np.bincount`` over the key range when
  that range is no longer than the keys themselves. Integer counts are
  exact in any order, and the nonzero bins come out ascending, as the
  sorted run boundaries do; the count array is no larger than the input.
  Otherwise it sorts the keys less the least one, as int32 below a span
  of 2**31: the shift keeps their order and is undone after.
- ``group_counts`` sums into a dense array over a key range shorter than
  the keys. Otherwise it argsorts them as int32 offsets, unstably, below
  a span of 2**31. Integer sums do not depend on the order of addition.
- ``field_entropy`` sums p*ln(p) only for the meshes whose total reaches
  ``min_samples``, each from 0.0 in bin order; the others are NaN anyway.

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


def count_mesh_bins(keys):
    """Count occurrences of (mesh, bin) keys, key = mesh * 100 + bin.

    Returns (keys, counts), keys strictly ascending; the input is left as
    it was. Merging chunked outputs and re-grouping reproduces the
    unchunked result exactly. A field build counts each add's keys here,
    or, where they barely repeat, holds them raw and counts them all at
    once. Keys that span no more values than there are keys are counted
    densely, others by sorting.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return keys.copy(), keys.copy()
    lo, hi = int(keys.min()), int(keys.max())
    if hi - lo < keys.size:
        counts = np.bincount(keys - lo)
        seen = np.flatnonzero(counts)
        return seen + lo, counts[seen].astype(np.int64, copy=False)
    off = np.empty(keys.size, np.int32 if hi - lo < 2 ** 31 else np.int64)
    np.subtract(keys, lo, out=off, casting="unsafe")
    off.sort()
    first = np.empty(off.size, dtype=bool)
    first[0] = True
    np.not_equal(off[1:], off[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return np.add(off[first], lo, dtype=np.int64), np.diff(starts,
                                                           append=off.size)


def group_counts(keys, counts):
    """Sum counts of duplicate keys; input need not be sorted.

    Returns (keys, sums) with keys strictly ascending."""
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    if keys.size == 0:
        return keys, counts
    lo, hi = int(keys.min()), int(keys.max())
    off = keys - lo
    if hi - lo < keys.size:
        sums = np.zeros(hi - lo + 1, dtype=np.int64)
        np.add.at(sums, off, counts)
        seen = np.flatnonzero(np.bincount(off))
        return seen + lo, sums[seen]
    order = (np.argsort(off.astype(np.int32)) if hi - lo < 2 ** 31
             else np.argsort(off, kind="stable"))
    keys = keys[order]
    counts = counts[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys)) + 1))
    return keys[starts], np.add.reduceat(counts, starts)


def field_entropy(keys, counts, min_samples):
    """Per-mesh Shannon entropy from sorted (mesh*100+bin, count) pairs.

    Returns (mesh_ids, totals, entropy) with entropy NaN where the mesh
    total is below ``min_samples``. Each other mesh sums its p*log(p)
    terms from 0.0 in bin order, one bin per step for all of them at
    once, ordered by occupied-bin count, most first, so each step adds to
    a prefix. Field files write every entropy with ``repr``, so this order
    is part of the output: ``np.add.reduceat`` sums in another order and
    changes the last bits of most meshes with many occupied bins.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    if keys.size == 0:
        return keys, counts, np.empty(0)
    mesh = keys // N_BINS
    starts = np.concatenate(([0], np.flatnonzero(np.diff(mesh)) + 1))
    lens = np.diff(np.append(starts, mesh.size))
    totals = np.add.reduceat(counts, starts)
    defined = np.flatnonzero(totals >= min_samples)
    # a stable sort of uint8 keys is a radix sort
    order = np.argsort((N_BINS - lens[defined]).astype(np.uint8),
                       kind="stable")
    defined = defined[order]
    first, total, occupied = starts[defined], totals[defined], lens[defined]
    # defined meshes with more than j occupied bins, for each step j
    summing = np.searchsorted(-occupied, -np.arange(occupied.max(initial=0)))
    s = np.zeros(defined.size)
    for j, n in enumerate(summing.tolist()):
        p = counts[first[:n] + j] / total[:n]
        s[:n] += p * np.log(p)
    h = np.full(starts.size, np.nan)
    h[defined] = -s + 0.0
    return mesh[starts], totals, h


def min_haversine_m(lat_a, lon_a, lat_b, lon_b):
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
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(hmin))
