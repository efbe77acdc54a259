"""Values of the numpy kernels and the summation order of field_entropy."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdemap import kernels
from mdemap.kernels import N_BINS

from _oracles import (count_mesh_bins_general, direction_bins_general,
                      field_entropy_general, group_counts_general)

TWO_PI = 2 * math.pi


def _random_thetas(rng, n):
    t = rng.uniform(-10.0, 10.0, n)
    t[:: 17] = 0.0
    t[1:: 31] = math.pi
    t[2:: 43] = 2 * math.pi
    return t


def test_direction_bins_range():
    rng = np.random.default_rng(101)
    b = kernels.direction_bins(_random_thetas(rng, 20_000))
    assert b.dtype == np.int64
    assert b.min() >= 0 and b.max() <= 99


_ANGLE_EDGES = [0.0, -0.0, 5e-324, -5e-324, math.nextafter(TWO_PI, 0.0),
                TWO_PI, math.nextafter(TWO_PI, 7.0), -TWO_PI, -math.pi,
                -1e-18, 1e9, -1e300, 1e300]


@given(theta=st.one_of(
    st.lists(st.floats(0.0, TWO_PI, exclude_max=True), max_size=50),
    st.lists(st.one_of(st.sampled_from(_ANGLE_EDGES),
                       st.floats(allow_nan=False, allow_infinity=False)),
             max_size=50)))
@example(theta=[-0.0])
@example(theta=[math.nextafter(TWO_PI, 0.0)])
@example(theta=[TWO_PI])
def test_direction_bins_match_mod_form(theta):
    # arrays within [0, 2*pi) skip the reduction, others take it
    got = kernels.direction_bins(np.array(theta, dtype=np.float64))
    assert got.dtype == np.int64
    assert np.array_equal(got, direction_bins_general(theta))


_INT32_SPANS = [2**31 - 2, 2**31 - 1, 2**31, 2**31 + 1]


@st.composite
def _spread_keys(draw, max_n):
    """Unsorted keys with repeats whose span (max - min) lies below, at or
    above their count, or around 2**31, the limit of the int32 sorts."""
    n = draw(st.integers(1, max_n))
    span = 0 if n == 1 else max(0, draw(
        st.integers(0, 3 * n) | st.sampled_from([n - 2, n - 1, n])
        | st.sampled_from(_INT32_SPANS) | st.integers(2**31, 2**62)))
    lo = draw(st.integers(-2**62, 2**62 - span))
    # both ends, then repeats of a few values between them
    picks = [0, span, *draw(st.lists(st.integers(0, span), max_size=8))]
    rest = draw(st.lists(st.sampled_from(picks), min_size=max(n - 2, 0),
                         max_size=max(n - 2, 0)))
    offsets = draw(st.permutations([0, span, *rest][:n]))
    return lo + np.array(offsets, dtype=np.int64)


@st.composite
def _mesh_bin_pairs(draw):
    """(mesh, bin) columns whose keys span up to three times their count,
    so both sides of the dense-counting rule come up, or around 2**31."""
    n = draw(st.integers(1, 300))
    if draw(st.booleans()):
        keys = draw(_spread_keys(n))
        keys -= keys.min() - draw(st.integers(0, 10**12))
        return keys // 100, keys % 100
    span = draw(st.integers(1, 3 * n))
    lo = draw(st.integers(0, 10**12))
    keys = lo + np.array(draw(st.lists(st.integers(0, span - 1),
                                       min_size=n, max_size=n)))
    return keys // 100, keys % 100


@given(pairs=_mesh_bin_pairs())
@example(pairs=(np.array([7, 7]), np.array([0, 1])))      # span 2 = n: dense
@example(pairs=(np.array([7, 7]), np.array([0, 2])))      # span 3 > n: sorted
@example(pairs=(np.array([0, 21474836]), np.array([0, 47])))  # 2**31 - 1
@example(pairs=(np.array([0, 21474836]), np.array([0, 48])))  # 2**31
def test_count_mesh_bins_matches_unique(pairs):
    given_keys = pairs[0] * N_BINS + pairs[1]
    held = given_keys.copy()
    keys, counts = kernels.count_mesh_bins(given_keys)
    want_keys, want_counts = count_mesh_bins_general(*pairs)
    assert np.array_equal(given_keys, held)
    assert keys.dtype == counts.dtype == np.int64
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(counts, want_counts)


@st.composite
def _keyed_counts(draw):
    """Unsorted keys from ``_spread_keys`` with counts of up to 2**40,
    zeros included."""
    keys = draw(_spread_keys(80))
    return keys, np.array(draw(st.lists(
        st.integers(0, 2**40), min_size=keys.size, max_size=keys.size)),
        dtype=np.int64)


@given(case=_keyed_counts())
@example(case=([3, 1, 3, 2], [1, 2, 3, 4]))         # span 2 < 4: dense
@example(case=([4, 0, 4, 2], [1, 2, 3, 0]))         # span 4: sorted
@example(case=([2**31 - 1, 0, 0], [1, 2, 3]))       # int32 offsets
@example(case=([2**31, 0, 2**31], [1, 2, 3]))       # int64, stable
def test_group_counts_matches_unique(case):
    keys, sums = kernels.group_counts(*case)
    want_keys, want_sums = group_counts_general(*case)
    assert keys.dtype == sums.dtype == np.int64
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(sums, want_sums)


def test_group_counts_merges_duplicates():
    keys = np.array([5, 5, 9, 9, 9, 12], dtype=np.int64)
    cnt = np.array([1, 2, 3, 4, 5, 6], dtype=np.int64)
    k, c = kernels.group_counts(keys, cnt)
    assert k.tolist() == [5, 9, 12]
    assert c.tolist() == [3, 12, 6]


def test_field_entropy_values():
    keys = np.array([0, 207, 250], dtype=np.int64)
    counts = np.array([40, 75, 25], dtype=np.int64)
    mesh, totals, h = kernels.field_entropy(keys, counts, 30)
    assert mesh.tolist() == [0, 2]
    assert totals.tolist() == [40, 100]
    assert h[0] == 0.0
    assert h[1] == pytest.approx(0.5623351446188083, abs=1e-12)
    keys2 = np.arange(100, dtype=np.int64)
    ones = np.ones(100, dtype=np.int64)
    _, _, hu = kernels.field_entropy(keys2, ones, 30)
    assert hu[0] == pytest.approx(math.log(100), abs=1e-12)
    _, _, hn = kernels.field_entropy(keys2, ones, 101)
    assert np.isnan(hn[0])


@st.composite
def _histograms(draw):
    """Ascending (mesh*100+bin, count) pairs of 1-12 meshes, one of them
    with all 100 bins occupied, and a ``min_samples`` from 1 to above
    every mesh total."""
    keys, counts = [], []
    mesh = draw(st.integers(0, 10**9))
    n = draw(st.integers(1, 12))
    full = draw(st.integers(0, n - 1))
    totals = []
    for i in range(n):
        bins = range(N_BINS) if i == full else sorted(draw(
            st.sets(st.integers(0, N_BINS - 1), min_size=1)))
        c = draw(st.lists(st.integers(1, 10**6) | st.integers(1, 3),
                          min_size=len(bins), max_size=len(bins)))
        keys += [mesh * N_BINS + b for b in bins]
        counts += c
        totals.append(sum(c))
        mesh += draw(st.integers(1, 10**6))
    min_samples = draw(st.integers(1, max(totals) + 1)
                       | st.sampled_from(totals))
    return (np.array(keys, dtype=np.int64), np.array(counts, dtype=np.int64),
            min_samples)


@settings(max_examples=150)
@given(case=_histograms())
def test_field_entropy_matches_all_meshes_form(case):
    # only meshes that reach min_samples are summed; the bits match the
    # form that sums every mesh and blanks the small ones afterwards
    got = kernels.field_entropy(*case)
    want = field_entropy_general(*case)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_field_entropy_sums_in_bin_order():
    # Field files write entropies with repr, so the summation order is
    # part of the output: each mesh adds its p*log(p) terms from 0.0 in
    # bin order. Meshes hold 1 to 100 occupied bins, counts span decades.
    rng = np.random.default_rng(104)
    keys = []
    counts = []
    mesh = 0
    while len(keys) < 60_000:
        k = int(rng.integers(1, 101))
        b = np.sort(rng.choice(100, k, replace=False))
        keys.extend(mesh * 100 + b)
        counts.extend(rng.integers(1, 10_000, k).tolist())
        mesh += 1
    keys = np.asarray(keys, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    ids, totals, h = kernels.field_entropy(keys, counts, 1)
    assert ids.tolist() == list(range(mesh))
    seg = np.repeat(np.arange(mesh), np.bincount(keys // 100))
    assert np.array_equal(totals, np.bincount(seg, weights=counts))
    p = counts / totals[seg]
    terms = (p * np.log(p)).tolist()
    want = [0.0] * mesh
    for i, term in zip(seg.tolist(), terms):
        want[i] += term
    assert np.array_equal(h, -np.array(want) + 0.0)


def test_min_haversine_value():
    from mdemap import GeoPoint
    from _oracles import geo_distance
    d = kernels.min_haversine_m(
        np.array([35.5]), np.array([139.5]),
        np.array([35.6, 35.9]), np.array([139.4, 139.9]), 6_371_000.0)
    want = min(geo_distance(GeoPoint(35.5, 139.5), GeoPoint(35.6, 139.4)),
               geo_distance(GeoPoint(35.5, 139.5), GeoPoint(35.9, 139.9)))
    assert np.asarray(d)[0] == pytest.approx(want, rel=1e-12)
