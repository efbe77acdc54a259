"""Direction binning, entropy, and field accumulation."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdemap import (ALL_TIME, AreaOfInterest, FieldAccumulator,
                    InvalidAngleError, MAX_ENTROPY,
                    MeshEntry, MovementBatch, N_BINS, STANDARD_SCALES_M,
                    TimeWindow, compute_fields, ConfigError, FieldSettings,
                    GeoPoint, MeshId)
from mdemap import field as field_module
from mdemap.mesh import inverse_project, LocalCoord, METERS_PER_DEGREE

from _oracles import (DirectionHistogram, bin_of, entropy, histograms,
                      mesh_of, parent_of, project)
from conftest import batch_at, concat, field_of, make_vectors, take, vectors

# frozen oracle: -(0.75 ln 0.75 + 0.25 ln 0.25), 50-digit arithmetic
H_75_25 = 0.5623351446188083
LN_100 = 4.605170185988091


def test_bin_width_covers_circle():
    assert N_BINS == 100
    assert MAX_ENTROPY == math.log(100)


def test_bin_of_cardinal_angles():
    assert bin_of(0.0) == 0
    assert bin_of(math.pi / 2) == 25
    assert bin_of(math.pi) == 50
    assert bin_of(3 * math.pi / 2) == 75


def test_bin_of_boundaries_and_wrap():
    w = 2 * math.pi / 100
    assert bin_of(w) == 1
    assert bin_of(math.nextafter(w, 0.0)) == 0
    assert bin_of(2 * math.pi) == 0
    assert bin_of(math.nextafter(2 * math.pi, 0.0)) == 99
    assert bin_of(-w / 2) == 99
    assert bin_of(-2 * math.pi) == 0
    # a tiny negative angle pushed to exactly 2*pi by rounding stays in range
    assert bin_of(-1e-18) in (0, 99)


def test_bin_of_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidAngleError):
            bin_of(bad)


def test_entropy_uniform_hits_ln100():
    h = DirectionHistogram(np.ones(100, dtype=np.int64))
    assert abs(entropy(h) - LN_100) < 1e-12


def test_entropy_single_bin_is_exactly_zero():
    counts = np.zeros(100, dtype=np.int64)
    counts[37] = 12345
    h = entropy(DirectionHistogram(counts))
    assert h == 0.0
    assert math.copysign(1.0, h) == 1.0  # +0.0, not -0.0


def test_entropy_75_25_oracle():
    counts = np.zeros(100, dtype=np.int64)
    counts[3], counts[71] = 75, 25
    assert entropy(DirectionHistogram(counts)) == pytest.approx(
        H_75_25, abs=1e-12)


def test_entropy_empty_raises():
    with pytest.raises(ValueError):
        entropy(DirectionHistogram())


def test_histogram_add_and_merge():
    a = DirectionHistogram()
    a.add(0.0)
    a.add(math.pi, weight=3)
    b = DirectionHistogram.from_thetas([0.0, math.pi / 2])
    m = a.merge(b)
    assert m.total == 6
    assert m.counts[0] == 2 and m.counts[50] == 3 and m.counts[25] == 1


def test_histogram_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        DirectionHistogram(np.ones(99, dtype=np.int64))
    with pytest.raises(ConfigError):
        DirectionHistogram(np.full(100, -1, dtype=np.int64))


def test_time_window_half_open(small_aoi):
    # a window keeps the vectors with start <= t < end
    times = [9.999, 10.0, 19.999, 20.0]
    vecs = vectors(small_aoi, 50.0, 50.0, 0.0, times)
    one = FieldSettings((100,), min_samples=1)
    [f] = compute_fields([vecs], small_aoi, one, (TimeWindow(10.0, 20.0),))
    assert f.count.tolist() == [2]
    [f] = compute_fields([vectors(small_aoi, 50.0, 50.0, 0.0,
                                  [-1e18, 1e18])], small_aoi, one,
                         (ALL_TIME,))
    assert f.count.tolist() == [2]


def test_compute_field_zero_movements(small_aoi):
    [f] = compute_fields([vectors(small_aoi, [], [], [])], small_aoi,
                         FieldSettings((100,)))
    assert f.entries == {}
    assert f.n_defined == 0


def test_compute_field_uniform_mesh_hits_ln100(small_aoi):
    w = 2 * math.pi / 100
    vecs = vectors(small_aoi, 150.0, 150.0, (np.arange(100) + 0.5) * w)
    [f] = compute_fields([vecs], small_aoi,
                         FieldSettings((100,), min_samples=30))
    m = MeshId(100, 1, 1)
    assert set(f.entries) == {m}
    assert f.entries[m].count == 100
    assert abs(f.entries[m].entropy - LN_100) < 1e-12


def test_min_samples_boundary(small_aoi):
    vecs = vectors(small_aoi, 50.0, 50.0, 0.1 * np.arange(29))
    thirty = FieldSettings((100,), min_samples=30)
    [f29] = compute_fields([vecs], small_aoi, thirty)
    assert f29.entries[MeshId(100, 0, 0)] == MeshEntry(29, None)
    assert f29.n_defined == 0
    [f29b] = compute_fields(
        [concat(vecs, vectors(small_aoi, 50.0, 50.0, 1.0))], small_aoi, thirty)
    e = f29b.entries[MeshId(100, 0, 0)]
    assert e.count == 30 and e.entropy is not None


def test_window_filters_by_origin_time(small_aoi):
    inside = vectors(small_aoi, 50.0, 50.0, 0.0, 100.0 + np.arange(40))
    outside = vectors(small_aoi, 50.0, 50.0, math.pi, 500.0 + np.arange(40))
    [f] = compute_fields([concat(inside, outside)], small_aoi,
                         FieldSettings((100,), min_samples=30),
                         (TimeWindow(100.0, 200.0),))
    e = f.entries[MeshId(100, 0, 0)]
    assert e.count == 40
    assert e.entropy == 0.0  # only the northbound half is inside the window


def test_out_of_area_dropped_and_counted(small_aoi):
    vecs = concat(vectors(small_aoi, np.full(35, 50.0), 50.0, 0.0),
                  batch_at(small_aoi, [35.49, 35.51], [139.31, 139.40], 0.0))
    [f] = compute_fields([vecs], small_aoi, FieldSettings((100,)))
    assert f.dropped_out_of_area == 2
    assert f.entries[MeshId(100, 0, 0)].count == 35


def test_rotation_invariance_small(small_aoi):
    rng = np.random.default_rng(2024)
    vecs = make_vectors(rng, 2000, small_aoi)
    [base] = compute_fields([vecs], small_aoi, FieldSettings((100,)))
    w = 2 * math.pi / 100
    for k in (1, 17, 99):
        rot = dataclasses.replace(
            vecs, theta=np.mod(vecs.theta + k * w, 2 * math.pi))
        [f] = compute_fields([rot], small_aoi, FieldSettings((100,)))
        assert set(f.entries) == set(base.entries)
        for m, e in base.entries.items():
            assert f.entries[m].count == e.count
            if e.entropy is None:
                assert f.entries[m].entropy is None
            else:
                assert abs(f.entries[m].entropy - e.entropy) < 1e-12


def test_chunk_parity_small(small_aoi):
    rng = np.random.default_rng(7)
    vecs = make_vectors(rng, 5000, small_aoi)
    whole = FieldAccumulator(small_aoi, 100)
    whole.add(vecs)
    ref = whole.finish()
    for n_chunks in (3, 11):
        acc = FieldAccumulator(small_aoi, 100)
        bounds = sorted(rng.integers(0, len(vecs), n_chunks - 1).tolist())
        prev = 0
        for b in bounds + [len(vecs)]:
            acc.add(take(vecs, slice(prev, b)))
            prev = b
        assert acc.finish() == ref


def test_merge_accumulators(small_aoi):
    rng = np.random.default_rng(8)
    vecs = make_vectors(rng, 3000, small_aoi)
    whole = FieldAccumulator(small_aoi, 1000)
    whole.add(vecs)
    a = FieldAccumulator(small_aoi, 1000)
    b = FieldAccumulator(small_aoi, 1000)
    a.add(take(vecs, slice(None, 1000)))
    b.add(take(vecs, slice(1000, None)))
    a.merge(b)
    assert a.finish() == whole.finish()


def test_merged_part_is_finished_as_held_and_left_unchanged(small_aoi):
    # a's only part arrives through merge, and stays b's part too
    rng = np.random.default_rng(10)
    vecs = make_vectors(rng, 3000, small_aoi)
    whole = FieldAccumulator(small_aoi, 1000, min_samples=1)
    whole.add(vecs)
    a = FieldAccumulator(small_aoi, 1000, min_samples=1)
    b = FieldAccumulator(small_aoi, 1000, min_samples=1)
    b.add(vecs)
    held = [b._keys[0].copy(), b._counts[0].copy()]
    a.merge(b)
    assert len(a._keys) == 1
    assert a.finish() == whole.finish()
    twice = FieldAccumulator(small_aoi, 1000, min_samples=1)
    twice.add(concat(vecs, vecs))
    a.add(vecs)
    assert a.finish() == twice.finish()
    assert b.finish() == whole.finish()
    assert [k.tobytes() for k in (*b._keys, *b._counts)] == \
        [k.tobytes() for k in held]


def test_merge_refuses_the_accumulator_itself(small_aoi):
    acc = FieldAccumulator(small_aoi, 1000)
    acc.add(make_vectors(np.random.default_rng(12), 1000, small_aoi))
    before = acc.finish()
    with pytest.raises(ConfigError, match="itself"):
        acc.merge(acc)
    assert acc.finish() == before


def test_accumulator_merges_what_it_holds(small_aoi):
    # 200-vector adds against a merge threshold of 150 keys: the held
    # pairs stay within twice the distinct keys, and the field is the same
    rng = np.random.default_rng(9)
    vecs = make_vectors(rng, 4000, small_aoi)
    whole = FieldAccumulator(small_aoi, 1000, min_samples=1)
    whole.add(vecs)
    distinct = whole._merged()[0].size
    with mock.patch.object(field_module, "_MERGE_KEYS", 150):
        acc = FieldAccumulator(small_aoi, 1000, min_samples=1)
        for lo in range(0, len(vecs), 200):
            acc.add(take(vecs, slice(lo, lo + 200)))
            assert sum(map(len, acc._keys)) <= max(150, 2 * distinct)
    assert len(acc._keys) < 20
    assert _bits(acc.finish()) == _bits(whole.finish())


def test_one_field_of_many_windows_is_refused(small_aoi):
    acc = FieldAccumulator(small_aoi, 100, _grid_windows(0.0, 10.0, 2))
    with pytest.raises(ConfigError, match="finish_all"):
        acc.finish()
    assert [f.window for f in acc.finish_all()] == _grid_windows(0.0, 10.0,
                                                                 2)


def test_merge_rejects_mismatched_setup(small_aoi):
    a = FieldAccumulator(small_aoi, 100)
    b = FieldAccumulator(small_aoi, 1000)
    with pytest.raises(ConfigError):
        a.merge(b)


def test_accumulator_validation(small_aoi):
    with pytest.raises(Exception):
        FieldAccumulator(small_aoi, 0)
    with pytest.raises(ConfigError):
        FieldAccumulator(small_aoi, 100, min_samples=0)
    with pytest.raises(ConfigError):
        FieldAccumulator(small_aoi, 100, (TimeWindow(5.0, 5.0),))


def test_histograms_match_brute_force(small_aoi):
    rng = np.random.default_rng(31)
    vecs = make_vectors(rng, 4000, small_aoi)
    acc = FieldAccumulator(small_aoi, 1000)
    acc.add(vecs)
    got = histograms(acc)
    want: dict = {}
    for lat, lon, theta in zip(vecs.origin_lat.tolist(),
                               vecs.origin_lon.tolist(), vecs.theta.tolist()):
        m = mesh_of(project(GeoPoint(lat, lon), small_aoi), 1000)
        want.setdefault(m, np.zeros(100, dtype=np.int64))[bin_of(theta)] += 1
    assert set(got) == set(want)
    for m in want:
        assert np.array_equal(got[m], want[m])


NESTING_PAIRS = [(f, c) for i, f in enumerate(STANDARD_SCALES_M)
                 for c in STANDARD_SCALES_M[i + 1:]]
# 13 x 9 km: several coarse meshes at 4000 m, 130 x 90 at 100 m
NEST_AOI = AreaOfInterest.from_bounds(139.3, 139.444, 35.5, 35.581)


@st.composite
def _nesting_input(draw):
    """Local coordinates bunched at, just below and just above mesh edges."""
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([100.0, 1000.0, 2000.0, 4000.0]))

    def near_edges(extent):
        v = rng.choice(np.arange(0.0, extent, step), n)
        v = np.where(rng.random(n) < 0.3, np.nextafter(v, -1.0), v)
        v = v + rng.choice([-1e-9, 0.0, 0.0, 1e-9, 0.5, 99.9], n)
        return np.clip(v, 0.0, extent)

    x, y = near_edges(NEST_AOI.width_m), near_edges(NEST_AOI.height_m)
    sw = NEST_AOI.south_west
    return MovementBatch(
        NEST_AOI, np.full(n, "u", dtype=object), np.zeros(n),
        sw.lat + y / METERS_PER_DEGREE,
        sw.lon + x / NEST_AOI.meters_per_degree_lon, x, y,
        rng.uniform(0.0, 2.0 * math.pi, n), np.full(n, 25.0),
        np.full(n, 60.0))


@settings(max_examples=40)
@given(vecs=_nesting_input())
def test_parent_histogram_is_sum_of_children(vecs):
    hists = {}
    for scale in STANDARD_SCALES_M:
        acc = FieldAccumulator(NEST_AOI, scale)
        acc.add(vecs)
        hists[scale] = histograms(acc)
    for fine_m, coarse_m in NESTING_PAIRS:
        rolled: dict = {}
        for m, h in hists[fine_m].items():
            p = parent_of(m, coarse_m)
            rolled[p] = rolled.get(p, 0) + h
        assert set(rolled) == set(hists[coarse_m]), (fine_m, coarse_m)
        for m in rolled:
            assert np.array_equal(rolled[m], hists[coarse_m][m])


def test_grouping_inequality_parent_vs_children(small_aoi):
    # pooling directions cannot lose entropy vs the count-weighted mean
    rng = np.random.default_rng(123)
    vecs = make_vectors(rng, 8000, small_aoi)
    fine = FieldAccumulator(small_aoi, 100, min_samples=1)
    fine.add(vecs)
    coarse = FieldAccumulator(small_aoi, 1000, min_samples=1)
    coarse.add(vecs)
    ff, cf = fine.finish(), coarse.finish()
    mix: dict = {}
    for m, e in ff.entries.items():
        p = parent_of(m, 1000)
        acc = mix.setdefault(p, [0, 0.0])
        acc[0] += e.count
        acc[1] += e.count * e.entropy
    for p, (n, s) in mix.items():
        assert cf.entries[p].entropy >= s / n - 1e-12


# -- one-pass build of every (scale, window) field --------------------------

PROP_AOI = AreaOfInterest.from_bounds(139.3, 139.35, 35.5, 35.53)
PROP_SCALES = (100, 1000)


def _bits(field):
    """Entries with entropies as hex, so equality is bit for bit."""
    return {m: (e.count, None if e.entropy is None else e.entropy.hex())
            for m, e in field.entries.items()}


def _grid_windows(start, width, n):
    """``n`` windows built by repeated addition, as ``compute`` builds them."""
    out = []
    for _ in range(n):
        out.append(TimeWindow(start, start + width))
        start += width
    return out


@st.composite
def _windowed_input(draw):
    if draw(st.booleans()):
        windows = [ALL_TIME]
        times = st.floats(-1e3, 1e3)
    else:
        windows = _grid_windows(draw(st.integers(-5, 5)) * 0.7,
                                draw(st.sampled_from([0.3, 1.0, 2.5, 60.0])),
                                draw(st.integers(1, 6)))
        edges = sorted({w.start for w in windows} | {w.end for w in windows})
        lo, hi = edges[0], edges[-1]
        times = st.one_of(st.sampled_from(edges),
                          st.floats(lo - 1.0, hi + 1.0))
    rows = []
    # few positions and directions, so meshes collect several vectors
    for _ in range(draw(st.integers(0, 60))):
        theta = draw(st.sampled_from([0.1, 1.0, 2.0, 3.0, 4.5, 6.2]))
        t = draw(times)
        if draw(st.integers(0, 5)) == 0:
            origin = GeoPoint(35.49, 139.31)          # south of the area
        else:
            x = draw(st.sampled_from([10.0, 150.0, 1050.0, 2990.0]))
            y = draw(st.sampled_from([20.0, 250.0, 1999.0]))
            origin = inverse_project(LocalCoord(x, y), PROP_AOI)
        rows.append((*origin, theta, t))
    lat, lon, theta, t = (list(c) for c in zip(*rows)) if rows else [[]] * 4
    return batch_at(PROP_AOI, lat, lon, theta, t), windows


@settings(max_examples=150)
@given(case=_windowed_input(), min_samples=st.integers(1, 4))
def test_compute_fields_equals_per_window_accumulators(case, min_samples):
    vecs, windows = case
    fields = compute_fields(
        [vecs], PROP_AOI, FieldSettings(PROP_SCALES, min_samples=min_samples),
        windows)
    assert [(f.scale_m, f.window) for f in fields] == \
        [(s, w) for s in PROP_SCALES for w in windows]
    for got in fields:
        acc = FieldAccumulator(PROP_AOI, got.scale_m, (got.window,),
                               min_samples)
        acc.add(vecs)
        want = acc.finish()
        assert got.dropped_out_of_area == acc.dropped_out_of_area
        assert got == want
        assert _bits(got) == _bits(want)
        # the same field from the window's vectors picked one by one
        w = got.window
        picked = take(vecs, [w.start <= t < w.end for t in vecs.t.tolist()])
        one_scale = FieldSettings((got.scale_m,), min_samples=min_samples)
        assert _bits(got) == _bits(compute_fields([picked], PROP_AOI,
                                                  one_scale)[0])
        assert got.count.size == len(want.entries)
        assert got.n_defined == want.n_defined
        order = list(zip(got.row.tolist(), got.col.tolist()))
        assert order == sorted(set(order))


def test_compute_fields_counts_out_of_area_once(small_aoi):
    inside = vectors(small_aoi, 50.0, 50.0, 0.0, np.arange(9.0))
    outside = batch_at(small_aoi, 35.49, 139.31, 0.0, np.arange(9.0))
    windows = _grid_windows(0.0, 3.0, 3) + _grid_windows(100.0, 1.0, 2)
    fields = compute_fields([concat(inside, outside)], small_aoi,
                            FieldSettings((100,), min_samples=1), windows)
    assert [f.dropped_out_of_area for f in fields] == [9] * 5
    assert [f.count.size for f in fields] == [1, 1, 1, 0, 0]
    assert [f.count.tolist() for f in fields[:3]] == [[3], [3], [3]]


def test_compute_fields_validation(small_aoi):
    none = vectors(small_aoi, [], [], [])
    with pytest.raises(ConfigError, match="sorted and disjoint"):
        compute_fields([none], small_aoi, FieldSettings((100,)),
                       [TimeWindow(10.0, 20.0), TimeWindow(0.0, 10.0)])
    with pytest.raises(ConfigError):
        compute_fields([none], small_aoi, FieldSettings((100,)),
                       [TimeWindow(5.0, 5.0)])
    # 1 m meshes over the whole globe: 8e14 cells x 100 bins x 200 windows
    # does not fit the int64 (window, mesh, bin) key
    world = AreaOfInterest.from_bounds(-180.0, 180.0, -90.0, 90.0)
    with pytest.raises(ConfigError, match="overflow"):
        compute_fields([batch_at(world, [], [], [])], world,
                       FieldSettings((1,)), _grid_windows(0.0, 1.0, 200))


def test_entries_view_matches_columns(small_aoi):
    rng = np.random.default_rng(5)
    [field] = compute_fields([make_vectors(rng, 3000, small_aoi)], small_aoi,
                             FieldSettings((100,), min_samples=4))
    assert 0 < field.n_defined < len(field.entries)
    assert list(field.entries) == [
        MeshId(100, c, r) for c, r in zip(field.col.tolist(),
                                          field.row.tolist())]
    for (m, e), n, h in zip(field.entries.items(), field.count.tolist(),
                            field.entropy.tolist()):
        assert type(e.count) is int and e.count == n
        assert (e.entropy is None) if math.isnan(h) else (
            type(e.entropy) is float and e.entropy.hex() == h.hex())
    assert list(field.defined()) == [
        (m, e) for m, e in field.entries.items() if e.entropy is not None]
    assert sum(1 for _ in field.defined()) == field.n_defined
    with pytest.raises(TypeError):
        field.entries[MeshId(100, 0, 0)] = MeshEntry(1, None)
    # a field built from the same rows compares equal, bit for bit
    same = field_of(100, small_aoi, {(m.col, m.row): e
                                     for m, e in field.entries.items()})
    assert same == field and same.entries == field.entries
    same.entropy[np.flatnonzero(~np.isnan(same.entropy))[0]] += 1e-15
    assert same != field
