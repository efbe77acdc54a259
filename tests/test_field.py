"""Direction binning, entropy, and field accumulation."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdemap import (ALL_TIME, AreaOfInterest, DEFAULT_AOI, FieldAccumulator,
                    InvalidAngleError, MAX_ENTROPY,
                    MeshEntry, MovementBatch, N_BINS, STANDARD_SCALES_M,
                    TimeWindow, compute_fields, ConfigError, FieldSettings,
                    GeoPoint, MeshId, extract_movements, kernels, synth)
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
    fields = compute_fields([vecs], small_aoi,
                            FieldSettings((100,), 10, min_samples=1))
    assert [f.window for f in fields] == [TimeWindow(0.0, 10.0),
                                          TimeWindow(10.0, 20.0),
                                          TimeWindow(20.0, 30.0)]
    assert [f.count.tolist() for f in fields] == [[1], [2], [1]]
    [f] = compute_fields([vectors(small_aoi, 50.0, 50.0, 0.0,
                                  [-1e18, 1e18])], small_aoi,
                         FieldSettings((100,), min_samples=1))
    assert f.window == ALL_TIME and f.count.tolist() == [2]


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
    f, *between, last = compute_fields(
        [concat(inside, outside)], small_aoi,
        FieldSettings((100,), 100, min_samples=30))
    assert f.window == TimeWindow(100.0, 200.0)
    e = f.entries[MeshId(100, 0, 0)]
    assert e.count == 40
    assert e.entropy == 0.0  # only the northbound half is inside the window
    assert [w.count.size for w in between] == [0, 0, 0]
    assert last.entries[MeshId(100, 0, 0)].entropy == 0.0


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


def _parts(acc) -> list:
    """What an accumulator holds: its raw key parts, then its (key, count)
    parts."""
    return [*acc._raw, *acc._keys, *acc._counts]


def _holding(aoi, scale, raw, **kwargs) -> FieldAccumulator:
    """An accumulator that holds raw keys or counts whatever its input."""
    acc = FieldAccumulator(aoi, scale, **kwargs)
    acc._holds_raw = raw
    return acc


def test_merged_part_is_finished_as_held_and_left_unchanged(small_aoi):
    # a's only part arrives through merge, and stays b's part too, whether
    # b holds raw keys or counts
    rng = np.random.default_rng(10)
    vecs = make_vectors(rng, 3000, small_aoi)
    whole = FieldAccumulator(small_aoi, 1000, min_samples=1)
    whole.add(vecs)
    twice = FieldAccumulator(small_aoi, 1000, min_samples=1)
    twice.add(concat(vecs, vecs))
    for raw in (False, True):
        a = FieldAccumulator(small_aoi, 1000, min_samples=1)
        b = _holding(small_aoi, 1000, raw, min_samples=1)
        b.add(vecs)
        shared = _parts(b)
        held = [part.copy() for part in shared]
        assert len(b._raw if raw else b._keys) == 1
        a.merge(b)
        assert len(_parts(a)) == len(shared)
        assert all(x is y for x, y in zip(_parts(a), shared))
        assert a.finish() == whole.finish()
        a.add(vecs)
        assert a.finish() == twice.finish()
        assert b.finish() == whole.finish()
        assert [k.tobytes() for k in shared] == [k.tobytes() for k in held]


def test_merge_refuses_the_accumulator_itself(small_aoi):
    acc = FieldAccumulator(small_aoi, 1000)
    acc.add(make_vectors(np.random.default_rng(12), 1000, small_aoi))
    before = acc.finish()
    with pytest.raises(ConfigError, match="itself"):
        acc.merge(acc)
    assert acc.finish() == before


def test_accumulator_merges_what_it_holds(small_aoi):
    # 200-vector adds against a merge threshold of 150 keys: the held raw
    # keys and pairs stay within twice the distinct keys, and the field is
    # the same, in either form
    rng = np.random.default_rng(9)
    vecs = make_vectors(rng, 4000, small_aoi)
    whole = FieldAccumulator(small_aoi, 1000, min_samples=1)
    whole.add(vecs)
    distinct = whole._merged()[0].size
    for raw in (False, True):
        with mock.patch.object(field_module, "_MERGE_KEYS", 150):
            acc = _holding(small_aoi, 1000, raw, min_samples=1)
            for lo in range(0, len(vecs), 200):
                acc.add(take(vecs, slice(lo, lo + 200)))
                held = sum(map(len, acc._raw + acc._keys))
                assert held <= max(150, 2 * distinct)
        assert len(acc._raw) + len(acc._keys) < 20
        assert _bits(acc.finish()) == _bits(whole.finish())


def test_sparse_keys_are_held_raw_and_clustered_ones_counted():
    # uniform vectors over the default area barely repeat a key in the
    # first _SAMPLE at any standard scale, so counting would not shrink
    # them; a synthetic city's vectors gather at its hubs and corridors
    uniform = make_vectors(np.random.default_rng(4), 20_000, DEFAULT_AOI)
    hubs, corridors = synth.default_sites()
    points, _ = synth.generate(synth.SynthConfig(
        n_users=1000, hubs=hubs, corridors=corridors, seed=7))
    city, _ = extract_movements(points, DEFAULT_AOI)
    for scale in STANDARD_SCALES_M:
        sparse, clustered = (FieldAccumulator(DEFAULT_AOI, scale)
                             for _ in range(2))
        sparse.add(uniform)
        clustered.add(city)
        assert sparse._holds_raw and len(sparse._raw) == 1
        assert sparse._raw[0].size == len(uniform) and not sparse._keys
        assert clustered._holds_raw is False and not clustered._raw
        assert len(clustered._keys) == 1
        assert clustered._keys[0].size < len(city) / 2
        for acc, vecs in ((sparse, uniform), (clustered, city)):
            want = _holding(DEFAULT_AOI, scale, not acc._holds_raw)
            want.add(vecs)
            assert _bits(acc.finish()) == _bits(want.finish())


def test_each_batch_is_binned_once_for_all_scales(small_aoi):
    rng = np.random.default_rng(14)
    batches = [make_vectors(rng, 700, small_aoi) for _ in range(3)]
    settings = FieldSettings(STANDARD_SCALES_M, min_samples=1)
    with mock.patch.object(kernels, "direction_bins",
                           wraps=kernels.direction_bins) as bins:
        got = compute_fields(batches, small_aoi, settings)
    assert bins.call_count == 3
    # the same fields from accumulators that each bin copies of the batches
    for scale, field in zip(STANDARD_SCALES_M, got):
        acc = FieldAccumulator(small_aoi, scale, min_samples=1)
        for batch in batches:
            acc.add(take(batch, slice(None)))
        assert _bits(field) == _bits(acc.finish())


@pytest.mark.parametrize("scale", [100.5, "100", True, 0, -100, None])
def test_accumulator_refuses_a_scale_that_is_no_positive_integer(small_aoi,
                                                                 scale):
    # 100.5 and "100" were cut to a 100 m field, True to a 1 m one
    with pytest.raises(ConfigError, match="scales"):
        FieldAccumulator(small_aoi, scale)
    with pytest.raises(ConfigError, match="min_samples"):
        FieldAccumulator(small_aoi, 100, min_samples=True)
    assert FieldAccumulator(small_aoi, np.int64(100)).scale_m == 100


def test_one_field_of_many_windows_is_refused(small_aoi):
    acc = FieldAccumulator(small_aoi, 100, 10.0)
    acc.add(vectors(small_aoi, 50.0, 50.0, 0.0, [0.0, 19.0]))
    with pytest.raises(ConfigError, match="finish_all"):
        acc.finish()
    assert [f.window for f in acc.finish_all()] == [TimeWindow(0.0, 10.0),
                                                    TimeWindow(10.0, 20.0)]


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
    with pytest.raises(ConfigError, match="window"):
        FieldAccumulator(small_aoi, 100, 0.0)


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


def _window_of(t, width):
    """The number k of the window ``[k*W, (k+1)*W)``, each bound a rounded
    product, that holds ``t``, found by stepping from ``floor(t / W)``."""
    k = math.floor(t / width)
    while k * width > t:
        k -= 1
    while (k + 1) * width <= t:
        k += 1
    return k


def _windows_of(times, width):
    """The windows that ``compute_fields`` should emit for ``times``."""
    if width == "all" or not times:
        return [ALL_TIME]
    ks = [_window_of(t, width) for t in times]
    return [TimeWindow(k * width, (k + 1) * width)
            for k in range(min(ks), max(ks) + 1)]


@st.composite
def _windowed_input(draw, min_rows=0):
    """(vectors, window): "all", or a width of 0.1, 0.7, 2.5 or an integer
    with times on and around the multiples of that width, offset so that
    the windows start at various k; at least ``min_rows`` vectors."""
    width = draw(st.sampled_from(["all", 0.1, 0.7, 2.5])
                 | st.integers(1, 60))
    if width == "all":
        times = st.floats(-1e3, 1e3)
    else:
        first = draw(st.integers(-5, 5) | st.integers(-10**6, 10**6))
        edges = [k * width for k in range(first, first + draw(
            st.integers(1, 6)) + 1)]
        times = st.one_of(st.sampled_from(edges),
                          st.floats(edges[0] - width, edges[-1] + width))
    rows = []
    # few positions and directions, so meshes collect several vectors
    for _ in range(draw(st.integers(min_rows, 60))):
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
    return batch_at(PROP_AOI, lat, lon, theta, t), width


@settings(max_examples=150)
@given(case=_windowed_input(), min_samples=st.integers(1, 4))
def test_compute_fields_equals_per_window_accumulators(case, min_samples):
    vecs, width = case
    fields = compute_fields(
        [vecs], PROP_AOI,
        FieldSettings(PROP_SCALES, width, min_samples=min_samples))
    windows = _windows_of(vecs.t.tolist(), width)
    assert [(f.scale_m, f.window) for f in fields] == \
        [(s, w) for s in PROP_SCALES for w in windows]
    everything = FieldAccumulator(PROP_AOI, PROP_SCALES[0])
    everything.add(vecs)
    for got in fields:
        assert got.dropped_out_of_area == everything.dropped_out_of_area
        # the same field from the window's vectors picked one by one
        w = got.window
        picked = take(vecs, [w.start <= t < w.end for t in vecs.t.tolist()])
        acc = FieldAccumulator(PROP_AOI, got.scale_m, min_samples=min_samples)
        acc.add(picked)
        want = acc.finish()
        assert _bits(got) == _bits(want)
        assert got.count.size == len(want.entries)
        assert got.n_defined == want.n_defined
        order = list(zip(got.row.tolist(), got.col.tolist()))
        assert order == sorted(set(order))


@settings(max_examples=100)
@given(case=_windowed_input(), scale=st.sampled_from(PROP_SCALES),
       min_samples=st.integers(1, 3), data=st.data())
def test_chunked_and_merged_accumulators_equal_one(case, scale, min_samples,
                                                   data):
    # random chunks added to 1-3 accumulators, merged in a random order,
    # with a merge threshold small enough to merge mid-stream too and
    # blocks of a few vectors; the accumulators see different first windows
    # and hold raw keys or counts, as drawn or as the rule chooses on
    # samples of 1-40 keys
    vecs, width = case
    n = len(vecs)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
    k = data.draw(st.integers(1, 3))
    with mock.patch.object(field_module, "_MERGE_KEYS",
                           data.draw(st.integers(1, 40))), \
            mock.patch.object(field_module, "_BLOCK",
                              data.draw(st.integers(1, 7))), \
            mock.patch.object(field_module, "_SAMPLE",
                              data.draw(st.integers(1, 40))):
        accs = [FieldAccumulator(PROP_AOI, scale, width, min_samples)
                for _ in range(k)]
        for acc in accs:
            acc._holds_raw = data.draw(st.sampled_from([None, False, True]))
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            accs[data.draw(st.integers(0, k - 1))].add(take(vecs,
                                                            slice(lo, hi)))
        first, *rest = data.draw(st.permutations(accs))
        for acc in rest:
            first.merge(acc)
        got = first.finish_all()
    whole = FieldAccumulator(PROP_AOI, scale, width, min_samples)
    whole.add(vecs)
    want = whole.finish_all()
    assert [f.window for f in got] == [f.window for f in want]
    assert [_bits(f) for f in got] == [_bits(f) for f in want]
    assert [f.dropped_out_of_area for f in got] == \
        [f.dropped_out_of_area for f in want]


# a smaller area inside PROP_AOI, so that its accumulators project the
# batches' origins themselves and drop more of them
INNER_AOI = AreaOfInterest.from_bounds(139.301, 139.34, 35.501, 35.52)


@settings(max_examples=100)
@given(case=_windowed_input(min_rows=8), block=st.integers(1, 7),
       aoi=st.sampled_from([PROP_AOI, INNER_AOI]),
       scale=st.sampled_from(PROP_SCALES), min_samples=st.integers(1, 3))
def test_blocks_do_not_change_the_fields(case, block, aoi, scale,
                                         min_samples):
    # a batch handled a few vectors at a time, against one block
    vecs, width = case
    accs = [FieldAccumulator(aoi, scale, width, min_samples)
            for _ in range(2)]
    for acc, size in zip(accs, (block, len(vecs))):
        with mock.patch.object(field_module, "_BLOCK", size):
            acc.add(vecs)
    got, want = (acc.finish_all() for acc in accs)
    assert [f.window for f in got] == [f.window for f in want]
    assert [_bits(f) for f in got] == [_bits(f) for f in want]
    assert accs[0].dropped_out_of_area == accs[1].dropped_out_of_area


def test_refused_add_leaves_the_accumulator_unchanged(small_aoi):
    # a NaN angle at t = 5000 and an out-of-area vector at t = 6000 are
    # refused before the range of windows or the drop count changes
    acc = FieldAccumulator(small_aoi, 100, 10, min_samples=1)
    acc.add(vectors(small_aoi, 50.0, 50.0, 0.0, [1.0, 2.0]))
    want = acc.finish_all()
    bad = concat(vectors(small_aoi, 50.0, 50.0, [0.0, math.nan], 5000.0),
                 batch_at(small_aoi, 35.49, 139.31, 0.0, 6000.0))
    with pytest.raises(InvalidAngleError):
        acc.add(bad)
    assert acc.finish_all() == want
    assert acc.dropped_out_of_area == 0
    # a refused first batch leaves no first window behind
    fresh, acc = (FieldAccumulator(small_aoi, 100, 10, min_samples=1)
                  for _ in range(2))
    with pytest.raises(ConfigError, match="MAX_WINDOWS"):
        acc.add(vectors(small_aoi, 50.0, 50.0, 0.0, [0.0, 2e6]))
    for a in (acc, fresh):
        a.add(vectors(small_aoi, 50.0, 50.0, 0.0, 100.0))
    assert acc.finish_all() == fresh.finish_all()


@settings(max_examples=200)
@given(base=st.floats(-2e9, 2e9),
       width=st.sampled_from([0.1, 0.3, 0.7, 1234.5]) | st.integers(1, 10**5),
       steps=st.lists(st.floats(0, 40) | st.integers(0, 40), min_size=1,
                      max_size=8))
@example(base=497041.3, width=0.1, steps=[0, 0.5])
@example(base=0.0, width=0.1, steps=[0, 10.5])
def test_each_time_lies_in_one_window(base, width, steps):
    # window k is [k*W, (k+1)*W): over [0, 1.05] with W = 0.1, the 11th
    # window starts at 1.0, where repeated addition gives 0.9999999999999999
    t = base + width * np.array(steps, dtype=np.float64)
    try:
        fields = compute_fields([vectors(PROP_AOI, 50.0, 50.0, 0.0, t)],
                                PROP_AOI,
                                FieldSettings((1000,), width, min_samples=1))
    except ConfigError:
        return
    windows = [f.window for f in fields]
    k = _window_of(windows[0].start, width)
    assert windows == [TimeWindow(i * width, (i + 1) * width)
                       for i in range(k, k + len(windows))]
    for v in t.tolist():
        assert sum(w.start <= v < w.end for w in windows) == 1
    assert sum(int(f.count.sum()) for f in fields) == t.size


def test_fractional_window_counts_every_vector(small_aoi):
    # floor(497041.3 / 0.1) * 0.1 rounds to 497041.30000000005, past the
    # first time; that time lies in the window before
    vecs = vectors(small_aoi, 50.0, 50.0, 0.0, [497041.3, 497041.35])
    fields = compute_fields([vecs], small_aoi,
                            FieldSettings((100,), 0.1, min_samples=1))
    assert sum(f.count.sum() for f in fields) == 2
    assert fields[0].window.start <= 497041.3 < fields[0].window.end


def test_compute_fields_counts_out_of_area_once(small_aoi):
    # the windows run over the out-of-area times too, past the last vector
    # inside the area
    inside = vectors(small_aoi, 50.0, 50.0, 0.0, np.arange(9.0))
    outside = batch_at(small_aoi, 35.49, 139.31, 0.0, np.arange(15.0))
    fields = compute_fields([concat(inside, outside)], small_aoi,
                            FieldSettings((100,), 3, min_samples=1))
    assert [f.window.start for f in fields] == [0.0, 3.0, 6.0, 9.0, 12.0]
    assert [f.dropped_out_of_area for f in fields] == [15] * 5
    assert [f.count.size for f in fields] == [1, 1, 1, 0, 0]
    assert [f.count.tolist() for f in fields[:3]] == [[3], [3], [3]]


def test_compute_fields_validation():
    # 1 m meshes over the whole globe: 8e14 cells x 100 bins x 200 windows
    # does not fit the int64 (window, mesh, bin) key, whether the windows
    # come in one batch or from two merged accumulators of one window each
    world = AreaOfInterest.from_bounds(-180.0, 180.0, -90.0, 90.0)
    one = FieldSettings((1,), 1)
    with pytest.raises(ConfigError, match="overflow"):
        compute_fields([batch_at(world, 0.0, 0.0, 0.0, [0.0, 199.0])], world,
                       one)
    a, b = (FieldAccumulator(world, 1, "1"), FieldAccumulator(world, 1, 1.0))
    a.add(batch_at(world, 0.0, 0.0, 0.0, 0.0))
    b.add(batch_at(world, 0.0, 0.0, 0.0, 199.0))
    with pytest.raises(ConfigError, match="overflow"):
        a.merge(b)
    with pytest.raises(ConfigError, match="different setups"):
        a.merge(FieldAccumulator(world, 1, 2))


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
