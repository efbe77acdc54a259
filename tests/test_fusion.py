"""Layer normalization, multiscale fusion, and peak detection."""

import numpy as np
import pytest

from mdemap import (CombinedMap, ConfigError, EmptyFieldError, FusionSettings,
                    InvalidScaleError, MeshId, combine, find_local_peaks,
                    normalize)

from conftest import field_of, map_of, scores_of


def _field(aoi, scale, ent, count=50):
    return field_of(scale, aoi, {cr: (count, h) for cr, h in ent.items()})


def _layer(aoi, scale, values):
    return map_of(scale, aoi, {(m.col, m.row): v for m, v in values.items()})


def test_normalize_spreads_to_unit_interval(small_aoi):
    f = _field(small_aoi, 100, {(0, 0): 2.0, (1, 0): 3.0, (2, 0): 4.0})
    layer = normalize(f)
    assert layer.base_scale_m == 100
    got = {m.col: v for m, v in scores_of(layer).items()}
    assert got == {0: 0.0, 1: 0.5, 2: 1.0}


def test_normalize_all_equal_is_half(small_aoi):
    f = _field(small_aoi, 100, {(0, 0): 1.7, (1, 0): 1.7})
    assert set(normalize(f).scores.tolist()) == {0.5}
    single = _field(small_aoi, 100, {(4, 2): 3.3})
    assert normalize(single).scores.tolist() == [0.5]


def test_normalize_skips_undefined(small_aoi):
    f = field_of(100, small_aoi, {(0, 0): (50, 1.0), (1, 0): (50, 2.0),
                                  (2, 0): (5, None)})
    layer = normalize(f)
    assert MeshId(100, 2, 0) not in scores_of(layer)
    assert len(layer.scores) == 2


def test_normalize_empty_raises(small_aoi):
    f = field_of(100, small_aoi, {(0, 0): (3, None)})
    with pytest.raises(EmptyFieldError):
        normalize(f)


def test_normalize_affine_invariance(small_aoi):
    rng = np.random.default_rng(11)
    ent = {(int(c), int(r)): float(h)
           for c, r, h in zip(rng.integers(0, 30, 40),
                              rng.integers(0, 20, 40),
                              rng.uniform(0.5, 4.0, 40))}
    base = scores_of(normalize(_field(small_aoi, 100, ent)))
    shifted = scores_of(normalize(_field(
        small_aoi, 100, {k: 2.5 * h + 1.0 for k, h in ent.items()})))
    for m, v in base.items():
        assert shifted[m] == pytest.approx(v, abs=1e-12)
    # and ranks survive
    order = sorted(base, key=base.get)
    assert order == sorted(shifted, key=shifted.get)


def test_combine_single_layer_identity(small_aoi):
    layer = _layer(small_aoi, 100,
                   {MeshId(100, 3, 4): 0.25, MeshId(100, 5, 6): 1.0})
    combined = combine([layer], 100)
    assert combined.base_scale_m == 100
    for name in ("col", "row", "scores"):
        got, want = getattr(combined, name), getattr(layer, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_combine_mean_and_max(small_aoi):
    fine = _layer(small_aoi, 100, {MeshId(100, 0, 0): 0.2})
    coarse = _layer(small_aoi, 1000, {MeshId(1000, 0, 0): 0.6})
    mean = scores_of(combine([fine, coarse], 100))
    assert mean[MeshId(100, 0, 0)] == pytest.approx(0.4, abs=1e-15)
    mx = scores_of(combine([fine, coarse], 100, FusionSettings(mode="max")))
    assert mx[MeshId(100, 0, 0)] == pytest.approx(0.6, abs=1e-15)
    # children of the coarse mesh without a fine value get the coarse value
    assert mean[MeshId(100, 7, 3)] == pytest.approx(0.6, abs=1e-15)
    assert len(mean) == 100


def test_combine_skips_undefined_ancestors(small_aoi):
    fine = _layer(small_aoi, 100, {MeshId(100, 42, 7): 0.9})
    coarse = _layer(small_aoi, 1000, {MeshId(1000, 0, 0): 0.1})
    combined = scores_of(combine([fine, coarse], 100))
    # the fine mesh sits outside the one defined coarse mesh
    assert combined[MeshId(100, 42, 7)] == pytest.approx(0.9)
    assert len(combined) == 101


def test_combine_rejects_non_nesting(small_aoi):
    a = _layer(small_aoi, 100, {MeshId(100, 0, 0): 0.5})
    b = _layer(small_aoi, 250, {MeshId(250, 0, 0): 0.5})
    with pytest.raises(InvalidScaleError):
        combine([a, b], 100)
    with pytest.raises(InvalidScaleError):
        combine([a], 1000)  # finer than base cannot nest


def test_combine_rejects_mixed_aois(small_aoi):
    from mdemap import AreaOfInterest
    other = AreaOfInterest.from_bounds(139.3, 139.4, 35.5, 35.55)
    a = _layer(small_aoi, 100, {MeshId(100, 0, 0): 0.5})
    b = _layer(other, 100, {MeshId(100, 0, 0): 0.5})
    with pytest.raises(ConfigError):
        combine([a, b], 100)
    with pytest.raises(EmptyFieldError):
        combine([], 100)


def test_combine_clips_overhanging_coarse_meshes(small_aoi):
    ncols, nrows = small_aoi.grid_shape(100)
    ccols, crows = small_aoi.grid_shape(1000)
    corner = _layer(small_aoi, 1000, {MeshId(1000, ccols - 1, crows - 1): 0.8})
    combined = combine([corner], 100)
    assert (combined.col < ncols).all() and (combined.row < nrows).all()
    expect = (ncols - 10 * (ccols - 1)) * (nrows - 10 * (crows - 1))
    assert len(combined.scores) == expect


def test_combine_matches_brute_force(small_aoi):
    rng = np.random.default_rng(55)
    layers = []
    for scale in (100, 1000, 2000):
        nc, nr = small_aoi.grid_shape(scale)
        picks = {(int(rng.integers(0, nc)), int(rng.integers(0, nr)))
                 for _ in range(60)}
        layers.append(_layer(
            small_aoi, scale,
            {MeshId(scale, c, r): float(rng.uniform(0, 1))
             for c, r in picks}))
    cmap = combine(layers, 100)
    combined = scores_of(cmap)
    nc, nr = small_aoi.grid_shape(100)
    want = {}
    for layer in layers:
        f = layer.base_scale_m // 100
        for m, v in scores_of(layer).items():
            for rr in range(m.row * f, min((m.row + 1) * f, nr)):
                for cc in range(m.col * f, min((m.col + 1) * f, nc)):
                    want.setdefault(MeshId(100, cc, rr), []).append(v)
    assert set(combined) == set(want)
    assert list(zip(cmap.row.tolist(), cmap.col.tolist())) == sorted(
        (m.row, m.col) for m in want)
    for m, vs in want.items():
        assert combined[m] == pytest.approx(
            sum(vs) / len(vs), abs=1e-12)


def _as_map(small_aoi, grid, scale=100):
    return map_of(scale, small_aoi, grid)


def _peaks(cmap, **kw):
    """``find_local_peaks`` as a list of ``MeshId``."""
    idx = find_local_peaks(cmap, FusionSettings(**kw))
    return [MeshId(cmap.base_scale_m, c, r)
            for c, r in zip(cmap.col[idx].tolist(), cmap.row[idx].tolist())]


def test_single_mesh_is_a_peak(small_aoi):
    peaks = _peaks(_as_map(small_aoi, {(4, 4): 0.3}))
    assert peaks == [MeshId(100, 4, 4)]


def test_plateau_has_no_peak(small_aoi):
    grid = {(0, 0): 0.9, (1, 0): 0.9}
    assert _peaks(_as_map(small_aoi, grid),
                            percentile_floor=0.0) == []
    grid = {(0, 0): 0.9, (1, 1): 0.9}  # diagonal neighbors tie too
    assert _peaks(_as_map(small_aoi, grid),
                            percentile_floor=0.0) == []


def test_peak_requires_strict_majority_over_neighbors(small_aoi):
    grid = {(1, 1): 0.9}
    for dc in (-1, 0, 1):
        for dr in (-1, 0, 1):
            if (dc, dr) != (0, 0):
                grid[(1 + dc, 1 + dr)] = 0.2
    peaks = _peaks(_as_map(small_aoi, grid), percentile_floor=0.0)
    assert MeshId(100, 1, 1) in peaks
    grid[(2, 2)] = 0.95  # now the corner wins instead
    peaks = _peaks(_as_map(small_aoi, grid), percentile_floor=0.0)
    assert MeshId(100, 1, 1) not in peaks
    assert MeshId(100, 2, 2) in peaks


def test_percentile_floor_prunes_minor_peaks(small_aoi):
    grid = {(c, r): 0.1 for c in range(10) for r in range(10)}
    grid[(2, 2)] = 0.3   # a local peak, but a weak one
    grid[(7, 7)] = 0.9
    # 99th pct of the 100 values interpolates between 0.3 and 0.9
    strict = _peaks(_as_map(small_aoi, grid), percentile_floor=99.0)
    assert strict == [MeshId(100, 7, 7)]
    loose = _peaks(_as_map(small_aoi, grid), percentile_floor=0.0)
    assert set(loose) == {MeshId(100, 7, 7), MeshId(100, 2, 2)}
    assert loose[0] == MeshId(100, 7, 7)  # descending score order


def test_peaks_sorted_by_score_then_row_col(small_aoi):
    grid = {(0, 0): 0.5, (5, 0): 0.5, (0, 5): 0.5, (9, 9): 0.7}
    peaks = _peaks(_as_map(small_aoi, grid), percentile_floor=0.0)
    assert peaks == [MeshId(100, 9, 9), MeshId(100, 0, 0),
                     MeshId(100, 5, 0), MeshId(100, 0, 5)]


def test_peaks_validation(small_aoi):
    with pytest.raises(EmptyFieldError):
        find_local_peaks(_as_map(small_aoi, {}))


def test_peaks_match_brute_force_on_random_grids(small_aoi):
    rng = np.random.default_rng(314)
    for trial in range(100):
        n = 20
        vals = rng.uniform(0.0, 1.0, (n, n))
        # sprinkle holes and exact ties to stress the neighbor lookup
        vals[rng.uniform(0, 1, (n, n)) < 0.2] = np.nan
        flat = vals[~np.isnan(vals)]
        if flat.size == 0:
            continue
        tie = rng.integers(0, n, (2, 4))
        vals[tie[0], tie[1]] = 0.77
        grid = {(c, r): vals[r, c] for r in range(n) for c in range(n)
                if not np.isnan(vals[r, c])}
        floor = float(rng.choice([0.0, 50.0, 90.0]))
        got = _peaks(_as_map(small_aoi, grid), percentile_floor=floor)
        all_vals = np.array(sorted(grid.values()))
        cut = np.percentile(all_vals, floor)
        want = []
        for (c, r), v in grid.items():
            if v < cut:
                continue
            beat = True
            for dc in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    if (dc, dr) == (0, 0):
                        continue
                    nb = grid.get((c + dc, r + dr))
                    if nb is not None and nb >= v:
                        beat = False
            if beat:
                want.append(MeshId(100, c, r))
        want.sort(key=lambda m: (-grid[(m.col, m.row)], m.row, m.col))
        assert got == want, f"trial {trial}"


def test_peaks_index_the_map_in_any_row_order(small_aoi):
    grid = {(c, r): float((7 * c + 3 * r) % 11) for c in range(9)
            for r in range(6)}
    cmap = _as_map(small_aoi, grid)
    want = _peaks(cmap, percentile_floor=0.0)
    assert len(want) > 1
    flip = np.arange(cmap.scores.size)[::-1]
    shuffled = CombinedMap(100, small_aoi, cmap.col[flip], cmap.row[flip],
                           cmap.scores[flip])
    assert _peaks(shuffled, percentile_floor=0.0) == want


def test_peaks_of_a_normalized_layer(small_aoi):
    layer = normalize(_field(small_aoi, 100, {(2, 2): 3.0, (3, 2): 1.0}))
    assert _peaks(layer) == [MeshId(100, 2, 2)]
