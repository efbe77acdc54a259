"""Top-K selection, recall, and precision protocols."""

import math
import random

import numpy as np
import pytest

from mdemap import (ConfigError, EmptyFieldError, GeoPoint, MeshId, Station,
                    check_stations, default_x_values, mesh_center,
                    precision_curve, recall_curve, top_k)
from mdemap.evaluation import (DEFAULT_RADII_KM, DEFAULT_THRESHOLDS_M,
                               DEFAULT_TOP_K)
from mdemap.mesh import METERS_PER_DEGREE

from _oracles import geo_distance
from conftest import field_of


def _field(aoi, ent, scale=100):
    return field_of(scale, aoi, {cr: (40, h) for cr, h in ent.items()})


def _meshes(sel):
    """The selection as ``[(MeshId, entropy)]``, best first."""
    return [(MeshId(sel.scale_m, c, r), h) for c, r, h in zip(
        sel.col.tolist(), sel.row.tolist(), sel.entropy.tolist())]


def _centers(sel):
    return [GeoPoint(la, lo) for la, lo in zip(sel.lat.tolist(),
                                               sel.lon.tolist())]


def _north_of(p, meters):
    return GeoPoint(p.lat + meters / METERS_PER_DEGREE, p.lon)


def test_default_constants():
    assert DEFAULT_TOP_K == {100: 300, 1000: 60, 2000: 60, 4000: 50}
    assert DEFAULT_THRESHOLDS_M == (100.0, 300.0, 1000.0, 2000.0)
    assert DEFAULT_RADII_KM[0] == 0.5 and DEFAULT_RADII_KM[-1] == 10.0
    assert len(DEFAULT_RADII_KM) == 20


def test_default_x_values():
    assert default_x_values(300) == tuple(range(10, 301, 10))
    assert default_x_values(16) == (10, 16)
    assert default_x_values(50) == (10, 20, 30, 40, 50)
    assert default_x_values(5) == (5,)
    assert default_x_values(10) == (10,)


def test_check_stations():
    ok = [Station("a", GeoPoint(35.5, 139.4), 1),
          Station("b", GeoPoint(35.6, 139.5), 2)]
    check_stations(ok)
    with pytest.raises(ConfigError):
        check_stations([])
    with pytest.raises(ConfigError):
        check_stations([ok[0], Station("c", GeoPoint(35.7, 139.6), 1)])
    with pytest.raises(ConfigError):
        check_stations([Station("a", GeoPoint(35.5, 139.4), 0)])


def test_top_k_clamps(small_aoi):
    f = _field(small_aoi, {(0, 0): 2.0, (1, 0): 3.0, (2, 0): 1.0})
    sel = top_k(f, 5)
    assert [m.col for m, _ in _meshes(sel)] == [1, 0, 2]
    assert len(sel.lat) == len(sel.lon) == 3 and sel.k == 5


def test_top_k_order_and_ties(small_aoi):
    f = _field(small_aoi, {(0, 0): 2.0, (1, 0): 3.0, (2, 0): 1.0})
    sel = top_k(f, 2)
    assert [(m.col, h) for m, h in _meshes(sel)] == [(1, 3.0), (0, 2.0)]
    tied = _field(small_aoi, {(5, 2): 1.5, (1, 7): 1.5, (3, 2): 1.5})
    order = [(m.row, m.col) for m, _ in _meshes(top_k(tied, 3))]
    assert order == [(2, 3), (2, 5), (7, 1)]


def test_top_k_skips_undefined(small_aoi):
    f = field_of(100, small_aoi, {(0, 0): (40, 2.0), (9, 9): (3, None)})
    assert len(_meshes(top_k(f, 10))) == 1


def test_top_k_errors(small_aoi):
    f = _field(small_aoi, {(0, 0): 2.0})
    with pytest.raises(ConfigError):
        top_k(f, 0)
    with pytest.raises(EmptyFieldError):
        top_k(_field(small_aoi, {}), 3)


def test_top_k_centers_match_mesh_center(small_aoi):
    f = _field(small_aoi, {(3, 4): 2.0, (6, 1): 1.0})
    sel = top_k(f, 2)
    for (m, _), c in zip(_meshes(sel), _centers(sel)):
        assert c == mesh_center(m, small_aoi)


def test_recall_known_distances(small_aoi):
    f = _field(small_aoi, {(10, 10): 2.0})
    (center,) = _centers(top_k(f, 1))
    stations = [Station("s1", _north_of(center, 400.0), 1),
                Station("s2", _north_of(center, 1200.0), 2),
                Station("s3", _north_of(center, 5000.0), 3)]
    curve = recall_curve(top_k(f, 1), stations, radii_km=(1.0, 2.0, 6.0))
    assert curve.counts == (1, 2, 3)
    assert curve.scale_m == 100


def test_recall_stations_on_centers(small_aoi):
    f = _field(small_aoi, {(2, 2): 2.0, (8, 8): 1.0})
    sel = top_k(f, 2)
    stations = [Station(f"s{i}", c, i + 1)
                for i, c in enumerate(_centers(sel))]
    curve = recall_curve(sel, stations, radii_km=(0.001, 5.0))
    assert curve.counts == (2, 2)


@pytest.mark.parametrize("radii", [(math.nan, 1.0), (1.0, math.inf), (0.0,)])
def test_recall_refuses_radii_that_are_not_finite_and_positive(small_aoi,
                                                               radii):
    f = _field(small_aoi, {(2, 2): 2.0})
    (center,) = _centers(top_k(f, 1))
    with pytest.raises(ConfigError, match="radii"):
        recall_curve(top_k(f, 1), [Station("s", center, 1)], radii_km=radii)


def test_recall_no_station_in_range(small_aoi):
    f = _field(small_aoi, {(0, 0): 2.0})
    far = [Station("s", GeoPoint(36.4, 139.3), 1)]  # ~100 km north
    curve = recall_curve(top_k(f, 1), far, radii_km=(0.5, 10.0))
    assert curve.counts == (0, 0)


def test_recall_radius_monotonicity(small_aoi):
    rng = np.random.default_rng(9)
    ent = {(int(c), int(r)): float(h)
           for c, r, h in zip(rng.integers(0, 40, 30),
                              rng.integers(0, 25, 30),
                              rng.uniform(0, 4, 30))}
    f = _field(small_aoi, ent)
    stations = [Station(f"s{i}", GeoPoint(float(rng.uniform(35.5, 35.53)),
                                          float(rng.uniform(139.3, 139.35))),
                        i + 1) for i in range(12)]
    curve = recall_curve(top_k(f, 10), stations)
    assert list(curve.counts) == sorted(curve.counts)
    assert curve.counts[-1] <= len(stations)


def test_recall_growing_k_never_loses(small_aoi):
    rng = np.random.default_rng(10)
    ent = {(int(c), int(r)): float(h)
           for c, r, h in zip(rng.integers(0, 40, 40),
                              rng.integers(0, 25, 40),
                              rng.uniform(0, 4, 40))}
    f = _field(small_aoi, ent)
    stations = [Station(f"s{i}", GeoPoint(float(rng.uniform(35.5, 35.53)),
                                          float(rng.uniform(139.3, 139.35))),
                        i + 1) for i in range(15)]
    prev = None
    for k in (1, 5, 15, 40):
        counts = recall_curve(top_k(f, k), stations).counts
        if prev is not None:
            assert all(b >= a for a, b in zip(prev, counts))
        prev = counts


def test_precision_station_on_center(small_aoi):
    f = _field(small_aoi, {(4, 4): 2.0})
    (center,) = _centers(top_k(f, 1))
    curves = precision_curve(f, [Station("s", center, 1)], x_values=(1,))
    (c,) = curves
    assert c.percentages == (100.0, 100.0, 100.0, 100.0)
    assert c.x == 1


def test_precision_all_far(small_aoi):
    f = _field(small_aoi, {(0, 0): 2.0, (1, 0): 1.0})
    far = [Station("s", GeoPoint(36.4, 139.3), 1)]
    (c,) = precision_curve(f, far, x_values=(2,))
    assert c.percentages == (0.0, 0.0, 0.0, 0.0)


def test_precision_denominator_is_selection_size(small_aoi):
    # second mesh ~4 km away, beyond every threshold
    f = _field(small_aoi, {(4, 4): 2.0, (40, 25): 1.0})
    (center, _) = _centers(top_k(f, 2))
    stations = [Station("s", center, 1)]
    (c,) = precision_curve(f, stations, x_values=(10,))
    # only 2 meshes exist; one sits on the station
    assert c.percentages == (50.0, 50.0, 50.0, 50.0)


def test_precision_threshold_monotonicity(small_aoi):
    rng = np.random.default_rng(12)
    ent = {(int(c), int(r)): float(h)
           for c, r, h in zip(rng.integers(0, 40, 35),
                              rng.integers(0, 25, 35),
                              rng.uniform(0, 4, 35))}
    f = _field(small_aoi, ent)
    stations = [Station(f"s{i}", GeoPoint(float(rng.uniform(35.5, 35.53)),
                                          float(rng.uniform(139.3, 139.35))),
                        i + 1) for i in range(6)]
    for c in precision_curve(f, stations, x_values=(5, 10, 35)):
        assert list(c.percentages) == sorted(c.percentages)
        assert all(0.0 <= p <= 100.0 for p in c.percentages)


def test_precision_rejects_bad_x(small_aoi):
    f = _field(small_aoi, {(0, 0): 1.0})
    with pytest.raises(ConfigError):
        precision_curve(f, [Station("s", GeoPoint(35.5, 139.3), 1)],
                        x_values=(0,))


def test_oracle_equivalence_random_instances(small_aoi):
    """Both curves against an exhaustive pairwise-distance oracle."""
    rng = random.Random(4242)
    nprng = np.random.default_rng(4242)
    for trial in range(100):
        n_mesh = rng.randrange(1, 26)
        n_sta = rng.randrange(1, 1000 // n_mesh + 1)
        cells = set()
        while len(cells) < n_mesh:
            cells.add((rng.randrange(0, 45), rng.randrange(0, 28)))
        ent = {cr: float(h)
               for cr, h in zip(cells, nprng.uniform(0, 4.6, n_mesh))}
        f = _field(small_aoi, ent)
        stations = [
            Station(f"s{i}", GeoPoint(rng.uniform(35.49, 35.54),
                                      rng.uniform(139.29, 139.36)), i + 1)
            for i in range(n_sta)]
        k = rng.randrange(1, n_mesh + 1)
        radii = sorted(rng.uniform(0.05, 8.0) for _ in range(5))
        sel = top_k(f, k)
        got = recall_curve(sel, stations, radii_km=radii)

        dist = {(i, m): geo_distance(s.pos, mesh_center(m, small_aoi))
                for i, s in enumerate(stations)
                for m, _ in _meshes(sel)}
        want = []
        for r in radii:
            hit = 0
            for i in range(n_sta):
                if min(dist[(i, m)] for m, _ in _meshes(sel)) <= r * 1000.0:
                    hit += 1
            want.append(hit)
        assert list(got.counts) == want, f"recall mismatch, trial {trial}"

        xs = sorted({rng.randrange(1, n_mesh + 2) for _ in range(3)})
        curves = precision_curve(f, stations, x_values=xs)
        ordered = [m for m, _ in _meshes(top_k(f, max(xs)))]
        for c in curves:
            head = ordered[:c.x]
            for d, pct in zip(c.thresholds_m, c.percentages):
                near = sum(
                    1 for m in head
                    if min(geo_distance(s.pos, mesh_center(m, small_aoi))
                           for s in stations) <= d)
                assert pct == pytest.approx(100.0 * near / len(head),
                                            abs=1e-9), \
                    f"precision mismatch, trial {trial}"
