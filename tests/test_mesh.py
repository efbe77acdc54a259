"""Projection, mesh indexing, and great-circle distance."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdemap import (AreaOfInterest, DEFAULT_AOI, GeoPoint, LocalCoord,
                    MeshId, METERS_PER_DEGREE, ConfigError, FieldSettings,
                    InvalidScaleError,
                    STANDARD_SCALES_M, compute_fields, inverse_project,
                    kernels, mesh_center, mesh_centers, mesh_corners)
from mdemap.field import _mesh_index
from mdemap.mesh import project_arrays

import _oracles as oracles
from conftest import batch_at

# frozen oracle values, 50-digit arithmetic on the R=6,371,000 m sphere
EW_SPAN_M = 63367.72784198471      # haversine (35.5,139.3)-(35.5,140.0)
NS_SPAN_M = 38918.224325595555     # haversine (35.5,139.3)-(35.85,139.3)
AOI_WIDTH_M = 63229.51027569304    # 0.7 deg * M * cos(35.675 deg)
AOI_HEIGHT_M = 38918.224325595555  # 0.35 deg * M


def test_meters_per_degree_is_mean_radius_arc():
    assert METERS_PER_DEGREE == pytest.approx(111194.92664455873, abs=1e-6)
    assert METERS_PER_DEGREE == 6_371_000.0 * math.pi / 180.0


def test_project_anchor_is_sw_corner():
    assert project_arrays(35.5, 139.3, DEFAULT_AOI) == (0.0, 0.0)


def test_project_ne_corner_extents():
    x, y = project_arrays(np.array([35.85]), np.array([140.0]), DEFAULT_AOI)
    assert x[0] == pytest.approx(AOI_WIDTH_M, abs=1e-6)
    assert y[0] == pytest.approx(AOI_HEIGHT_M, abs=1e-6)
    assert DEFAULT_AOI.width_m == x[0]
    assert DEFAULT_AOI.height_m == y[0]


def test_projection_vs_haversine_within_0p3_percent():
    # the flat projection compresses east-west spans vs the great circle
    assert abs(DEFAULT_AOI.width_m - EW_SPAN_M) / EW_SPAN_M < 3e-3
    assert abs(DEFAULT_AOI.height_m - NS_SPAN_M) / NS_SPAN_M < 1e-3


def test_project_inverse_roundtrip():
    rng = np.random.default_rng(404)
    lat = rng.uniform(35.5, 35.85, 500)
    lon = rng.uniform(139.3, 140.0, 500)
    x, y = project_arrays(lat, lon, DEFAULT_AOI)
    for i in range(lat.size):
        p = inverse_project(LocalCoord(x[i], y[i]), DEFAULT_AOI)
        assert p.lat == pytest.approx(lat[i], abs=1e-12)
        assert p.lon == pytest.approx(lon[i], abs=1e-12)


def test_mesh_of_floor_and_half_open():
    # the flat index row * ncols + col, ncols = 10; a boundary belongs to
    # the higher-index cell
    x = np.array([0.0, 250.0, 100.0, 99.999999])
    y = np.array([0.0, 150.0, 0.0, 0.0])
    assert _mesh_index(x, y, 100, 10).tolist() == [0, 12, 1, 0]


def test_parent_nesting_all_scale_pairs():
    rng = np.random.default_rng(11)
    x = rng.uniform(0, DEFAULT_AOI.width_m, 300)
    y = rng.uniform(0, DEFAULT_AOI.height_m, 300)
    ncols = {s: DEFAULT_AOI.grid_shape(s)[0] for s in (100, 1000, 2000, 4000)}
    for fine, coarse in [(100, 1000), (1000, 2000), (2000, 4000),
                         (100, 4000)]:
        row, col = np.divmod(_mesh_index(x, y, fine, ncols[fine]),
                             ncols[fine])
        k = coarse // fine
        # the parent of each fine mesh is the same point's coarse mesh
        assert np.array_equal((row // k) * ncols[coarse] + col // k,
                              _mesh_index(x, y, coarse, ncols[coarse]))


@st.composite
def _mesh_coordinates(draw, scale_m):
    """Coordinates where a floor by ``scale_m`` can go wrong: multiples of
    the scale and their neighbouring doubles, signed zeros, the area's
    edges, and any finite double below 2**52 in magnitude."""
    edges = [0.0, -0.0, 5e-324, -5e-324, DEFAULT_AOI.width_m,
             DEFAULT_AOI.height_m, np.nextafter(DEFAULT_AOI.width_m, 0.0),
             np.nextafter(DEFAULT_AOI.height_m, 0.0)]
    multiple = st.builds(lambda k, way: np.nextafter(float(k * scale_m), way)
                         if way else float(k * scale_m),
                         st.integers(-700, 700),
                         st.sampled_from([0.0, -np.inf, np.inf]))
    value = st.one_of(multiple, st.sampled_from(edges),
                      st.floats(-2.0**52, 2.0**52))
    return np.array(draw(st.lists(value, min_size=1, max_size=50)))


@given(data=st.data(), scale_m=st.sampled_from(STANDARD_SCALES_M))
def test_mesh_index_matches_floor_divide(data, scale_m):
    x = data.draw(_mesh_coordinates(scale_m))
    y = data.draw(_mesh_coordinates(scale_m))
    n = min(x.size, y.size)
    ncols = DEFAULT_AOI.grid_shape(scale_m)[0]
    assert np.array_equal(
        _mesh_index(x[:n], y[:n], scale_m, ncols),
        oracles.mesh_index_general(x[:n], y[:n], scale_m, ncols))


def test_mesh_index_floors_a_quotient_that_rounds_up():
    # -5e-324 / s rounds to -0.0, whose floor is one above the true -1
    x = np.array([-5e-324, -0.0, 0.0, 5e-324])
    for s in STANDARD_SCALES_M:
        assert _mesh_index(x, np.zeros(4), s, 10).tolist() == [-1, 0, 0, 0]


def test_mesh_center_and_corners():
    m = MeshId(4000, 0, 0)
    c = mesh_center(m, DEFAULT_AOI)
    assert c.lat == pytest.approx(35.51798643211838, abs=1e-12)
    assert c.lon == pytest.approx(139.32214156007055, abs=1e-12)
    south, north, west, east = mesh_corners(4000, [0], [0], DEFAULT_AOI)
    assert (south[0], west[0]) == (35.5, 139.3)
    assert north[0] > south[0] and east[0] > west[0]
    # the center lies midway between the edges
    assert c.lat == pytest.approx((south[0] + north[0]) / 2, abs=1e-12)
    assert c.lon == pytest.approx((west[0] + east[0]) / 2, abs=1e-12)
    # center is the corner midpoint in local coordinates
    x, y = project_arrays(c.lat, c.lon, DEFAULT_AOI)
    assert x == pytest.approx(2000.0, abs=1e-9)
    assert y == pytest.approx(2000.0, abs=1e-9)


def test_grid_shape_covers_closed_ne_edge():
    ncols, nrows = DEFAULT_AOI.grid_shape(100)
    assert (ncols, nrows) == (633, 390)
    x, y = project_arrays(np.array([35.85]), np.array([140.0]), DEFAULT_AOI)
    row, col = np.divmod(_mesh_index(x, y, 100, ncols), ncols)
    assert col[0] < ncols and row[0] < nrows


def test_geo_distance_oracle_values():
    # each point of A against its own point of B, as one-point sets
    d = [kernels.min_haversine_m([a.lat], [a.lon], [b.lat], [b.lon])[0]
         for a, b in [(GeoPoint(35.5, 139.3), GeoPoint(35.5, 140.0)),
                      (GeoPoint(35.5, 139.3), GeoPoint(35.85, 139.3)),
                      (GeoPoint(35.7, 139.5), GeoPoint(35.7, 139.5))]]
    assert d[0] == pytest.approx(EW_SPAN_M, abs=1.0)
    assert d[1] == pytest.approx(NS_SPAN_M, abs=1.0)
    assert d[2] == 0.0


def test_geo_distance_symmetry_and_antipodal_cap():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a = [rng.uniform(-90, 90)], [rng.uniform(-180, 180)]
        b = [rng.uniform(-90, 90)], [rng.uniform(-180, 180)]
        d_ab = kernels.min_haversine_m(*a, *b)[0]
        assert d_ab == kernels.min_haversine_m(*b, *a)[0]
        assert 0.0 <= d_ab <= math.pi * 6_371_000.0 + 1e-6


def test_aoi_validation():
    with pytest.raises(ConfigError):
        AreaOfInterest.from_bounds(140.0, 139.3, 35.5, 35.85)
    with pytest.raises(ConfigError):
        AreaOfInterest.from_bounds(139.3, 140.0, 35.85, 35.5)
    with pytest.raises(ConfigError):
        AreaOfInterest(GeoPoint(35.5, 139.3), GeoPoint(35.5, 140.0))


def test_grid_shape_refuses_a_scale_below_1():
    with pytest.raises(InvalidScaleError):
        DEFAULT_AOI.grid_shape(0)


def test_contains_is_closed_on_boundary():
    # the field build keeps the vectors whose origin lies in the area
    vecs = batch_at(DEFAULT_AOI, [35.5, 35.85, 35.85000001],
                    [139.3, 140.0, 140.0], 0.0)
    [field] = compute_fields([vecs], DEFAULT_AOI,
                             FieldSettings((100,), min_samples=1))
    assert field.dropped_out_of_area == 1 and field.count.sum() == 2


@given(scale=st.sampled_from([1, 7, 100, 1000, 4000]),
       cells=st.lists(st.tuples(st.integers(0, 70_000),
                                st.integers(0, 40_000)), max_size=30),
       west=st.floats(-180.0, 179.0), south=st.floats(-90.0, 89.0))
def test_mesh_centers_equal_mesh_center_bits(scale, cells, west, south):
    aoi = AreaOfInterest.from_bounds(west, west + 1.0, south, south + 1.0)
    col_row = np.array(cells, dtype=np.int64).reshape(-1, 2)
    want = [mesh_center(MeshId(scale, c, r), aoi) for c, r in cells]
    per_mesh = np.full(len(cells), scale, dtype=np.int64)
    for s in (scale, per_mesh):
        lat, lon = mesh_centers(s, col_row[:, 0], col_row[:, 1], aoi)
        assert [x.hex() for x in lat.tolist()] == [c.lat.hex() for c in want]
        assert [x.hex() for x in lon.tolist()] == [c.lon.hex() for c in want]


@given(scale=st.sampled_from([1, 7, 100, 1000, 4000]),
       cells=st.lists(st.tuples(st.integers(0, 70_000),
                                st.integers(0, 40_000)), max_size=30),
       west=st.floats(-180.0, 179.0), south=st.floats(-90.0, 89.0))
def test_mesh_corners_equal_inverse_project_bits(scale, cells, west, south):
    aoi = AreaOfInterest.from_bounds(west, west + 1.0, south, south + 1.0)
    col_row = np.array(cells, dtype=np.int64).reshape(-1, 2)
    want = [oracles.mesh_corners(MeshId(scale, c, r), aoi) for c, r in cells]
    per_mesh = np.full(len(cells), scale, dtype=np.int64)
    for s in (scale, per_mesh):
        edges = mesh_corners(s, col_row[:, 0], col_row[:, 1], aoi)
        got = [[(lo, we), (lo, ea), (hi, ea), (hi, we)]
               for lo, hi, we, ea in zip(*([v.hex() for v in a.tolist()]
                                           for a in edges))]
        assert got == [[(p.lat.hex(), p.lon.hex()) for p in ring]
                       for ring in want]
