"""Synthetic trace generator: determinism and planted structure."""

import hashlib
import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdemap import (ConfigError, DEFAULT_AOI, GeoPoint, Hub, Corridor,
                    FieldSettings, LocalCoord, SynthConfig, compute_fields,
                    default_sites,
                    extract_movements, generate, inverse_project, mesh_center)
from mdemap import synth
from mdemap.cli import main
from mdemap.io import write_points_csv
from mdemap.synth import _DT, _T0

import _oracles as oracles
from _oracles import geo_distance, mesh_of, project
from conftest import points_of

LN2 = math.log(2.0)


def _positions(points):
    """Each point's position as a ``GeoPoint``."""
    return list(map(GeoPoint, points.lat.tolist(), points.lon.tolist()))


def _city(seed=42, n_users=50_000, fixes_per_user=20):
    """The synthetic city of the ``synth`` command."""
    hubs, corridors = default_sites()
    return SynthConfig(n_users=n_users, fixes_per_user=fixes_per_user,
                       hubs=hubs, corridors=corridors, seed=seed)


def _one_site_config(small_aoi, site, **kw):
    kw.setdefault("n_users", 40)
    kw.setdefault("fixes_per_user", 20)
    kw.setdefault("background_rate", 0.0)
    if isinstance(site, Hub):
        return SynthConfig(aoi=small_aoi, hubs=(site,), **kw)
    return SynthConfig(aoi=small_aoi, corridors=(site,), **kw)


def test_generate_is_deterministic(small_aoi):
    hub = Hub(GeoPoint(35.515, 139.325), 45.0)
    cfg = _one_site_config(small_aoi, hub, background_rate=0.1)
    a, truth_a = generate(cfg)
    b, truth_b = generate(cfg)
    assert a == b
    assert truth_a == truth_b
    c, _ = generate(_one_site_config(small_aoi, hub, background_rate=0.1,
                                     seed=43))
    assert c != a


def test_hub_fixes_stay_in_disc(small_aoi):
    hub = Hub(GeoPoint(35.515, 139.325), 45.0)
    pts, truth = generate(_one_site_config(small_aoi, hub))
    assert truth.hub_positions == (hub.center,)
    for pos in _positions(pts):
        assert geo_distance(pos, hub.center) <= 45.0 + 1e-6


def test_timestamps_and_user_ids(small_aoi):
    hub = Hub(GeoPoint(35.515, 139.325), 45.0)
    pts, _ = generate(_one_site_config(small_aoi, hub, n_users=12))
    assert len(pts) == 12 * 20
    by_user: dict = {}
    for user, t in zip(pts.user_id.tolist(), pts.t.tolist()):
        by_user.setdefault(user, []).append(t)
    assert len(by_user) == 12
    for ts in by_user.values():
        assert ts == [1_600_000_000.0 + 60.0 * k for k in range(20)]
    ids = list(by_user)
    assert ids == sorted(ids)  # zero-padded: lexicographic = numeric
    assert all(len(u) == len(ids[0]) for u in ids)


def test_sorted_by_user_then_time(small_aoi):
    cfg = _one_site_config(small_aoi, Hub(GeoPoint(35.515, 139.325), 45.0),
                           n_users=7, background_rate=0.2)
    pts, _ = generate(cfg)
    keys = list(zip(pts.user_id.tolist(), pts.t.tolist()))
    assert keys == sorted(keys)


def test_hub_mesh_is_near_max_entropy(small_aoi):
    hub = Hub(mesh_center(mesh_of(project(GeoPoint(35.515, 139.325),
                                          small_aoi), 100), small_aoi), 45.0)
    cfg = _one_site_config(small_aoi, hub, n_users=120)
    pts, _ = generate(cfg)
    batch, stats = extract_movements(pts, small_aoi)
    [field] = compute_fields([batch], small_aoi, FieldSettings((100,)))
    hub_mesh = mesh_of(project(hub.center, small_aoi), 100)
    assert stats.n_vectors >= 1000
    entry = field.entries[hub_mesh]
    assert entry.count >= 1000
    assert entry.entropy > 4.0
    # disc of radius 45 m at a mesh center stays inside that one mesh
    assert field.n_defined == 1


def test_corridor_mesh_entropy_is_two_lobed(small_aoi):
    cor = Corridor(GeoPoint(35.512, 139.32), 0.0, 200.0)
    cfg = _one_site_config(small_aoi, cor, n_users=200)
    pts, _ = generate(cfg)
    batch, _ = extract_movements(pts, small_aoi)
    [field] = compute_fields([batch], small_aoi,
                             FieldSettings((1000,), min_samples=100))
    th = batch.theta
    # directions hug the axis and its reverse
    dist = np.minimum(np.abs(th - 0.0), np.abs(th - math.pi))
    dist = np.minimum(dist, np.abs(th - 2 * math.pi))
    assert float(np.quantile(dist, 0.99)) < 0.2
    best = max(e.entropy for _, e in field.defined())
    # wrapped-normal sigma=0.05 over pi/50 bins: about 1.95 nats
    assert LN2 - 0.05 <= best <= 2.0


def test_corridor_axes_differ(small_aoi):
    for axis in (math.pi / 8, math.pi / 2):
        cor = Corridor(GeoPoint(35.512, 139.32), axis, 200.0)
        pts, _ = generate(_one_site_config(small_aoi, cor, n_users=60))
        batch, _ = extract_movements(pts, small_aoi)
        th = batch.theta
        lobe = np.minimum(np.abs(th - axis),
                          np.abs(th - ((axis + math.pi) % (2 * math.pi))))
        assert float(np.quantile(lobe, 0.95)) < 0.15


def test_background_rate_adds_scatter(small_aoi):
    hub = Hub(GeoPoint(35.515, 139.325), 45.0)
    pts, _ = generate(_one_site_config(small_aoi, hub, n_users=200,
                                       background_rate=0.3))
    outside = sum(1 for pos in _positions(pts)
                  if geo_distance(pos, hub.center) > 50.0)
    frac = outside / len(pts)
    assert 0.25 < frac < 0.35


def test_default_sites_layout():
    hubs, corridors = default_sites(DEFAULT_AOI)
    assert len(hubs) == 8 and len(corridors) == 8
    assert {h.radius_m for h in hubs} == {45.0}
    assert {c.radius_m for c in corridors} == {200.0}
    assert [c.axis for c in corridors] == [k * math.pi / 8 for k in range(8)]
    sites = [h.center for h in hubs] + [c.center for c in corridors]
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            assert geo_distance(a, b) > 8_900.0
    # each hub disc sits wholly inside one 100 m mesh
    for h in hubs:
        p = project(h.center, DEFAULT_AOI)
        m = mesh_of(p, 100)
        assert p.x - 45.0 >= m.col * 100 and p.x + 45.0 <= (m.col + 1) * 100
        assert p.y - 45.0 >= m.row * 100 and p.y + 45.0 <= (m.row + 1) * 100


def test_default_config_wires_sites(tmp_path):
    assert main(["synth", "--users", "100", "--fixes", "5",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "synth_summary.json").read_text())
    assert summary["seed"] == 42
    assert summary["hubs"] == 8 and summary["corridors"] == 8
    assert summary["background_rate"] == 0.05
    assert summary["noise_sigma"] == 0.05


def test_ground_truth_stations():
    cfg = _city(n_users=1)
    _, truth = generate(cfg)
    stations = truth.stations()
    assert [s.rank for s in stations] == list(range(1, 9))
    assert stations[0].name == "hub01" and stations[7].name == "hub08"
    assert stations[2].pos == cfg.hubs[2].center


def test_config_validation(small_aoi):
    hub = Hub(GeoPoint(35.515, 139.325), 45.0)
    with pytest.raises(ConfigError):
        SynthConfig(aoi=small_aoi, hubs=())  # no sites at all
    with pytest.raises(ConfigError):
        SynthConfig(aoi=small_aoi, hubs=(hub,), fixes_per_user=0)
    with pytest.raises(ConfigError):
        SynthConfig(aoi=small_aoi, hubs=(hub,), background_rate=1.5)
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="noise_sigma"):
            SynthConfig(aoi=small_aoi, hubs=(hub,), noise_sigma=sigma)
    center = GeoPoint(35.515, 139.325)
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="radius"):
            SynthConfig(aoi=small_aoi, hubs=(Hub(center, radius),))
        with pytest.raises(ConfigError, match="radius"):
            SynthConfig(aoi=small_aoi,
                        corridors=(Corridor(center, 0.0, radius),))
    for axis in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="axis"):
            SynthConfig(aoi=small_aoi,
                        corridors=(Corridor(center, axis, 200.0),))
    # centers outside the area, or not a number
    for outside in (GeoPoint(36.5, 139.325), GeoPoint(math.nan, 139.325),
                    GeoPoint(35.515, math.nan)):
        with pytest.raises(ConfigError, match="beyond the AOI"):
            SynthConfig(aoi=small_aoi, hubs=(Hub(outside, 45.0),))
    # disc poking over the AOI edge
    with pytest.raises(ConfigError):
        SynthConfig(aoi=small_aoi,
                    hubs=(Hub(GeoPoint(35.5000001, 139.325), 45.0),))


def test_users_round_robin_sites(small_aoi):
    hub = Hub(GeoPoint(35.515, 139.325), 45.0)
    cor = Corridor(GeoPoint(35.512, 139.34), 0.0, 200.0)
    cfg = SynthConfig(aoi=small_aoi, n_users=10, fixes_per_user=8,
                      hubs=(hub,), corridors=(cor,), background_rate=0.0)
    pts, _ = generate(cfg)
    near_hub = {user for user, pos in zip(pts.user_id.tolist(),
                                          _positions(pts))
                if geo_distance(pos, hub.center) <= 50.0}
    assert len(near_hub) == 5  # even user indices


def _reference_generate(cfg):
    """The per-fix loop: one inverse_project and row per fix."""
    sites = list(cfg.hubs) + list(cfg.corridors)
    site_xy = [project(s.center, cfg.aoi) for s in sites]
    sw, ne = cfg.aoi.south_west, cfg.aoi.north_east
    width = max(len(str(max(cfg.n_users - 1, 0))), 1)
    f = cfg.fixes_per_user
    times = [_T0 + _DT * k for k in range(f)]
    points = []
    for u in range(cfg.n_users):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(u,))))
        is_bg = rng.random(f) < cfg.background_rate
        bg_lat = rng.uniform(sw.lat, ne.lat, f)
        bg_lon = rng.uniform(sw.lon, ne.lon, f)
        s = u % len(sites)
        x, y = oracles.user_positions(rng, cfg, sites[s], site_xy[s])
        uid = f"u{u:0{width}d}"
        for k in range(f):
            if is_bg[k]:
                pos = GeoPoint(float(bg_lat[k]), float(bg_lon[k]))
            else:
                pos = inverse_project(LocalCoord(float(x[k]), float(y[k])),
                                      cfg.aoi)
            points.append((uid, times[k], *pos))
    return points


@settings(max_examples=40)
@given(n_users=st.integers(0, 40), fixes=st.integers(1, 25),
       background_rate=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       sigma=st.sampled_from([0.0]) | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**64 - 1))
@example(n_users=0, fixes=1, background_rate=0.0, sigma=0.0, seed=0)
@example(n_users=11, fixes=20, background_rate=0.05, sigma=0.05, seed=7)
def test_generate_matches_per_fix_reference(n_users, fixes, background_rate,
                                            sigma, seed):
    cfg = replace(_city(seed, n_users, fixes),
                  background_rate=background_rate, noise_sigma=sigma)
    got, _ = generate(cfg)
    want = _reference_generate(cfg)
    assert got.user_id.tolist() == [u for u, *_ in want]
    for i, name in enumerate(("t", "lat", "lon"), start=1):
        column = getattr(got, name)
        assert column.dtype == np.float64
        assert [v.hex() for v in column.tolist()] == \
            [float(row[i]).hex() for row in want]
    assert np.isnan(got.heading).all() and np.isnan(got.speed).all()
    assert got.skipped == 0 and got == points_of(want)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@settings(max_examples=40, deadline=None)
@given(n_users=st.integers(0, 50), fixes=st.integers(1, 6),
       block=st.sampled_from([1, 3, 7, None]),
       background_rate=st.sampled_from([0.0, 0.05, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(n_users=17, fixes=3, block=None, background_rate=0.05, seed=7)
def test_synth_blocks_write_the_whole_city(tmp_path_factory, n_users, fixes,
                                          block, background_rate, seed):
    # users 0-7 of every 16 walk at hubs, 8-15 along corridors
    out = tmp_path_factory.mktemp("synth")
    with mock.patch.object(synth, "_BLOCK_USERS", block or max(n_users, 1)):
        assert main(["synth", "--users", str(n_users), "--fixes", str(fixes),
                     "--background-rate", str(background_rate),
                     "--seed", str(seed), "--out", str(out)]) == 0
    whole, _ = generate(replace(_city(seed, n_users, fixes),
                                background_rate=background_rate))
    write_points_csv([whole], out / "whole.csv")
    assert _sha256(out / "points.csv") == _sha256(out / "whole.csv")
