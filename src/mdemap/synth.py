"""Deterministic synthetic mobility traces with planted ground truth.

Hubs are discs where every fix is an independent uniform point, so
consecutive-fix directions are exactly isotropic and hub meshes approach
the maximum entropy ln 100. Corridor users walk along a fixed axis,
alternating between the axis direction and its opposite with wrapped
Gaussian angular noise, so corridor meshes concentrate in two lobes of
low entropy. Hub centers double as the ground-truth "stations".

Reproducibility contract: the generator is NumPy's PCG64 seeded through
SeedSequence(seed, spawn_key=(user_index,)), one independent substream
per user. Per user the draw order is fixed: background flags (one
uniform per fix), background latitudes, background longitudes, then the
walk's own draws (hub: radius and angle uniforms per fix; corridor:
start offset, angular noise, step lengths). Output is therefore
byte-identical across runs, platforms, and any per-user parallel
schedule, after the final sort by (user_id, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .evaluation import Station
from .ingest import ParseResult
from .mesh import (AreaOfInterest, DEFAULT_AOI, GeoPoint, LocalCoord,
                   inverse_project, project, TWO_PI)

_T0 = 1_600_000_000  # first fix timestamp, UTC seconds
_DT = 60.0           # seconds between fixes
_STEP_MIN_M = 15.0   # corridor step lengths, uniform draw
_STEP_MAX_M = 60.0


class Hub(NamedTuple):
    """Disc of isotropic movement; entropy target ln 100."""

    center: GeoPoint
    radius_m: float


class Corridor(NamedTuple):
    """Axis-aligned back-and-forth movement; entropy target ~ln 2."""

    center: GeoPoint
    axis: float
    radius_m: float


@dataclass(frozen=True)
class GroundTruth:
    hub_positions: tuple[GeoPoint, ...]

    def stations(self) -> list[Station]:
        return [Station(f"hub{i + 1:02d}", p, i + 1)
                for i, p in enumerate(self.hub_positions)]


@dataclass(frozen=True)
class SynthConfig:
    aoi: AreaOfInterest = DEFAULT_AOI
    n_users: int = 50_000
    fixes_per_user: int = 20
    hubs: tuple[Hub, ...] = ()
    corridors: tuple[Corridor, ...] = ()
    background_rate: float = 0.05
    noise_sigma: float = 0.05
    seed: int = 42

    def __post_init__(self):
        if self.n_users < 0 or self.fixes_per_user < 1:
            raise ConfigError("need n_users >= 0 and fixes_per_user >= 1")
        if not 0.0 <= self.background_rate <= 1.0:
            raise ConfigError("background_rate must be in [0, 1]")
        if self.noise_sigma < 0.0:
            raise ConfigError("noise_sigma must be >= 0")
        if not self.hubs and not self.corridors:
            raise ConfigError("need at least one hub or corridor")
        for center, radius in [(h.center, h.radius_m) for h in self.hubs] + \
                [(c.center, c.radius_m) for c in self.corridors]:
            if radius <= 0:
                raise ConfigError("site radius must be positive")
            p = project(center, self.aoi)  # raises if outside the AOI
            if (p.x - radius < 0 or p.y - radius < 0
                    or p.x + radius > self.aoi.width_m
                    or p.y + radius > self.aoi.height_m):
                raise ConfigError("site disc extends beyond the AOI")


def default_sites(aoi: AreaOfInterest = DEFAULT_AOI,
                  scale_m: int = 100) -> tuple[tuple[Hub, ...],
                                               tuple[Corridor, ...]]:
    """8 hubs and 8 corridors on a checkerboard 4x4 lattice.

    Sites are snapped to mesh centers of ``scale_m`` so each hub disc
    (radius 45 m < half a 100 m mesh) lies inside a single fine mesh and
    the hub position is exactly that mesh's center.
    """
    margin_x, margin_y = 8_000.0, 6_000.0
    xs = [margin_x + i * (aoi.width_m - 2 * margin_x) / 3 for i in range(4)]
    ys = [margin_y + j * (aoi.height_m - 2 * margin_y) / 3 for j in range(4)]
    hubs: list[Hub] = []
    corridors: list[Corridor] = []
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            cx = (x // scale_m + 0.5) * scale_m
            cy = (y // scale_m + 0.5) * scale_m
            pos = inverse_project(LocalCoord(cx, cy), aoi)
            if (i + j) % 2 == 0:
                hubs.append(Hub(pos, 45.0))
            else:
                corridors.append(
                    Corridor(pos, (len(corridors) % 8) * math.pi / 8, 200.0))
    return tuple(hubs), tuple(corridors)


def default_config(seed: int = 42, n_users: int = 50_000,
                   fixes_per_user: int = 20,
                   aoi: AreaOfInterest = DEFAULT_AOI) -> SynthConfig:
    hubs, corridors = default_sites(aoi)
    return SynthConfig(aoi=aoi, n_users=n_users,
                       fixes_per_user=fixes_per_user, hubs=hubs,
                       corridors=corridors, seed=seed)


def _user_positions(rng, cfg: SynthConfig, site, site_xy) -> tuple:
    """Local-coordinate x and y arrays for one user's walk."""
    f = cfg.fixes_per_user
    if isinstance(site, Hub):
        r = site.radius_m * np.sqrt(rng.random(f))
        phi = rng.random(f) * TWO_PI
        return site_xy.x + r * np.cos(phi), site_xy.y + r * np.sin(phi)
    off0 = (2.0 * rng.random() - 1.0) * site.radius_m
    noise = rng.normal(0.0, cfg.noise_sigma, f - 1)
    steps = rng.uniform(_STEP_MIN_M, _STEP_MAX_M, f - 1)
    # step k heads along the axis for even k, back along it for odd k
    theta = site.axis + noise
    theta[1::2] += math.pi
    dx = -steps * np.sin(theta)
    dy = steps * np.cos(theta)
    ax = site_xy.x - off0 * math.sin(site.axis)
    ay = site_xy.y + off0 * math.cos(site.axis)
    x = np.empty(f)
    y = np.empty(f)
    x[0], y[0] = ax, ay
    np.cumsum(dx, out=x[1:])
    np.cumsum(dy, out=y[1:])
    x[1:] += ax
    y[1:] += ay
    return x, y


def generate(config: SynthConfig) -> tuple[ParseResult, GroundTruth]:
    """Every user's fixes as columns sorted by (user_id, t), and the truth."""
    cfg = config
    sites = list(cfg.hubs) + list(cfg.corridors)
    site_xy = [project(s.center, cfg.aoi) for s in sites]
    sw, ne = cfg.aoi.south_west, cfg.aoi.north_east
    width = max(len(str(max(cfg.n_users - 1, 0))), 1)
    n, f = cfg.n_users, cfg.fixes_per_user
    bg, bg_lat, bg_lon, x, y = np.empty((5, n, f))
    for u in range(n):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(u,))))
        bg[u] = rng.random(f)
        bg_lat[u] = rng.uniform(sw.lat, ne.lat, f)
        bg_lon[u] = rng.uniform(sw.lon, ne.lon, f)
        s = u % len(sites)
        x[u], y[u] = _user_positions(rng, cfg, sites[s], site_xy[s])
    lat, lon = inverse_project(LocalCoord(x, y), cfg.aoi)
    bg = bg < cfg.background_rate
    users = np.array([f"u{u:0{width}d}" for u in range(n)], dtype=object)
    points = ParseResult(
        np.repeat(users, f), np.tile(_T0 + _DT * np.arange(f), n),
        np.where(bg, bg_lat, lat).ravel(), np.where(bg, bg_lon, lon).ravel(),
        *np.full((2, n * f), np.nan))
    return points, GroundTruth(tuple(h.center for h in cfg.hubs))
