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
schedule, after the final sort by (user_id, t). Only the draws are made
user by user; positions then take one array pass, in a walk's float order,
row by row, so a block of users gets the same rows as the whole city.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigError
from .evaluation import Station
from .ingest import ParseResult
from .mesh import (AreaOfInterest, DEFAULT_AOI, GeoPoint, LocalCoord,
                   inverse_project, project_arrays, TWO_PI)

_T0 = 1_600_000_000  # first fix timestamp, UTC seconds
_DT = 60.0           # seconds between fixes
_STEP_MIN_M = 15.0   # corridor step lengths, uniform draw
_STEP_MAX_M = 60.0
# Users drawn at a time by ``user_blocks``.
_BLOCK_USERS = 1024


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
        if not 0.0 <= self.noise_sigma < math.inf:    # NaN fails too
            raise ConfigError("noise_sigma must be finite and >= 0")
        if not self.hubs and not self.corridors:
            raise ConfigError("need at least one hub or corridor")
        if not all(math.isfinite(c.axis) for c in self.corridors):
            raise ConfigError("corridor axis must be finite")
        for site in self.hubs + self.corridors:
            r = site.radius_m
            if not 0.0 < r < math.inf:
                raise ConfigError("site radius must be finite and positive")
            x, y = project_arrays(site.center.lat, site.center.lon, self.aoi)
            # written so that a NaN or outside center fails it too
            if not (x - r >= 0 and y - r >= 0 and x + r <= self.aoi.width_m
                    and y + r <= self.aoi.height_m):
                raise ConfigError("site disc extends beyond the AOI")

    def truth(self) -> GroundTruth:
        """The planted truth: the hub centers."""
        return GroundTruth(tuple(h.center for h in self.hubs))


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


def generate(config: SynthConfig, users: range | None = None,
             ) -> tuple[ParseResult, GroundTruth]:
    """The fixes of ``users``, a range of user indices (default: every
    user), as columns sorted by (user_id, t), and the truth. A user's rows
    do not depend on which other users are drawn with it."""
    cfg = config
    sw, ne = cfg.aoi.south_west, cfg.aoi.north_east
    width = max(len(str(max(cfg.n_users - 1, 0))), 1)
    users = range(cfg.n_users) if users is None else users
    n, f = len(users), cfg.fixes_per_user
    site = np.arange(users.start, users.stop, users.step) % (
        len(cfg.hubs) + len(cfg.corridors))
    # each user's draws in the contract's order, in five blocks of f:
    # background flags, latitudes, longitudes, then a hub's radius and angle
    # uniforms or a corridor's start offset, f - 1 angle noises and f - 1
    # step lengths (from the block's second cell); ``uniform(a, b)`` draws
    # are made on [0, 1) and scaled after the loop as it does, a + (b - a) u
    d = np.empty((n, 5 * f))
    for i, (u, at_hub) in enumerate(zip(users,
                                        (site < len(cfg.hubs)).tolist())):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(cfg.seed, spawn_key=(u,))))
        if at_hub:
            d[i] = rng.random(5 * f)
        else:
            d[i, :3 * f + 1] = rng.random(3 * f + 1)
            d[i, 3 * f + 1:4 * f] = rng.normal(0.0, cfg.noise_sigma, f - 1)
            d[i, 4 * f + 1:] = rng.random(f - 1)
    bg, bg_lat, bg_lon, x, y = (d[:, i * f:(i + 1) * f] for i in range(5))
    bg_lat[:] = sw.lat + (ne.lat - sw.lat) * bg_lat
    bg_lon[:] = sw.lon + (ne.lon - sw.lon) * bg_lon
    _walk(cfg, site, x, y)
    lat, lon = inverse_project(LocalCoord(x, y), cfg.aoi)
    bg = bg < cfg.background_rate
    ids = np.array([f"u{u:0{width}d}" for u in users], dtype=object)
    points = ParseResult(
        np.repeat(ids, f), np.tile(_T0 + _DT * np.arange(f), n),
        np.where(bg, bg_lat, lat).ravel(), np.where(bg, bg_lon, lon).ravel(),
        *np.full((2, n * f), np.nan))
    return points, cfg.truth()


def user_blocks(config: SynthConfig) -> Iterator[ParseResult]:
    """The points of ``generate(config)`` in blocks of ``_BLOCK_USERS``
    users, each drawn when it is asked for."""
    for lo in range(0, config.n_users, _BLOCK_USERS):
        yield generate(config, range(lo, min(lo + _BLOCK_USERS,
                                             config.n_users)))[0]


def _walk(cfg: SynthConfig, site: np.ndarray, x: np.ndarray,
          y: np.ndarray) -> None:
    """Turn the walk draws in ``x`` and ``y`` into local coordinates in
    place, for users at sites ``site``: hub fixes are uniform points of the
    disc; corridor step k heads along the axis for even k, back for odd k."""
    lat, lon, radius = np.array([(s.center.lat, s.center.lon, s.radius_m)
                                 for s in cfg.hubs + cfg.corridors],
                                dtype=np.float64).T
    cx, cy, radius = (v[site, None] for v in (
        *project_arrays(lat, lon, cfg.aoi), radius))
    h = np.flatnonzero(site < len(cfg.hubs))
    r, phi = radius[h] * np.sqrt(x[h]), y[h] * TWO_PI
    x[h], y[h] = cx[h] + r * np.cos(phi), cy[h] + r * np.sin(phi)
    c = np.flatnonzero(site >= len(cfg.hubs))
    # the scalar sine and cosine of each axis, as a per-user walk takes them
    axis, sin, cos = (np.array([f(a.axis) for a in cfg.corridors],
                               dtype=np.float64)[site[c] - len(cfg.hubs), None]
                      for f in (float, math.sin, math.cos))
    off0 = (2.0 * x[c, :1] - 1.0) * radius[c]
    theta = axis + x[c, 1:]
    theta[:, 1::2] += math.pi
    steps = _STEP_MIN_M + (_STEP_MAX_M - _STEP_MIN_M) * y[c, 1:]
    ax, ay = cx[c] - off0 * sin, cy[c] + off0 * cos
    x[c] = np.hstack([ax, np.cumsum(-steps * np.sin(theta), axis=1) + ax])
    y[c] = np.hstack([ay, np.cumsum(steps * np.cos(theta), axis=1) + ay])
