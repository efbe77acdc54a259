"""Scalar reference implementations the tests check the kernels against.

These are the per-point, per-displacement, per-angle, per-histogram,
per-mesh, per-row and per-user forms of the method: slow and plain, so
that the columnar code in ``mdemap`` has something independent to agree
with. The ``*_general`` functions are the plain numpy forms that the
field kernels' fast paths must match bit for bit.
"""

import csv
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from mdemap import (ALL_TIME, AreaOfInterest, CombinedMap, ConfigError,
                    EARTH_RADIUS_M, GeoPoint, Hub, InvalidAngleError,
                    LocalCoord, MAX_ENTROPY, METERS_PER_DEGREE, MdeField,
                    MeshId, N_BINS, PointParseError, inverse_project,
                    kernels, mesh_center)
from mdemap.io import CENTER_TOLERANCE_DEG, ENTROPY_SLACK
from mdemap.mesh import TWO_PI
from mdemap.synth import _STEP_MAX_M, _STEP_MIN_M


def project(p: GeoPoint, aoi: AreaOfInterest) -> LocalCoord:
    """The local coordinate of one point."""
    return LocalCoord((p.lon - aoi.south_west.lon) * aoi.meters_per_degree_lon,
                      (p.lat - aoi.south_west.lat) * METERS_PER_DEGREE)


def mesh_of(c: LocalCoord, scale_m: int) -> MeshId:
    """Mesh containing ``c``; boundaries belong to the higher-index cell."""
    return MeshId(scale_m, int(c.x // scale_m), int(c.y // scale_m))


def mesh_index_general(x, y, scale_m: int, ncols: int) -> np.ndarray:
    """Flat mesh index row * ncols + col through ``np.floor_divide``."""
    col = (np.asarray(x, dtype=np.float64) // scale_m).astype(np.int64)
    row = (np.asarray(y, dtype=np.float64) // scale_m).astype(np.int64)
    return row * ncols + col


def direction_bins_general(theta) -> np.ndarray:
    """Direction bins with every angle reduced by ``np.mod`` first."""
    t = np.mod(np.asarray(theta, dtype=np.float64), TWO_PI)
    return np.minimum(((t / TWO_PI) * N_BINS).astype(np.int64), N_BINS - 1)


def count_mesh_bins_general(mesh_idx, bins) -> tuple:
    """(key, count) pairs of ``mesh * N_BINS + bin`` by ``np.unique``."""
    keys = (np.asarray(mesh_idx, dtype=np.int64) * N_BINS
            + np.asarray(bins, dtype=np.int64))
    keys, counts = np.unique(keys, return_counts=True)
    return keys, counts.astype(np.int64)


def group_counts_general(keys, counts) -> tuple:
    """Sums of ``counts`` per distinct key by ``np.unique`` and
    ``np.bincount``, keys ascending; exact while each sum is below 2**53."""
    keys, where = np.unique(np.asarray(keys, dtype=np.int64),
                            return_inverse=True)
    sums = np.bincount(where, weights=np.asarray(counts, dtype=np.float64),
                       minlength=keys.size)
    return keys, sums.astype(np.int64)


def field_entropy_general(keys, counts, min_samples) -> tuple:
    """(mesh ids, totals, entropy) with p*log(p) computed for every mesh,
    each mesh summed from 0.0 in bin order, and the meshes below
    ``min_samples`` set to NaN afterwards."""
    keys = np.asarray(keys, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if keys.size == 0:
        return keys, counts, np.empty(0, dtype=np.float64)
    mesh = keys // N_BINS
    starts = np.concatenate(([0], np.flatnonzero(np.diff(mesh)) + 1))
    lens = np.diff(np.append(starts, mesh.size))
    totals = np.add.reduceat(counts, starts)
    p = counts / np.repeat(totals, lens)
    plogp = p * np.log(p)
    order = np.argsort(-lens, kind="stable")
    first, longest = starts[order], -lens[order]
    summing = np.searchsorted(longest, -np.arange(lens.max()))
    s = np.zeros(starts.size, dtype=np.float64)
    for j, n in enumerate(summing.tolist()):
        s[:n] += plogp[first[:n] + j]
    h = np.empty_like(s)
    h[order] = -s + 0.0
    h[totals < min_samples] = np.nan
    return mesh[starts], totals, h


def parent_of(m: MeshId, coarser_scale_m: int) -> MeshId:
    """Mesh of the coarser grid containing ``m``; the scales divide."""
    return MeshId(coarser_scale_m, m.col * m.scale_m // coarser_scale_m,
                  m.row * m.scale_m // coarser_scale_m)


def geo_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine great-circle distance in meters, mean Earth radius."""
    p1, p2 = math.radians(a.lat), math.radians(b.lat)
    dl = math.radians(b.lon - a.lon)
    h = (math.sin((p2 - p1) / 2) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def direction_of(dx: float, dy: float) -> float:
    """Angle of a local displacement (meters east, meters north).

    theta = (-atan2(dx, dy)) mod 2*pi: radians anticlockwise from north.
    """
    if dx == 0.0 and dy == 0.0:
        raise ValueError("zero displacement has no direction")
    theta = math.fmod(-math.atan2(dx, dy), TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    # adding 2*pi to a tiny negative can round to exactly 2*pi
    return 0.0 if theta >= TWO_PI else theta


def bin_of(theta: float) -> int:
    """Direction bin 0..99 of an angle in radians (reduced mod 2*pi)."""
    if not math.isfinite(theta):
        raise InvalidAngleError(f"non-finite angle {theta!r}")
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    return min(int((t / TWO_PI) * N_BINS), N_BINS - 1)


@dataclass
class DirectionHistogram:
    """Counts over the 100 direction bins; bin i covers [i*pi/50, (i+1)*pi/50)."""

    counts: np.ndarray = dc_field(
        default_factory=lambda: np.zeros(N_BINS, dtype=np.int64))

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (N_BINS,):
            raise ConfigError(f"histogram needs {N_BINS} bins")
        if (self.counts < 0).any():
            raise ConfigError("negative bin count")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def add(self, theta: float, weight: int = 1) -> None:
        self.counts[bin_of(theta)] += weight

    def merge(self, other: "DirectionHistogram") -> "DirectionHistogram":
        return DirectionHistogram(self.counts + other.counts)

    @classmethod
    def from_thetas(cls, thetas) -> "DirectionHistogram":
        bins = kernels.direction_bins(np.asarray(thetas, dtype=np.float64))
        return cls(np.bincount(bins, minlength=N_BINS).astype(np.int64))


def entropy(h: DirectionHistogram) -> float:
    """Shannon entropy of the direction distribution, in nats."""
    total = h.total
    if total == 0:
        raise ValueError("entropy of an empty histogram")
    s = 0.0
    for c in h.counts:
        if c:
            p = c / total
            s += p * math.log(p)
    return -s + 0.0


def histograms(acc) -> dict[MeshId, np.ndarray]:
    """Merged per-mesh histograms (100-bin int64 arrays) of an accumulator."""
    keys, counts = acc._merged()
    ncols = acc.aoi.grid_shape(acc.scale_m)[0]
    out: dict[MeshId, np.ndarray] = {}
    for k, c in zip(keys.tolist(), counts.tolist()):
        mesh_flat, b = divmod(k, N_BINS)
        mid = MeshId(acc.scale_m, mesh_flat % ncols, mesh_flat // ncols)
        h = out.get(mid)
        if h is None:
            h = out[mid] = np.zeros(N_BINS, dtype=np.int64)
        h[b] = c
    return out


def mesh_corners(m: MeshId, aoi: AreaOfInterest) -> list[GeoPoint]:
    """Corners in ring order sw, se, ne, nw (not closed), one
    ``inverse_project`` each."""
    s = m.scale_m
    x0, y0 = m.col * s, m.row * s
    return [inverse_project(LocalCoord(x, y), aoi) for x, y in (
        (x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s))]


def user_positions(rng, cfg, site, site_xy) -> tuple:
    """Local-coordinate x and y arrays for one user's walk, drawn from
    ``rng`` after the user's background draws."""
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


def _mesh_rows(path, aoi: AreaOfInterest, columns: tuple, kind: str):
    """Yield (line number, scale, col, row, other ``columns`` as str), one
    ``csv.reader`` row at a time, with the mesh readers' checks and
    messages."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        names = ("scale_m", "col", "row", "center_lat", "center_lon") + columns
        missing = [c for c in names if c not in header]
        if missing:
            raise PointParseError(f"{kind} file has no {missing[0]} column",
                                  line_no=1)
        col = {name: i for i, name in enumerate(header)}   # the last wins
        pos = [col[c] for c in names]
        scale = None
        for rec in reader:
            if not rec:
                continue
            line = reader.line_num
            try:
                s, c, r, la, lo, *rest = [rec[i] for i in pos]
                s, c, r = int(s), int(c), int(r)
            except (IndexError, ValueError) as exc:
                raise PointParseError(str(exc), line_no=line) from exc
            if scale is None:
                if s <= 0:
                    raise PointParseError(f"mesh scale {s} is not positive",
                                          line_no=line)
                scale = s
                ncols, nrows = aoi.grid_shape(s)
            elif s != scale:
                raise PointParseError(f"mixed scales in one {kind} file",
                                      line_no=line)
            if not (0 <= c < ncols and 0 <= r < nrows):
                raise PointParseError(
                    f"mesh col {c}, row {r} outside the {ncols} x {nrows} "
                    f"grid of {s} m meshes", line_no=line)
            want = mesh_center(MeshId(scale, c, r), aoi)
            if la != repr(want.lat) or lo != repr(want.lon):
                try:
                    la, lo = float(la), float(lo)
                except ValueError as exc:
                    raise PointParseError(str(exc), line_no=line) from exc
                if not (abs(la - want.lat) <= CENTER_TOLERANCE_DEG
                        and abs(lo - want.lon) <= CENTER_TOLERANCE_DEG):
                    raise PointParseError(
                        f"mesh col {c}, row {r} is centered at {la!r}, "
                        f"{lo!r}; the given area of interest puts its center "
                        f"at {want.lat!r}, {want.lon!r}", line_no=line)
            yield line, s, c, r, rest
    if scale is None:
        raise PointParseError(f"{kind} file has no rows")


def _grid_order(lines: list, col: list, row: list, *values: np.ndarray):
    """``col``, ``row`` and ``values`` as arrays in (row, col) order; a
    repeated mesh is refused at the first line that repeats an earlier
    one."""
    c = np.array(col, dtype=np.int64)
    r = np.array(row, dtype=np.int64)
    order = np.lexsort((c, r))
    c, r = c[order], r[order]
    # the sort is stable, so the later row of a pair sorts second
    later = order[1:][(c[1:] == c[:-1]) & (r[1:] == r[:-1])]
    if later.size:
        i = int(later.min())
        raise PointParseError(f"repeated mesh col {col[i]}, row {row[i]}",
                              line_no=lines[i])
    return [c, r, *(v[order] for v in values)]


def read_field_csv(path, aoi: AreaOfInterest, window=ALL_TIME) -> MdeField:
    """The field reader, one row at a time."""
    lines, col, row, count, ent = [], [], [], [], []
    for line, scale, c, r, (n, h) in _mesh_rows(
            path, aoi, ("count", "entropy_nats"), "field"):
        try:
            n = int(n)
            if not 0 <= n < 2**63:          # the range of int64 counts
                raise ValueError(f"count {n} outside [0, 2**63)")
            if h:
                h = float(h)
                if not 0.0 <= h <= MAX_ENTROPY * (1 + ENTROPY_SLACK):
                    raise ValueError(f"entropy {h!r} outside [0, ln 100]")
            else:
                h = math.nan
        except ValueError as exc:
            raise PointParseError(str(exc), line_no=line) from exc
        lines.append(line)
        col.append(c)
        row.append(r)
        count.append(n)
        ent.append(h)
    return MdeField(scale, window, aoi, *_grid_order(
        lines, col, row, np.array(count, dtype=np.int64),
        np.array(ent, dtype=np.float64)))


def read_combined_csv(path, aoi: AreaOfInterest) -> CombinedMap:
    """The combined-map reader, one row at a time."""
    lines, col, row, scores = [], [], [], []
    for line, scale, c, r, (v,) in _mesh_rows(path, aoi, ("score",),
                                                "combined"):
        try:
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"non-finite score {v!r}")
        except ValueError as exc:
            raise PointParseError(str(exc), line_no=line) from exc
        lines.append(line)
        col.append(c)
        row.append(r)
        scores.append(v)
    return CombinedMap(scale, aoi, *_grid_order(
        lines, col, row, np.array(scores, dtype=np.float64)))
