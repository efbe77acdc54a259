"""Seeded input generators for the `windows` and `fields` workloads.

Both are pure functions of their seed and size, so the same seed always
gives byte-identical inputs. They depend only on numpy and, for the
field batch, on mdemap's public types; nothing comes from the test suite.
"""

from __future__ import annotations

import math

import numpy as np

# mdemap's default analysis window (DEFAULT_AOI) and its local metric frame.
LON_MIN, LON_MAX, LAT_MIN, LAT_MAX = 139.3, 140.0, 35.5, 35.85
METERS_PER_DEGREE = 6_371_000.0 * math.pi / 180.0
_M_LON = METERS_PER_DEGREE * math.cos(math.radians(0.5 * (LAT_MIN + LAT_MAX)))
WIDTH_M = (LON_MAX - LON_MIN) * _M_LON
HEIGHT_M = (LAT_MAX - LAT_MIN) * METERS_PER_DEGREE

T0 = 1_714_953_600          # 2024-05-06T00:00:00Z
SPAN_S = 14 * 86_400        # two weeks of fixes
HOTSPOTS = 12

# Each malformed row is one the parser must skip: every field the row
# breaks is checked in mdemap.ingest, so `points_skipped` equals their count.
_BAD_ROWS = (
    "{u},{ts},north,{lon}",           # latitude not a number
    "{u},{ts},95.0,{lon}",            # latitude out of range
    "{u},{ts},{lat},-200.5",          # longitude out of range
    "{u},2024-13-40T25:61:00Z,{lat},{lon}",  # impossible timestamp
    ",{ts},{lat},{lon}",              # empty user id
    "{u},{ts}",                       # missing coordinates
    "{u},{ts},nan,{lon}",             # non-finite latitude
)


def windows_log(seed: int, users: int, fixes: int,
                bad_share: float = 0.01) -> tuple[str, dict]:
    """A two-week points CSV with RFC 3339 `Z` timestamps.

    Users start at a uniform time in the two weeks and take `fixes`
    fixes 30-120 s apart, so every pair is within mdemap's default
    1800 s gap. Half of them wander around one of a few hotspots in
    random directions; the other half walk along a fixed heading. About
    `bad_share` of the rows are malformed and inserted at random places.
    Returns the CSV text and its counts: valid points, malformed rows.
    """
    rng = np.random.default_rng(seed)
    n = users * fixes
    hot_x = rng.uniform(0.2, 0.8, HOTSPOTS) * WIDTH_M
    hot_y = rng.uniform(0.2, 0.8, HOTSPOTS) * HEIGHT_M
    site = rng.integers(0, HOTSPOTS, users)
    x0 = hot_x[site] + rng.normal(0.0, 1500.0, users)
    y0 = hot_y[site] + rng.normal(0.0, 1500.0, users)
    start = T0 + rng.integers(0, SPAN_S, users)
    heading = rng.uniform(0.0, 2.0 * math.pi, users)
    wander = rng.random(users) < 0.5

    gaps = rng.integers(30, 121, (users, fixes - 1))
    t = np.concatenate([start[:, None], start[:, None] + np.cumsum(gaps, 1)], 1)
    step = rng.uniform(20.0, 200.0, (users, fixes - 1))
    noise = rng.normal(0.0, 0.1, (users, fixes - 1))
    turn = np.where(wander[:, None],
                    rng.uniform(0.0, 2.0 * math.pi, (users, fixes - 1)),
                    heading[:, None] + noise)
    x = np.concatenate([x0[:, None], x0[:, None]
                        + np.cumsum(step * np.sin(turn), 1)], 1)
    y = np.concatenate([y0[:, None], y0[:, None]
                        + np.cumsum(step * np.cos(turn), 1)], 1)
    x = np.clip(x, 1.0, WIDTH_M - 1.0).ravel()
    y = np.clip(y, 1.0, HEIGHT_M - 1.0).ravel()
    lat = (LAT_MIN + y / METERS_PER_DEGREE).tolist()
    lon = (LON_MIN + x / _M_LON).tolist()
    stamps = np.datetime_as_string(t.ravel().astype("datetime64[s]"),
                                   unit="s").tolist()
    width = len(str(users - 1))
    uid = [f"u{u:0{width}d}" for u in range(users)]

    rows = [f"{uid[i // fixes]},{stamps[i]}Z,{lat[i]!r},{lon[i]!r}"
            for i in range(n)]
    n_bad = round(bad_share * n)
    at = np.sort(rng.integers(0, n + 1, n_bad))
    kinds = rng.integers(0, len(_BAD_ROWS), n_bad)
    out = ["user_id,timestamp,lat,lon"]
    prev = 0
    for k, (pos, kind) in enumerate(zip(at.tolist(), kinds.tolist())):
        out.extend(rows[prev:pos])
        prev = pos
        i = min(pos, n - 1)
        out.append(_BAD_ROWS[kind].format(u=f"bad{k}", ts=f"{stamps[i]}Z",
                                          lat=repr(lat[i]), lon=repr(lon[i])))
    out.extend(rows[prev:])
    return "\n".join(out) + "\n", {"points": n, "malformed": n_bad}


def field_batch(seed: int, n: int):
    """`n` movement vectors uniform over the default AOI, in column form.

    Same construction as the throughput criterion of the acceptance
    tests: uniform origins, uniform directions, 50 cycling user ids.
    """
    from mdemap import DEFAULT_AOI as aoi, MovementBatch
    from mdemap.mesh import METERS_PER_DEGREE as mpd

    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, aoi.width_m, n)
    y = rng.uniform(0.0, aoi.height_m, n)
    lat = aoi.south_west.lat + y / mpd
    lon = aoi.south_west.lon + x / (mpd * math.cos(math.radians(aoi.mid_lat)))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    users = np.tile(np.array([f"u{i:02d}" for i in range(50)], dtype=object),
                    n // 50 + 1)[:n]
    return MovementBatch(aoi, users, rng.uniform(0.0, 1e5, n), lat,
                         lon, x, y, theta, np.full(n, 25.0), np.full(n, 60.0))
