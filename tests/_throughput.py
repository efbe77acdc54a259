"""Timed four-scale field build over one million vectors.

Run as a script in its own process so peak RSS reflects only this
workload. Prints one JSON line: seconds for the four builds plus
ru_maxrss in kilobytes.
"""

import json
import math
import resource
import sys
import time

import numpy as np

from mdemap import (AreaOfInterest, DEFAULT_AOI, FieldAccumulator,
                    MovementBatch)
from mdemap.mesh import METERS_PER_DEGREE


def uniform_batch(n: int, aoi: AreaOfInterest, seed: int) -> MovementBatch:
    """Uniform random vectors over the AOI, in column form."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, aoi.width_m, n)
    y = rng.uniform(0.0, aoi.height_m, n)
    sw = aoi.south_west
    lat = sw.lat + y / METERS_PER_DEGREE
    lon = sw.lon + x / (METERS_PER_DEGREE
                        * math.cos(math.radians(aoi.mid_lat)))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    users = np.tile(np.array([f"u{i:02d}" for i in range(50)], dtype=object),
                    n // 50 + 1)[:n]
    return MovementBatch(aoi, users, rng.uniform(0.0, 1e5, n), lat, lon,
                         x, y, theta, np.full(n, 25.0), np.full(n, 60.0))


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    batch = uniform_batch(n, DEFAULT_AOI, seed=2)
    t0 = time.perf_counter()
    defined = 0
    for scale in (100, 1000, 2000, 4000):
        acc = FieldAccumulator(DEFAULT_AOI, scale)
        acc.add(batch)
        defined += acc.finish().n_defined
    dt = time.perf_counter() - t0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"n": n, "seconds": dt, "maxrss_kb": rss_kb,
                      "defined": defined}))


if __name__ == "__main__":
    main()
