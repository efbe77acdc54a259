"""Timed four-scale field build over one million vectors.

Run as a script in its own process so peak RSS reflects only this
workload. Prints one JSON line: seconds for the four one-shot builds,
seconds for the four streamed builds (10 chunks added in turn to two
accumulators per scale, then merged), the seconds of each scale's
one-shot and streamed build under ``scale_seconds``, whether each
streamed field equals its one-shot field, and ru_maxrss in kilobytes.
"""

import dataclasses
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


SCALES = (100, 1000, 2000, 4000)
CHUNKS = 10


def chunks(batch: MovementBatch, k: int) -> list[MovementBatch]:
    """``batch`` cut into ``k`` runs of consecutive vectors."""
    columns = [f.name for f in dataclasses.fields(batch) if f.name != "aoi"]
    cuts = [len(batch) * i // k for i in range(k + 1)]
    return [dataclasses.replace(batch, **{
        c: getattr(batch, c)[lo:hi] for c in columns})
        for lo, hi in zip(cuts, cuts[1:])]


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    batch = uniform_batch(n, DEFAULT_AOI, seed=2)
    scale_seconds = {"one_shot": {}, "streamed": {}}
    t0 = time.perf_counter()
    one_shot = []
    for scale in SCALES:
        ts = time.perf_counter()
        acc = FieldAccumulator(DEFAULT_AOI, scale)
        acc.add(batch)
        one_shot.append(acc.finish())
        scale_seconds["one_shot"][scale] = time.perf_counter() - ts
    t1 = time.perf_counter()
    parts = chunks(batch, CHUNKS)
    t2 = time.perf_counter()
    streamed = []
    for scale in SCALES:
        ts = time.perf_counter()
        pair = (FieldAccumulator(DEFAULT_AOI, scale),
                FieldAccumulator(DEFAULT_AOI, scale))
        for i, part in enumerate(parts):
            pair[i % 2].add(part)
        pair[0].merge(pair[1])
        streamed.append(pair[0].finish())
        scale_seconds["streamed"][scale] = time.perf_counter() - ts
    t3 = time.perf_counter()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "n": n, "seconds": t1 - t0, "stream_seconds": t3 - t2,
        "scale_seconds": scale_seconds,
        "streamed_equal": [a == b for a, b in zip(one_shot, streamed)],
        "maxrss_kb": rss_kb,
        "defined": sum(f.n_defined for f in one_shot)}))


if __name__ == "__main__":
    main()
