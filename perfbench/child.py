"""One child process of the benchmark, optionally traced.

    python3 child.py [--trace SPANS_JSON RUN_ID] cli ARGS...
    python3 child.py [--trace SPANS_JSON RUN_ID] fields SEED VECTORS SECONDS MAX_ITER RESULT_JSON

`cli` runs one mdemap command through `mdemap.cli.main(ARGS)`, as the
`mdemap` console script does. `fields` is in-process library use: a
four-scale FieldAccumulator build over a seeded uniform batch, timed once
in one shot and once streamed in chunks into two accumulators per scale
that are then merged. It repeats until SECONDS have passed or MAX_ITER
iterations are done, and writes its timings and checks to RESULT_JSON.
With `--trace`, the mdemap layers are wrapped first and the spans are
written to SPANS_JSON when the work ends.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SCALES = (100, 1000, 2000, 4000)
CHUNKS = 10


def _slice(batch, lo: int, hi: int):
    from mdemap import MovementBatch

    cols = ("user_id", "t", "origin_lat", "origin_lon", "x", "y", "theta",
            "displacement", "duration")
    return MovementBatch(batch.aoi, *(getattr(batch, c)[lo:hi] for c in cols))


def field_digest(fields) -> str:
    """sha256 over every mesh of every field, in (scale, row, col) order."""
    h = hashlib.sha256()
    for f in fields:
        for m in sorted(f.entries, key=lambda m: (m.row, m.col)):
            e = f.entries[m]
            h.update(f"{m.scale_m},{m.col},{m.row},{e.count},"
                     f"{e.entropy!r}\n".encode())
    return h.hexdigest()


def field_problems(one_shot, streamed) -> list[str]:
    from checks import ENTROPY_SLACK, MAX_ENTROPY

    problems = []
    for a, b in zip(one_shot, streamed):
        if a != b:
            problems.append(f"{a.scale_m} m: streamed field != one-shot field")
        bad = sum(1 for _, e in a.defined()
                  if not 0.0 <= e.entropy <= MAX_ENTROPY * (1 + ENTROPY_SLACK))
        if bad:
            problems.append(f"{a.scale_m} m: {bad} entropies outside [0, ln 100]")
    return problems


def fields(seed, vectors, seconds, max_iter, result_path) -> int:
    from mdemap import DEFAULT_AOI, FieldAccumulator
    import inputs

    batch = inputs.field_batch(int(seed), int(vectors))
    n = len(batch)
    bounds = [n * i // CHUNKS for i in range(CHUNKS + 1)]
    chunks = [_slice(batch, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    iterations, digest = [], None
    start = time.perf_counter()
    while len(iterations) < int(max_iter) and (
            not iterations or time.perf_counter() - start < float(seconds)):
        t0 = time.perf_counter()
        one_shot = []
        for scale in SCALES:
            acc = FieldAccumulator(DEFAULT_AOI, scale)
            acc.add(batch)
            one_shot.append(acc.finish())
        t1 = time.perf_counter()
        streamed = []
        for scale in SCALES:
            pair = (FieldAccumulator(DEFAULT_AOI, scale),
                    FieldAccumulator(DEFAULT_AOI, scale))
            for i, chunk in enumerate(chunks):
                pair[i % 2].add(chunk)
            pair[0].merge(pair[1])
            streamed.append(pair[0].finish())
        t2 = time.perf_counter()
        if digest is None:
            digest = field_digest(one_shot)
        iterations.append({
            "build_s": t1 - t0, "stream_s": t2 - t1,
            "meshes": sum(len(f.entries) for f in one_shot),
            "problems": field_problems(one_shot, streamed)})
        del one_shot, streamed
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"vectors": n, "digest": digest,
                   "iterations": iterations}, f)
    return 0


def main(argv: list[str]) -> int:
    spans_path = run_id = None
    if argv[:1] == ["--trace"]:
        spans_path, run_id, argv = argv[1], argv[2], argv[3:]
    import mdemap
    import mdemap.cli

    if Path(mdemap.__file__).resolve().parent != SRC / "mdemap":
        print(f"mdemap imported from {mdemap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tracer = None
    if spans_path:
        from tracing import Tracer
        tracer = Tracer(run_id)
        tracer.install()
    try:
        if argv[0] == "cli":
            return mdemap.cli.main(argv[1:])
        return fields(*argv[1:])
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
