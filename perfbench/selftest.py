#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every run emits exactly the metrics BENCHMARK.json names,
with their units; that a deliberately corrupted copy of the outputs is
caught and counted as a failure; that a traced pass writes the same
bytes as an untraced one; and that the benchmark refuses to run without
the mdemap sources. Exits 1 and lists what failed, else exits 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import checks
import run

TINY = {"city": {"users": 2_000, "fixes": 20},
        "windows": {"users": 500, "fixes": 20},
        "fields": {"vectors": 20_000}}
WORK = run.WORK / "selftest"


def quiet_run(*args, **kwargs) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run(*args, **kwargs)


def metric_names(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name, (seed, _) in run.WORKLOADS.items():
            res = quiet_run(name, seed, 0.0, trace, size=TINY[name], work=WORK)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                failures.append(f"{name} trace={int(trace)}: metrics differ "
                                f"from BENCHMARK.json {key}: "
                                f"{sorted(set(got) ^ set(want))}")
            if not res["correct"] or res["failed"]:
                failures.append(f"{name} trace={int(trace)}: "
                                f"{res['failed']}/{res['attempted']} failed")


def corrupted_copy(failures: list[str]) -> None:
    seed = run.WORKLOADS["city"][0]
    s = run.Session(WORK / "corrupt")
    w = run.Workload("city", seed, TINY["city"], s)
    plain, traced = w.run_pass(False), w.run_pass(True)
    if not plain["digests"] or plain["digests"] != traced["digests"]:
        failures.append("traced city outputs differ from untraced ones")

    out = WORK / "corrupt" / "outputs"
    ops = {n: run.Op(n, 0.0) for n in ("synth", "compute", "combine",
                                        "evaluate", "export")}
    (out.parent / "pristine").mkdir()
    run.city_pass(s, out.parent / "pristine", seed, TINY["city"], None, "")
    shutil.copytree(out.parent / "pristine", out)
    field = out / "mde_100m.csv"
    lines = field.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines[1:], 1)
               if line.split(",")[6])
    cells = lines[row].split(",")
    cells[6] = "9.0"          # entropy above ln 100
    lines[row] = ",".join(cells)
    field.write_text("".join(lines))
    (out / "peaks.csv").unlink()
    run.blame(ops, checks.field_problems(out))
    run.blame(ops, checks.compare(checks.data_digests(out), plain["digests"],
                                  checks.city_producer))
    failed = sorted(n for n, op in ops.items() if op.problems)
    if failed != ["combine", "compute"]:
        failures.append(f"corrupted copy: failed operations {failed}, "
                        f"expected combine and compute")


def bare_directory(failures: list[str]) -> None:
    bare = WORK / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "fields",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("run without mdemap sources did not fail")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    failures: list[str] = []
    for test in (metric_names, corrupted_copy, bare_directory):
        test(failures)
        print(f"{test.__name__}: done")
    shutil.rmtree(WORK, ignore_errors=True)
    for line in failures:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
