#!/usr/bin/env python3
"""End-to-end benchmark of the mdemap pipeline.

    python3 perfbench/run.py --workload {city,windows,fields} \\
        [--seed N] [--seconds S] [--trace 0|1]

Runs from any directory; it uses the mdemap sources in `src/` next to
this directory and writes only under `.bench_work/` at the repository
root. Every mdemap command runs in a fresh child process, one at a time.
With `--trace 0` it repeats whole passes of the workload until S seconds
have been measured (at least one pass) and reports the end-to-end
metrics of BENCHMARK.json. With `--trace 1` it makes one traced pass and
reports the per-layer metrics. Every output is checked; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0     # a run must end within 180 s
# Set-up is timed in fresh processes, half before and half after the
# workload, so that its median spans the whole run on a noisy host.
SETUP_SPAWNS = 5
FIELD_FILES = [f"mde_{s}m.csv" for s in (100, 1000, 2000, 4000)]
WINDOW_S = 3600

# Default seed and input size of each workload; README.md says why each exists.
WORKLOADS = {
    "city": (7, {"users": 50_000, "fixes": 20}),
    "windows": (11, {"users": 20_000, "fixes": 20}),
    "fields": (2, {"vectors": 1_000_000}),
}


@dataclass
class Op:
    """One operation: a command, or one build of the `fields` workload."""

    name: str
    seconds: float
    maxrss_kb: int = 0
    problems: list[str] = field(default_factory=list)


class Session:
    """Spawns the children of one run, one at a time, under its deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.ops: list[Op] = []
        self.spawned = 0
        (work / "logs").mkdir(parents=True, exist_ok=True)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def execute(self, cmd: list[str], cwd: Path, log: Path):
        """Run one child to its end; returns (exit code, wall s, rusage).

        The child is killed when the run's deadline passes.
        """
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, stdout=out,
                                    stderr=subprocess.STDOUT,
                                    env=dict(os.environ, PYTHONPATH=str(SRC)))
            timer = threading.Timer(max(self.remaining(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # e.g. SIGTERM: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage

    def spawn(self, name: str, args: list[str], cwd: Path,
              spans: Path | None = None, run_id: str = "") -> Op:
        """Run child.py with `args` as one operation of the workload."""
        self.spawned += 1
        log = self.work / "logs" / f"{self.spawned:03d}-{name}.log"
        cmd = [sys.executable, str(HERE / "child.py")]
        if spans is not None:
            cmd += ["--trace", str(spans / f"{self.spawned:03d}-{name}.json"),
                    run_id]
        rc, seconds, usage = self.execute(cmd + args, cwd, log)
        op = Op(name, seconds, usage.ru_maxrss)
        if rc != 0:
            op.problems.append(f"exit code {rc} (see {log.name})")
        self.ops.append(op)
        return op


def blame(ops: dict[str, Op], problems: list) -> None:
    """Charge each (operation, problem) pair to its operation."""
    for name, problem in problems:
        ops[name].problems.append(problem)


def guarded(ops: dict[str, Op], op: str, check, *args, default):
    """Run an output check; a missing or unreadable output fails `op`."""
    try:
        return check(*args)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        ops[op].problems.append(f"output check failed: {exc!r}")
        return default


# -- workloads -------------------------------------------------------------

def city_pass(s: Session, out: Path, seed: int, size: dict,
              spans: Path | None, run_id: str) -> dict:
    """synth -> compute -> combine (4 fields, mean) -> evaluate -> export."""
    steps = [
        ("synth", ["synth", "--seed", str(seed), "--users", str(size["users"]),
                   "--fixes", str(size["fixes"]), "--out", "."]),
        ("compute", ["compute", "points.csv", "--out", "."]),
        ("combine", ["combine", *FIELD_FILES, "--mode", "mean", "--out", "."]),
        ("evaluate", ["evaluate", *FIELD_FILES, "--stations", "stations.csv",
                      "--out", "."]),
        ("export", ["export", "combined.csv", "--out", "."]),
    ]
    ops = {name: s.spawn(name, ["cli", *argv], out, spans, run_id)
           for name, argv in steps}
    blame(ops, guarded(ops, "compute", checks.field_problems, out,
                       default=[]))
    blame(ops, guarded(ops, "evaluate", checks.recall_problems, out,
                       default=[]))
    digests = checks.data_digests(out)
    blame(ops, checks.compare(digests, checks.recorded("city", seed, size),
                              checks.city_producer))
    sizes = guarded(ops, "synth", checks.city_sizes, out, default={})
    return {"times": {n: op.seconds for n, op in ops.items()},
            "digests": digests, "sizes": sizes}


def windows_pass(s: Session, out: Path, seed: int, size: dict,
                 spans: Path | None, run_id: str, log: Path,
                 info: dict) -> dict:
    """One `compute --window 3600` over the seeded two-week log."""
    ops = {"compute": s.spawn("compute", [
        "cli", "compute", str(log), "--window", str(WINDOW_S), "--out", "."],
        out, spans, run_id)}
    blame(ops, guarded(ops, "compute", checks.windows_problems, out,
                       info["malformed"], info["points"], default=[]))
    digests = guarded(ops, "compute", checks.window_digests, out, default={})
    blame(ops, checks.compare(digests, checks.recorded("windows", seed, size),
                              lambda key: "compute"))
    sizes = {"points": info["points"], "csv_bytes": log.stat().st_size,
             "vectors": guarded(ops, "compute", checks.summary_vectors, out,
                                default=None)}
    return {"times": {"compute": ops["compute"].seconds},
            "digests": digests, "sizes": sizes}


def fields_pass(s: Session, out: Path, seed: int, size: dict,
                spans: Path | None, run_id: str, seconds: float,
                max_iter: int) -> dict:
    """In-process one-shot and streamed four-scale builds, in one child."""
    result = out / "fields.json"
    child = s.spawn("fields", [
        "fields", str(seed), str(size["vectors"]), str(seconds),
        str(max_iter), str(result)], out, spans, run_id)
    try:
        res = json.loads(result.read_text())
    except (OSError, ValueError) as exc:
        child.problems.append(f"no result: {exc!r}")
    if child.problems:
        return {"times": {"fields": child.seconds}, "digests": {},
                "sizes": {}}
    s.ops.remove(child)     # the child is a container; its builds are the ops
    want = checks.recorded("fields", seed, size)
    for i, it in enumerate(res["iterations"]):
        build = Op("build", it["build_s"], child.maxrss_kb)
        stream = Op("stream", it["stream_s"], child.maxrss_kb,
                    list(it["problems"]))
        if i == 0 and want is not None and want != {"fields": res["digest"]}:
            build.problems.append("field digest differs from the recorded one")
        s.ops += [build, stream]
    return {"times": {}, "digests": {"fields": res["digest"]},
            "sizes": {"vectors": res["vectors"]},
            "iterations": res["iterations"]}


def pass_walls(p: dict) -> list[float]:
    """Wall seconds of each timed unit of a pass: the whole pass, or for
    `fields` each one-shot plus streamed build."""
    if p.get("iterations"):
        return [it["build_s"] + it["stream_s"] for it in p["iterations"]]
    return [sum(p["times"].values())]


class Workload:
    """Inputs and passes of one workload in one run."""

    def __init__(self, name: str, seed: int, size: dict, s: Session):
        self.name, self.seed, self.size, self.s = name, seed, size, s
        self.count = 0
        self.log, self.info = None, None
        if name == "windows":
            text, self.info = inputs.windows_log(seed, **size)
            self.log = s.work / "windows.csv"
            self.log.write_text(text, encoding="utf-8")

    def run_pass(self, traced: bool, seconds: float = 0.0,
                 max_iter: int = 1) -> dict:
        self.count += 1
        tag = f"pass{self.count}"
        out = self.s.work / tag
        out.mkdir()
        spans = None
        if traced:
            spans = self.s.work / f"{tag}-spans"
            spans.mkdir()
        run_id = f"{self.name}-{self.seed}-{os.getpid()}-{tag}"
        args = (self.s, out, self.seed, self.size, spans, run_id)
        if self.name == "city":
            p = city_pass(*args)
        elif self.name == "windows":
            p = windows_pass(*args, self.log, self.info)
        else:
            p = fields_pass(*args, seconds, max_iter)
        shutil.rmtree(out)
        p["spans"] = sorted(spans.glob("*.json")) if spans else []
        return p


# -- set-up and provenance -------------------------------------------------

def setup_times(s: Session, n: int) -> list[float]:
    """Cold interpreter + `import mdemap.cli`, each in a fresh process."""
    times = []
    for i in range(n):
        rc, seconds, _ = s.execute(
            [sys.executable, "-c", "import mdemap.cli"], s.work,
            s.work / "logs" / f"setup-{i}.log")
        if rc != 0:
            raise SystemExit(f"importing mdemap.cli failed (exit code {rc})")
        times.append(seconds)
    return times


def provenance(s: Session) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run(
        [sys.executable, "-c", "import json, numpy, mdemap, mdemap.kernels; "
         "print(json.dumps([numpy.__version__, mdemap.kernels.BACKEND, "
         "mdemap.__file__]))"],
        env=env, cwd=s.work, check=True, capture_output=True, text=True,
        timeout=60)
    numpy_version, backend, mdemap_file = json.loads(probe.stdout)
    if Path(mdemap_file).resolve().parent != SRC / "mdemap":
        raise SystemExit(f"mdemap resolves to {mdemap_file}, not {SRC}")
    rev = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "mdemap").glob("*.py*")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "kernels_backend": backend,
            "git_rev": rev, "src_sha256": src.hexdigest()}


# -- reporting -------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def summarize_times(passes: list[dict]) -> dict[str, list[float]]:
    """Per-operation samples: command seconds, or builds for `fields`."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        if "iterations" in p:
            for it in p["iterations"]:
                samples.setdefault("build_s", []).append(it["build_s"])
                samples.setdefault("stream_s", []).append(it["stream_s"])
        for name, sec in p["times"].items():
            samples.setdefault(f"{name}_s", []).append(sec)
    return samples


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: dict | None = None, work: Path = WORK) -> dict:
    """One benchmark run; returns the result object and prints the report."""
    _, default_size = WORKLOADS[workload]
    size = size or default_size
    run_dir = work / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    s = Session(run_dir)
    prov = provenance(s)
    setups = [] if trace else setup_times(s, SETUP_SPAWNS)
    w = Workload(workload, seed, size, s)

    if trace:
        passes = [w.run_pass(True)]
        values = tracing.layer_metrics(passes[0]["spans"],
                                       statistics.median(pass_walls(passes[0])))
        units = tracing.layer_metric_units()
        metrics = {n: metric(values[n], units[n]) for n in units}
    else:
        passes, last = [], 0.0
        start = time.perf_counter()
        while not passes or (time.perf_counter() - start < seconds
                             and s.remaining() > 2 * last):
            t0 = time.perf_counter()
            passes.append(w.run_pass(False, seconds=seconds, max_iter=10_000))
            last = time.perf_counter() - t0
        setups += setup_times(s, SETUP_SPAWNS)
        walls = [x for p in passes for x in pass_walls(p)]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(statistics.median(walls), "s"),
            "peak_rss_mb": metric(max(op.maxrss_kb for op in s.ops) / 1024,
                                  "MB"),
        }
    if w.log is not None:
        w.log.unlink()

    failed = sum(1 for op in s.ops if op.problems)
    attempted = max(len(s.ops), 1)
    samples = summarize_times(passes)
    sizes = passes[0]["sizes"]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "passes": len(passes), "size": size,
        "inputs": sizes, "provenance": prov,
        "setup_samples_s": setups,
        "operations_s": {k: {"median": statistics.median(v), "n": len(v),
                             "samples": v} for k, v in samples.items()},
        "error_rate": {"failed": failed, "attempted": attempted,
                       "value": failed / attempted},
        "problems": [f"{op.name}: {p}" for op in s.ops for p in op.problems],
    }
    for key, m in metrics.items():
        print(f"{key:36s} {m['value']:>20} {m['unit']}")
    for key, v in report["operations_s"].items():
        print(f"{key:36s} {v['median']:>20.6f} s (median of {v['n']})")
    print(f"{'error_rate':36s} {failed / attempted:>20} ratio "
          f"({failed} failed of {attempted})")
    for line in report["problems"][:20]:
        print(f"FAILED {line}")
    print("provenance " + json.dumps({**prov, "workload": workload,
                                      "seed": seed, "inputs": sizes}))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**report, **result}, indent=1) + "\n")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "mdemap" / "cli.py").is_file():
        print(f"no mdemap sources under {SRC}", file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload][0] if args.seed is None else args.seed
    result = run(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
