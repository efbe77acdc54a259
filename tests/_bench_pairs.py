"""Alternating pairs of benchmark runs on two source trees.

Runs the benchmark of each tree as it stands, ``perfbench/run.py
--trace 0``, in pairs: one run on the base tree and one on the changed
tree, the first of each pair alternating between them. For each workload
and end-to-end metric it prints both sides' median and quartiles, and
how many pairs each side won (ties count for neither). With ``--out`` it
also appends every sample, with each tree's provenance line, to a JSON
file under the key "<workload> seed <seed>: <base> -> <changed>", where
<base> and <changed> begin each tree's ``src_sha256``. Sets already in
the file stay; a set of the same trees again takes the next " #<n>":

    python tests/_bench_pairs.py BASE_TREE CHANGED_TREE \\
        --workloads fields --pairs 10 --seed 2 --seconds 10 --out pairs.json

A claim holds where the changed tree wins at least nine tenths of the
pairs and the medians differ by more than the base tree's interquartile
range. Runs go one at a time, so they do not compete for the processors.
With each run of the ``city`` or ``windows`` workload, it also runs each
of that workload's commands again in a process of its own, through a
wrapper that calls ``mdemap.cli.main`` and then reads its own ``VmHWM``
from ``/proc/self/status``; the medians of these ``own_peak_mb``, per
command, go in the report too. A child's ``ru_maxrss``, which the
benchmark's ``peak_rss_mb`` takes, counts at least its parent's peak, so
that metric can measure the runner rather than the command.

Not a test: pytest does not collect it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# Runs one mdemap command in this process and prints its own peak, in MB.
WRAPPER = """
import sys
from mdemap.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as f:
    kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
print(kb / 1024)
sys.exit(code)
"""
# Run in a tree's perfbench directory with a workload and a seed: writes
# the workload's input file, if it reads one, and prints its commands as
# perfbench/run.py runs them, from run.py's own file names, window and
# default sizes.
PLAN = """
import json, sys
import inputs, run
workload, seed = sys.argv[1], int(sys.argv[2])
size, fields = run.WORKLOADS[workload][1], run.FIELD_FILES
if workload == "windows":
    with open("windows.csv", "w", encoding="utf-8") as f:
        f.write(inputs.windows_log(seed, **size)[0])
print(json.dumps({
    "city": [
        ("synth", ["synth", "--seed", str(seed), "--users",
                   str(size["users"]), "--fixes", str(size["fixes"]),
                   "--out", "."]),
        ("compute", ["compute", "points.csv", "--out", "."]),
        ("combine", ["combine", *fields, "--mode", "mean", "--out", "."]),
        ("evaluate", ["evaluate", *fields, "--stations", "stations.csv",
                      "--out", "."]),
        ("export", ["export", "combined.csv", "--out", "."])],
    "windows": [
        ("compute", ["compute", "windows.csv", "--window",
                     str(run.WINDOW_S), "--out", "."])],
}[workload]))
"""
OWN_PEAKS = ("city", "windows")     # the workloads run command by command


def run(tree: Path, workload: str, seed: int | None,
        seconds: float) -> tuple[dict, dict]:
    """One run's metrics (name -> value) and its provenance."""
    seed_args = [] if seed is None else ["--seed", str(seed)]
    out = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, *seed_args, "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=tree)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: {workload} failed {result['failed']} of "
                         f"{result['attempted']} operations")
    [prov] = [json.loads(line.split(" ", 1)[1]) for line in lines
              if line.startswith("provenance ")]
    return {k: m["value"] for k, m in result["metrics"].items()}, prov


def own_peaks(tree: Path, workload: str, seed: int) -> dict[str, float]:
    """Each command of ``workload`` run alone on ``tree``: its own peak."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    peaks = {}
    with tempfile.TemporaryDirectory() as work:
        plan = subprocess.run(
            [sys.executable, "-c", PLAN, workload, str(seed)], cwd=work,
            env=dict(env, PYTHONPATH=str(tree / "perfbench")),
            capture_output=True, text=True, check=True)
        for name, argv in json.loads(plan.stdout):
            out = subprocess.run([sys.executable, "-c", WRAPPER, *argv],
                                 cwd=work, env=env, capture_output=True,
                                 text=True, check=True)
            peaks[name] = float(out.stdout.split()[-1])
    return peaks


def summary(base: list[float], changed: list[float]) -> dict:
    """Medians, quartiles and pairs won, lower being better."""
    def stats(xs):
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return {"median": med, "q1": q1, "q3": q3, "samples": xs}
    b, c = stats(base), stats(changed)
    won = sum(y < x for x, y in zip(base, changed))
    lost = sum(y > x for x, y in zip(base, changed))
    return {"base": b, "changed": c, "pairs": len(base),
            "changed_won": won, "base_won": lost,
            "change": c["median"] / b["median"] - 1,
            "claim_holds": (won >= 0.9 * len(base) and
                            b["median"] - c["median"] > b["q3"] - b["q1"])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("changed", type=Path)
    ap.add_argument("--workloads", default="fields,city,windows")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, help="default: each workload's own")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("quartiles need --pairs 2 or more")
    trees = {"base": args.base.resolve(), "changed": args.changed.resolve()}
    report = (json.loads(args.out.read_text())
              if args.out and args.out.exists() else {})
    for workload in args.workloads.split(","):
        runs, prov = {"base": [], "changed": []}, {}
        peaks = {"base": [], "changed": []}
        for i in range(args.pairs):
            order = ("base", "changed") if i % 2 == 0 else ("changed", "base")
            for side in order:
                metrics, prov[side] = run(trees[side], workload, args.seed,
                                          args.seconds)
                runs[side].append(metrics)
                if workload in OWN_PEAKS:
                    peaks[side].append(own_peaks(trees[side], workload,
                                                 prov[side]["seed"]))
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} wall_s {runs[side][-1]['wall_s']:.4f}"
                for side in ("base", "changed")), file=sys.stderr)
        metrics = {name: summary([r[name] for r in runs["base"]],
                                 [r[name] for r in runs["changed"]])
                   for name in runs["base"][0]}
        key = (f"{workload} seed {prov['base']['seed']}: "
               f"{prov['base']['src_sha256'][:12]} -> "
               f"{prov['changed']['src_sha256'][:12]}")
        again = sum(k == key or k.startswith(key + " #") for k in report)
        own = {name: summary([p[name] for p in peaks["base"]],
                             [p[name] for p in peaks["changed"]])
               for name in (peaks["base"][0] if peaks["base"] else {})}
        report[key + (f" #{again + 1}" if again else "")] = {
            "seconds": args.seconds, "provenance": prov, "metrics": metrics,
            **({"own_peak_mb": own} if own else {})}
        for name, s in own.items():
            b, c = s["base"], s["changed"]
            print(f"{workload:8s} own_peak_mb {name:8s} base "
                  f"{b['median']:.1f} changed {c['median']:.1f} "
                  f"{s['change']:+.1%}")
        for name, s in metrics.items():
            b, c = s["base"], s["changed"]
            print(f"{workload:8s} {name:12s} base {b['median']:.4f} "
                  f"[{b['q1']:.4f}, {b['q3']:.4f}]  changed "
                  f"{c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}]  "
                  f"{s['change']:+.1%}  won {s['changed_won']}/{s['pairs']}"
                  f"{'  claim holds' if s['claim_holds'] else ''}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
