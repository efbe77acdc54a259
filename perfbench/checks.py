"""Output checks of the CLI workloads.

Each check returns a list of (operation, problem) pairs, so a failure
counts against the command that wrote the bad output. Invariants hold
for any seed; sha256 digests are compared only when the workload runs
at the seed and size they were recorded for (`digests.json`).
Summaries are left out of the digests: later changes may add keys.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"
MAX_ENTROPY = math.log(100)
ENTROPY_SLACK = 1e-12   # relative; entropy sums may round past ln 100


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def data_digests(out: Path) -> dict[str, str]:
    """sha256 of every data file in a directory, summaries excluded."""
    return {p.name: sha256(p) for p in sorted(out.iterdir())
            if p.is_file() and not p.name.endswith("_summary.json")}


def window_digests(out: Path) -> dict[str, str]:
    """One digest per scale over its window files, keyed by window start.

    Files are found through compute_summary.json, not by their names.
    """
    files = json.loads((out / "compute_summary.json").read_text())["files"]
    lines: dict[int, list[tuple[float, str]]] = {}
    for name, info in files.items():
        lines.setdefault(info["scale_m"], []).append(
            (info["window"][0], sha256(out / name)))
    return {f"{scale}m": hashlib.sha256("".join(
        f"{start!r} {digest}\n" for start, digest in sorted(rows)
    ).encode()).hexdigest() for scale, rows in sorted(lines.items())}


def recorded(workload: str, seed: int, size: dict):
    """The digests recorded for this workload, seed and size, or None."""
    if not DIGESTS.is_file():
        return None
    entry = json.loads(DIGESTS.read_text()).get(workload)
    if entry and entry["seed"] == seed and entry["size"] == size:
        return entry["digests"]
    return None


def compare(got: dict, want: dict | None, producer) -> list:
    if want is None:
        return []
    problems = []
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            what = "missing" if key not in got else (
                "unexpected" if key not in want else "sha256 differs")
            problems.append((producer(key), f"{key}: {what}"))
    return problems


def field_problems(out: Path, op: str = "compute") -> list:
    """Row counts match compute_summary.json; entropies in [0, ln 100]."""
    summary = json.loads((out / "compute_summary.json").read_text())
    problems = []
    for name, info in summary["files"].items():
        rows = defined = bad = 0
        with open(out / name, newline="", encoding="utf-8") as f:
            for rec in csv.DictReader(f):
                rows += 1
                if rec["entropy_nats"]:
                    defined += 1
                    h = float(rec["entropy_nats"])
                    if not 0.0 <= h <= MAX_ENTROPY * (1 + ENTROPY_SLACK):
                        bad += 1
        if (rows, defined) != (info["meshes"], info["meshes_defined"]):
            problems.append((op, f"{name}: {rows} rows, {defined} defined; "
                             f"summary says {info['meshes']}, "
                             f"{info['meshes_defined']}"))
        if bad:
            problems.append((op, f"{name}: {bad} entropies outside [0, ln 100]"))
    return problems


def city_producer(name: str) -> str:
    if name in ("points.csv", "stations.csv"):
        return "synth"
    if name.startswith("mde_"):
        return "compute"
    if name in ("combined.csv", "peaks.csv"):
        return "combine"
    if name.endswith(".geojson"):
        return "export"
    return "evaluate"


def recall_problems(out: Path, stations: int = 8) -> list:
    """Every planted hub lies within 0.5 km of a top-K 100 m mesh."""
    with open(out / "recall_100m.csv", newline="", encoding="utf-8") as f:
        recall = {float(r["x"]): int(r["value"]) for r in csv.DictReader(f)}
    if recall.get(0.5) != stations:
        return [("evaluate", f"recall at 0.5 km on 100 m is "
                 f"{recall.get(0.5)}/{stations}")]
    return []


def summary_vectors(out: Path) -> int:
    return json.loads((out / "compute_summary.json").read_text())["vectors"]


def city_sizes(out: Path) -> dict:
    synth = json.loads((out / "synth_summary.json").read_text())
    return {"points": synth["points"],
            "csv_bytes": (out / "points.csv").stat().st_size,
            "vectors": summary_vectors(out)}


def windows_problems(out: Path, malformed: int, points: int) -> list:
    summary = json.loads((out / "compute_summary.json").read_text())
    problems = field_problems(out)
    if summary["points_skipped"] != malformed:
        problems.append(("compute", f"points_skipped {summary['points_skipped']}"
                         f" != {malformed} malformed rows written"))
    if summary["points_read"] != points:
        problems.append(("compute", f"points_read {summary['points_read']} "
                         f"!= {points} valid rows written"))
    return problems
