"""Acceptance gates for the toolkit.

Each test covers one numbered acceptance criterion, checks its pinned
tolerances and runtime budget, and prints a single PASS/FAIL line
(visible with ``pytest -v -s`` or in failure output).
"""

import dataclasses
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from mdemap import (AreaOfInterest, DEFAULT_AOI, EvaluationSettings,
                    FieldAccumulator, FieldSettings, FusionSettings, GeoPoint,
                    MdeField, MeshId, Station, SynthConfig, compute_fields,
                    default_sites, extract_movements, find_local_peaks,
                    generate, mesh_center, precision_curve, recall_curve,
                    top_k)
from mdemap.evaluation import DEFAULT_TOP_K
from mdemap.io import write_stations_csv

from _oracles import (DirectionHistogram, entropy, geo_distance, histograms,
                      mesh_of, parent_of, project)
from _throughput import uniform_batch
from conftest import field_of, map_of

# pinned tolerances and budgets
ENTROPY_TOL = 1e-12          # criteria 1-3: per-mesh entropy agreement
UNIT_ORACLE_TOL = 1e-6       # criterion 1: {75,25} two-bin value
UNIT_RUNTIME_S = 1.0         # criterion 1
ROTATION_RUNTIME_S = 10.0    # criterion 2
PIPELINE_RUNTIME_S = 60.0    # criterion 6
THROUGHPUT_RUNTIME_S = 10.0  # criterion 8
THROUGHPUT_RSS_KB = 1024 * 1024  # criterion 8: 1 GB

LN_100 = 4.605170185988091
H_75_25 = 0.5623351446188083  # -(0.75 ln 0.75 + 0.25 ln 0.25)

SMALL_AOI = AreaOfInterest.from_bounds(139.3, 139.35, 35.5, 35.53)


def _verdict(num: int, label: str, checks: dict) -> None:
    ok = all(checks.values())
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} ({label}) failed: " + ", ".join(
        name for name, good in checks.items() if not good)


def _entropies(field: MdeField) -> np.ndarray:
    """Defined entropies in (row, col) order, for bitwise comparison."""
    items = sorted(((m.row, m.col, e.entropy) for m, e in field.defined()))
    return np.array([h for _, _, h in items], dtype=np.float64)


def test_criterion_1_entropy_units():
    t0 = time.perf_counter()
    uniform = entropy(DirectionHistogram(np.ones(100, dtype=np.int64)))
    single = np.zeros(100, dtype=np.int64)
    single[42] = 977
    h_single = entropy(DirectionHistogram(single))
    two = np.zeros(100, dtype=np.int64)
    two[10], two[60] = 75, 25
    h_two = entropy(DirectionHistogram(two))
    dt = time.perf_counter() - t0
    _verdict(1, "entropy unit suite", {
        "uniform=ln100": abs(uniform - LN_100) <= ENTROPY_TOL,
        "single_bin=0": h_single == 0.0,
        "75_25_oracle": abs(h_two - H_75_25) <= UNIT_ORACLE_TOL,
        "runtime<1s": dt < UNIT_RUNTIME_S,
    })


def test_criterion_2_rotation_invariance():
    t0 = time.perf_counter()
    batch = uniform_batch(10_000, SMALL_AOI, seed=20)
    one = FieldSettings((100,), min_samples=1)
    base = _entropies(compute_fields([batch], SMALL_AOI, one)[0])
    width = math.pi / 50.0
    worst = 0.0
    for k in range(1, 100):
        rotated = dataclasses.replace(
            batch, theta=np.mod(batch.theta + k * width, 2.0 * math.pi))
        got = _entropies(compute_fields([rotated], SMALL_AOI, one)[0])
        worst = max(worst, float(np.max(np.abs(got - base))))
    dt = time.perf_counter() - t0
    _verdict(2, "rotation invariance over all 99 bin shifts", {
        "max_shift<=1e-12": worst <= ENTROPY_TOL,
        "runtime<10s": dt < ROTATION_RUNTIME_S,
    })


def test_criterion_3_nesting_and_mixture():
    batch = uniform_batch(200_000, SMALL_AOI, seed=30)
    accs = {}
    for scale in (100, 1000, 2000, 4000):
        acc = FieldAccumulator(SMALL_AOI, scale, min_samples=1)
        acc.add(batch)
        accs[scale] = acc
    hists = {s: histograms(a) for s, a in accs.items()}
    fields = {s: a.finish() for s, a in accs.items()}
    sums_exact = True
    mixture_ok = True
    for fine, coarse in ((100, 1000), (1000, 2000), (2000, 4000)):
        rolled: dict = {}
        mix: dict = {}
        for m, h in hists[fine].items():
            p = parent_of(m, coarse)
            rolled[p] = rolled.get(p, 0) + h
            e = fields[fine].entries[m]
            n, s = mix.get(p, (0, 0.0))
            mix[p] = (n + e.count, s + e.count * e.entropy)
        if set(rolled) != set(hists[coarse]):
            sums_exact = False
        else:
            sums_exact &= all(
                np.array_equal(rolled[p], hists[coarse][p]) for p in rolled)
        for p, (n, s) in mix.items():
            if fields[coarse].entries[p].entropy < s / n - ENTROPY_TOL:
                mixture_ok = False
    _verdict(3, "parent histograms are child sums; grouping inequality", {
        "histogram_sums_exact": sums_exact,
        "mixture_inequality": mixture_ok,
    })


def test_criterion_4_chunk_parity():
    batch = uniform_batch(1_000_000, DEFAULT_AOI, seed=40)
    rng = random.Random(41)
    checks = {}
    for scale in (100, 4000):
        whole = FieldAccumulator(DEFAULT_AOI, scale)
        whole.add(batch)
        ref = whole.finish()
        ref_bits = _entropies(ref).tobytes()
        for n_chunks in (1, 7, 64):
            cuts = sorted(rng.randrange(0, len(batch))
                          for _ in range(n_chunks - 1))
            acc = FieldAccumulator(DEFAULT_AOI, scale)
            prev = 0
            for cut in cuts + [len(batch)]:
                sl = slice(prev, cut)
                acc.add(dataclasses.replace(
                    batch, user_id=batch.user_id[sl], t=batch.t[sl],
                    origin_lat=batch.origin_lat[sl],
                    origin_lon=batch.origin_lon[sl], x=batch.x[sl],
                    y=batch.y[sl], theta=batch.theta[sl],
                    displacement=batch.displacement[sl],
                    duration=batch.duration[sl]))
                prev = cut
            field = acc.finish()
            checks[f"{scale}m_{n_chunks}_chunks_equal"] = field == ref
            checks[f"{scale}m_{n_chunks}_chunks_bitwise"] = \
                _entropies(field).tobytes() == ref_bits
    _verdict(4, "chunk parity at 100 m and 4000 m over 1e6 vectors", checks)


def test_criterion_5_evaluation_oracle():
    rng = random.Random(50)
    nprng = np.random.default_rng(50)
    recall_exact = precision_exact = True
    recall_monotone = precision_monotone = True
    for trial in range(100):
        n_mesh = rng.randrange(1, 26)
        n_sta = rng.randrange(1, 1000 // n_mesh + 1)
        cells = set()
        while len(cells) < n_mesh:
            cells.add((rng.randrange(0, 45), rng.randrange(0, 28)))
        field = field_of(100, SMALL_AOI, {
            cr: (40, float(h))
            for cr, h in zip(cells, nprng.uniform(0, 4.6, n_mesh))})
        stations = [
            Station(f"s{i}", mesh_center(MeshId(
                100, rng.randrange(0, 45), rng.randrange(0, 28)), SMALL_AOI),
                i + 1)
            for i in range(n_sta)]
        k = rng.randrange(1, n_mesh + 1)
        radii = tuple(sorted(rng.uniform(0.05, 8.0) for _ in range(5)))
        sel = top_k(field, k)
        got = recall_curve(sel, stations, EvaluationSettings(radii=radii))
        centers = [GeoPoint(*ll) for ll in zip(sel.lat.tolist(),
                                               sel.lon.tolist())]
        dmin = [min(geo_distance(s.pos, c) for c in centers)
                for s in stations]
        want = [sum(1 for d in dmin if d <= r * 1000.0) for r in radii]
        recall_exact &= list(got.counts) == want
        recall_monotone &= list(got.counts) == sorted(got.counts)

        best = top_k(field, rng.randrange(1, n_mesh + 2))
        curves = precision_curve(best, stations)
        ordered = [GeoPoint(*ll) for ll in zip(best.lat.tolist(),
                                               best.lon.tolist())]
        for cur in curves:
            for x, pct in zip(cur.x, cur.percentages):
                head = ordered[:x]
                near = sum(
                    1 for c in head
                    if min(geo_distance(s.pos, c) for s in stations)
                    <= cur.threshold_m)
                precision_exact &= pct == 100.0 * near / len(head)
        # curves in threshold order: each x's percentages rise with it
        for pct in zip(*(cur.percentages for cur in curves)):
            precision_monotone &= list(pct) == sorted(pct)
    _verdict(5, "recall/precision vs brute force on 100 instances", {
        "recall_exact": recall_exact,
        "precision_exact": precision_exact,
        "recall_monotone_in_radius": recall_monotone,
        "precision_monotone_in_threshold": precision_monotone,
    })


def test_criterion_6_synthetic_end_to_end():
    t0 = time.perf_counter()
    hubs, corridors = default_sites()
    # 8 hubs, 8 corridors, 50k users, 20 fixes, seed 42
    cfg = SynthConfig(hubs=hubs, corridors=corridors)
    points, truth = generate(cfg)
    batch, stats = extract_movements(points, cfg.aoi)
    [field] = compute_fields([batch], cfg.aoi, FieldSettings((100,)))
    stations = truth.stations()
    sel = top_k(field, 16)
    rec = recall_curve(sel, stations)
    # percent within each threshold of the top 10 and top 16
    within = {c.threshold_m: dict(zip(c.x, c.percentages))
              for c in precision_curve(sel, stations)}
    dt = time.perf_counter() - t0

    hub_meshes = {mesh_of(project(h, cfg.aoi), 100)
                  for h in truth.hub_positions}
    top8 = {MeshId(100, c, r)
            for c, r in zip(sel.col[:8].tolist(), sel.row[:8].tolist())}
    p300 = within[300.0][16]
    _verdict(6, "default synthetic pipeline, pinned values", {
        "n_points": len(points) == 1_000_000,
        "n_vectors": stats.n_vectors == 931_087,
        "meshes_total": len(field.entries) == 43_575,
        "meshes_defined": field.n_defined == 89,
        "top8_are_hub_meshes": top8 == hub_meshes,
        "recall_8_of_8_at_500m": rec.counts[0] == 8,
        "recall_8_at_every_radius": rec.counts == (8,) * 20,
        "precision_300m_x16_>=50": p300 >= 50.0,
        "precision_x16_exact": [p[16] for p in within.values()] == [50.0] * 4,
        "precision_x10_exact": [p[10] for p in within.values()] == [80.0] * 4,
        "runtime<60s": dt < PIPELINE_RUNTIME_S,
    })


def test_criterion_7_peak_oracle():
    rng = np.random.default_rng(70)
    all_match = True
    for trial in range(100):
        n = 20
        vals = rng.uniform(0.0, 1.0, (n, n))
        for _ in range(rng.integers(0, 6)):  # exact ties
            a, b = rng.integers(0, n, 2), rng.integers(0, n, 2)
            vals[a[0], a[1]] = vals[b[0], b[1]]
        heat = map_of(100, SMALL_AOI, {(c, r): float(vals[r, c])
                                       for r in range(n) for c in range(n)})
        floor = float(rng.choice([0.0, 50.0, 90.0, 100.0]))
        idx = find_local_peaks(heat, FusionSettings(percentile_floor=floor))
        got = [MeshId(100, c, r) for c, r in zip(heat.col[idx].tolist(),
                                                 heat.row[idx].tolist())]
        cut = np.percentile(vals.ravel(), floor)
        want = []
        for r in range(n):
            for c in range(n):
                v = vals[r, c]
                if v < cut:
                    continue
                if all(vals[rr, cc] < v
                       for rr in range(max(r - 1, 0), min(r + 2, n))
                       for cc in range(max(c - 1, 0), min(c + 2, n))
                       if (rr, cc) != (r, c)):
                    want.append(MeshId(100, c, r))
        want.sort(key=lambda m: (-vals[m.row, m.col], m.row, m.col))
        all_match &= got == want
    _verdict(7, "peaks vs exhaustive 8-neighbor scan on 100 grids", {
        "all_grids_match": all_match,
    })


def test_criterion_8_throughput():
    script = Path(__file__).with_name("_throughput.py")
    proc = subprocess.run([sys.executable, str(script), "1000000"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    _verdict(8, "four scales from 1e6 vectors in one process", {
        "runtime<10s": result["seconds"] < THROUGHPUT_RUNTIME_S,
        "rss<1GB": result["maxrss_kb"] < THROUGHPUT_RSS_KB,
        "fields_nonempty": result["defined"] > 0,
        "streamed==one_shot": result["streamed_equal"] == [True] * 4,
    })


def test_criterion_9_protocol_fidelity(tmp_path):
    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "mdemap.cli", *argv],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc

    run("synth", "--users", "400", "--fixes", "10", "--out", str(tmp_path))
    # a 43-entry ranked station list, as in the usual evaluation setup
    from mdemap.io import read_stations_csv
    stations = read_stations_csv(tmp_path / "stations.csv")
    rng = random.Random(90)
    while len(stations) < 43:
        stations.append(Station(
            f"extra{len(stations):02d}",
            mesh_center(MeshId(100, rng.randrange(0, 633),
                               rng.randrange(0, 390)), DEFAULT_AOI),
            len(stations) + 1))
    write_stations_csv(stations, tmp_path / "stations43.csv")
    run("compute", str(tmp_path / "points.csv"), "--out", str(tmp_path))
    run("evaluate", str(tmp_path / "mde_100m.csv"),
        str(tmp_path / "mde_1000m.csv"), str(tmp_path / "mde_2000m.csv"),
        str(tmp_path / "mde_4000m.csv"),
        "--stations", str(tmp_path / "stations43.csv"),
        "--out", str(tmp_path))

    summary = json.loads((tmp_path / "evaluate_summary.json").read_text())
    checks = {
        "43_stations": summary["stations"] == 43,
        "default_k": summary["k"] == {"100": 300, "1000": 60,
                                      "2000": 60, "4000": 50},
        "threshold_set": summary["thresholds_m"] == [100.0, 300.0,
                                                     1000.0, 2000.0],
    }
    for scale in (100, 1000, 2000, 4000):
        lines = (tmp_path / f"recall_{scale}m.csv").read_text().splitlines()
        checks[f"recall_{scale}_shape"] = (
            lines[0] == "x,value" and len(lines) == 21
            and [l.split(",")[0] for l in lines[1:3]] == ["0.5", "1.0"])
        k = DEFAULT_TOP_K[scale]
        want_x = [str(x) for x in range(10, k + 1, 10)]
        for t in (100, 300, 1000, 2000):
            path = tmp_path / f"precision_{scale}m_within{t}m.csv"
            lines = path.read_text().splitlines()
            checks[f"precision_{scale}_{t}_shape"] = (
                lines[0] == "x,value"
                and [l.split(",")[0] for l in lines[1:]] == want_x)
    _verdict(9, "protocol-shaped recall/precision outputs via the CLI",
             checks)
