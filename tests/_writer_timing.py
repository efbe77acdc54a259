"""In-process timing of the mesh readers and every writer of ``mdemap.io``,
base against change.

Loads the ``mdemap`` package of two source trees into one process, the
base under the name ``mdemap_base`` and the change under
``mdemap_changed`` (the package imports itself relatively, so each copy
keeps to its own modules). It builds the inputs once with the changed
tree's commands: the seed-7 city of ``perfbench`` (``synth``,
``compute``, ``combine``), and the ``windows`` log of
``perfbench/inputs.py`` with ``compute --window 3600``. Each side then
reads the tables back with its own readers, timing these reads:

- ``read city fields``: ``read_field_csv`` of the city's four fields;
- ``read combined CSV``: ``read_combined_csv`` of its ``combined.csv``;
- ``read windows fields``: ``read_field_csv`` of the 1,348 field CSVs of
  the windows log;

and writes the tables with its own writers:

- ``windows fields``: the 1,348 field CSVs of the windows log;
- the city's 100 m field CSV, combined CSV and peaks CSV;
- the GeoJSON of the 100 m field and of the combined map;
- ``points``: 200k synthetic points in the ``synth`` command's blocks;
- ``evaluate``: stations, recall and precision CSVs of the four fields,
  and a summary.

Every round times each read and writer once per side, the side that
goes first alternating between rounds, by the wall clock and by the
process's CPU time (on a shared host the CPU time moves less with other
load). It prints, per job and clock, both sides' median and quartiles in
milliseconds and the rounds the change won, and each side's
``tracemalloc`` peak from a separate untimed call. The two sides' files
must be byte-identical, and their reads must give equal scales and
columns, bit for bit; a difference stops the run. Both trees must take
``precision_curve`` of a ``top_k`` selection, one curve per threshold.

    python tests/_writer_timing.py BASE_TREE CHANGED_TREE --rounds 10

Not a test: pytest does not collect it.
"""

import argparse
import hashlib
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SIDES = ("base", "changed")


def load(tree: Path, name: str):
    """The ``mdemap`` package of ``tree`` imported as ``name``."""
    init = tree / "src" / "mdemap" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("cli", "io", "synth"):
        importlib.import_module(f"{name}.{sub}")
    return package


def build_inputs(tree: Path, pkg, work: Path) -> None:
    """The city and windows files, written by ``pkg``'s commands."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", tree / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    city, windows = work / "city", work / "windows"
    fields = [f"mde_{s}m.csv" for s in (100, 1000, 2000, 4000)]
    for argv in (["synth", "--seed", "7", "--out", str(city)],
                 ["compute", str(city / "points.csv"), "--out", str(city)],
                 ["combine", *(str(city / f) for f in fields), "--mode",
                  "mean", "--out", str(city)]):
        if pkg.cli.main(argv):
            raise SystemExit(f"mdemap {' '.join(argv)} failed")
    windows.mkdir()
    text, _ = inputs.windows_log(11, users=20_000, fixes=20)
    (windows / "log.csv").write_text(text, encoding="utf-8")
    if pkg.cli.main(["compute", str(windows / "log.csv"), "--window", "3600",
                     "--out", str(windows / "out")]):
        raise SystemExit("mdemap compute of the windows log failed")


def tables(read, paths, aoi) -> list:
    """Each table of ``paths`` as ``read`` gives it: its scale and each
    column's dtype and bytes."""
    out = []
    for table in (read(path, aoi) for path in paths):
        columns = [getattr(table, c) for c in (
            "col", "row", "count", "entropy", "scores") if hasattr(table, c)]
        out.append([getattr(table, "scale_m", None) or table.base_scale_m,
                    *((c.dtype.str, c.tobytes()) for c in columns)])
    return out


def readers(pkg, work: Path) -> dict:
    """Read name -> function(out_dir) that reads with ``pkg`` and returns
    ``tables`` of what it read; the directory goes unused."""
    io, aoi = pkg.io, pkg.DEFAULT_AOI
    city = work / "city"
    fields = [city / f"mde_{s}m.csv" for s in (100, 1000, 2000, 4000)]
    windows = sorted((work / "windows" / "out").glob("mde_*.csv"))
    return {
        "read city fields": lambda out: tables(io.read_field_csv, fields, aoi),
        "read combined CSV": lambda out: tables(
            io.read_combined_csv, [city / "combined.csv"], aoi),
        "read windows fields": lambda out: tables(io.read_field_csv, windows,
                                                  aoi),
    }


def writers(pkg, work: Path) -> dict:
    """Writer name -> function(out_dir) that writes with ``pkg``."""
    io, aoi = pkg.io, pkg.DEFAULT_AOI
    city = work / "city"
    fields = [io.read_field_csv(city / f"mde_{s}m.csv", aoi)
              for s in (100, 1000, 2000, 4000)]
    cmap = io.read_combined_csv(city / "combined.csv", aoi)
    peaks = pkg.find_local_peaks(cmap, pkg.FusionSettings(mode="mean"))
    windows = [io.read_field_csv(p, aoi) for p in
               sorted((work / "windows" / "out").glob("mde_*.csv"))]
    hubs, corridors = pkg.default_sites()
    blocks = list(pkg.synth.user_blocks(pkg.SynthConfig(
        n_users=10_000, hubs=hubs, corridors=corridors, seed=7)))
    stations = io.read_stations_csv(city / "stations.csv")
    settings = pkg.EvaluationSettings()
    curves = []
    for field in fields:
        sel = pkg.top_k(field, settings.k(field.scale_m))
        curves.append((field.scale_m,
                       pkg.recall_curve(sel, stations, settings),
                       pkg.precision_curve(sel, stations)))

    def write_windows(out):
        for i, field in enumerate(windows):
            io.write_field_csv(field, out / f"window_{i}.csv")

    def write_evaluate(out):
        io.write_stations_csv(stations, out / "stations.csv")
        for scale, recall, precision in curves:
            io.write_recall_csv(recall, out / f"recall_{scale}m.csv")
            for curve in precision:
                io.write_precision_csv(curve, out / f"precision_{scale}m_"
                                                    f"{curve.threshold_m}.csv")
        io.write_summary({"stations": len(stations), "scales": [
            scale for scale, _, _ in curves]}, out / "summary.json")

    return {
        "windows fields": write_windows,
        "city 100 m field CSV": lambda out: io.write_field_csv(
            fields[0], out / "mde_100m.csv"),
        "combined CSV": lambda out: io.write_combined_csv(
            cmap, out / "combined.csv"),
        "peaks CSV": lambda out: io.write_peaks_csv(
            cmap, peaks, out / "peaks.csv"),
        "combined GeoJSON": lambda out: io.write_geojson(
            io.combined_geojson(cmap), out / "combined.geojson"),
        "100 m GeoJSON": lambda out: io.write_geojson(
            io.field_geojson(fields[0]), out / "mde_100m.geojson"),
        "points": lambda out: io.write_points_csv(blocks, out / "points.csv"),
        "evaluate": write_evaluate,
    }


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def traced_peak(job, out: Path) -> tuple[int, object]:
    """The ``tracemalloc`` peak of ``job(out)``, and what it returns."""
    tracemalloc.start()
    try:
        got = job(out)
        return tracemalloc.get_traced_memory()[1], got
    finally:
        tracemalloc.stop()


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("changed", type=Path)
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args()
    if args.rounds < 2:
        ap.error("quartiles need --rounds 2 or more")
    trees = {"base": args.base.resolve(), "changed": args.changed.resolve()}
    pkgs = {side: load(trees[side], f"mdemap_{side}") for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="writer_timing_") as tmp:
        work = Path(tmp)
        build_inputs(trees["changed"], pkgs["changed"], work)
        jobs = {side: readers(pkgs[side], work) | writers(pkgs[side], work)
                for side in SIDES}
        times = {(name, clock): {side: [] for side in SIDES}
                 for name in jobs["base"] for clock in ("wall", "cpu")}
        peaks = {}
        for name in jobs["base"]:
            outs = {side: work / side / name.replace(" ", "_")
                    for side in SIDES}
            got = {}
            for side in SIDES:
                outs[side].mkdir(parents=True)
                peaks[name, side], got[side] = traced_peak(jobs[side][name],
                                                           outs[side])
            if digests(outs["base"]) != digests(outs["changed"]):
                raise SystemExit(f"{name}: the two sides' files differ")
            if got["base"] != got["changed"]:
                raise SystemExit(f"{name}: the two sides read unequal columns")
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for name in jobs["base"]:
                for side in order:
                    out = work / side / name.replace(" ", "_")
                    wall, cpu = time.perf_counter(), time.process_time()
                    jobs[side][name](out)
                    times[name, "cpu"][side].append(time.process_time() - cpu)
                    times[name, "wall"][side].append(
                        time.perf_counter() - wall)
            print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)
    print(f"{'job':21s} {'clock':5s} {'base ms [q1-q3]':>24s} "
          f"{'changed ms [q1-q3]':>24s} {'won':>5s} {'peak MB base/chg':>17s}")
    for (name, clock), t in times.items():
        b, c = quartiles(t["base"]), quartiles(t["changed"])
        won = sum(y < x for x, y in zip(t["base"], t["changed"]))
        print(f"{name:21s} {clock:5s} {b[1] * 1e3:8.2f} [{b[0] * 1e3:6.2f}-"
              f"{b[2] * 1e3:6.2f}] {c[1] * 1e3:8.2f} [{c[0] * 1e3:6.2f}-"
              f"{c[2] * 1e3:6.2f}] {won:2d}/{len(t['base'])} "
              f"{peaks[name, 'base'] / 1e6:8.1f}/"
              f"{peaks[name, 'changed'] / 1e6:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
