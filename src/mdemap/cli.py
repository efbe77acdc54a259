"""Command-line pipeline: synth, compute, combine, evaluate, export.

Exit codes: 0 success, 1 usage or configuration error, 2 I/O error,
3 data error (empty inputs, malformed rows, empty fields). Diagnostics
go to stderr; every command writes a machine-readable summary JSON next
to its outputs. Re-running a command on the same inputs and seed yields
byte-identical files.

Precedence for every setting: command-line flag, then --config file
entry (same key, underscores for dashes), then built-in default.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import closing
from pathlib import Path

import numpy as np

from . import io as mio
from .errors import ConfigError, EmptyFieldError, MdemapError, PointParseError
from .evaluation import (DEFAULT_RADII_KM, DEFAULT_THRESHOLDS_M,
                         DEFAULT_TOP_K, default_x_values, precision_curve,
                         recall_curve, top_k)
from .field import ALL_TIME, TimeWindow, compute_fields
from .fusion import combine, find_local_peaks, normalize
from .ingest import (ExtractionStats, MovementBatch, extract_movements,
                     parse_points, point_blocks, user_groups)
from .mesh import (AreaOfInterest, DEFAULT_AOI, mesh_centers,
                   STANDARD_SCALES_M)
from .synth import SynthConfig, default_sites, generate


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_aoi(text) -> AreaOfInterest:
    if isinstance(text, AreaOfInterest):
        return text
    parts = [float(p) for p in str(text).split(",")] \
        if not isinstance(text, (list, tuple)) else [float(p) for p in text]
    if len(parts) != 4:
        raise ConfigError("--aoi needs lon_min,lon_max,lat_min,lat_max")
    return AreaOfInterest.from_bounds(*parts)


def _parse_scales(text) -> tuple[int, ...]:
    items = str(text).split(",") if not isinstance(text, (list, tuple)) \
        else text
    scales = tuple(int(s) for s in items)
    if not scales or any(s <= 0 for s in scales):
        raise ConfigError("--scales needs positive integers")
    if len(set(scales)) != len(scales):
        raise ConfigError("duplicate scale")
    return scales


def _parse_top_k(text) -> dict[int, int]:
    if isinstance(text, dict):
        return {int(k): int(v) for k, v in text.items()}
    out: dict[int, int] = {}
    for item in str(text).split(","):
        scale, _, k = item.partition("=")
        if not k:
            raise ConfigError("--top-k needs scale=K pairs")
        out[int(scale)] = int(k)
    if any(v < 1 for v in out.values()):
        raise ConfigError("K must be >= 1")
    return out


def _parse_radii(text) -> tuple[float, ...]:
    items = str(text).split(",") if not isinstance(text, (list, tuple)) \
        else text
    radii = tuple(float(r) for r in items)
    if not radii or any(r <= 0 for r in radii):
        raise ConfigError("--radii needs positive km values")
    return radii


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _setting(args, cfg: dict, key: str, default, convert=None):
    v = getattr(args, key, None)
    if v is None:
        v = cfg.get(key, default)
    if v is None or convert is None:
        return v
    try:
        return convert(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key} {v!r}: {exc}") from exc


# Most time windows one compute run may make, per scale.
MAX_WINDOWS = 100_000


def _windows(spec, t: np.ndarray) -> list[TimeWindow]:
    if spec in (None, "all"):
        return [ALL_TIME]
    try:
        width = float(spec)
    except ValueError:
        width = math.nan
    if not (math.isfinite(width) and width > 0):
        raise ConfigError("--window must be 'all' or a positive length in s")
    if t.size == 0:
        return [ALL_TIME]
    k = float(t.min()) / width
    if not math.isfinite(k):
        raise ConfigError(f"--window {spec} is too short for the timestamps")
    start = math.floor(k) * width
    last = float(t.max())
    out = []
    while start <= last:
        end = start + width
        if end == start:
            raise ConfigError(f"--window {spec} is below the float resolution "
                              f"of the timestamps near {start!r}")
        if len(out) == MAX_WINDOWS:
            raise ConfigError(f"--window {spec} makes more than MAX_WINDOWS = "
                              f"{MAX_WINDOWS} windows")
        out.append(TimeWindow(start, end))
        start = end
    return out


def _window_name(scale: int, w: TimeWindow) -> str:
    """Field file name; integral window starts keep their integer form."""
    if w == ALL_TIME:
        return f"mde_{scale}m.csv"
    start = int(w.start) if w.start.is_integer() else repr(w.start)
    return f"mde_{scale}m_w{start}.csv"


def _shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--aoi", help="lon_min,lon_max,lat_min,lat_max")
    p.add_argument("--out", help="output directory (default .)")


def build_parser() -> _Parser:
    parser = _Parser(prog="mdemap",
                     description="Moving direction entropy mapping toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth", help="generate synthetic points + stations")
    _shared_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--users", type=int)
    p.add_argument("--fixes", type=int)
    p.add_argument("--background-rate", type=float, dest="background_rate")
    p.add_argument("--sigma", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("compute", help="points file -> per-scale MDE fields")
    p.add_argument("points", help="points file (CSV or NDJSON)")
    _shared_flags(p)
    p.add_argument("--scales", help="comma-separated mesh sizes in m")
    p.add_argument("--window", help="'all' or a window length in seconds")
    p.add_argument("--min-displacement", type=float, dest="min_displacement")
    p.add_argument("--max-gap", type=float, dest="max_gap")
    p.add_argument("--min-samples", type=int, dest="min_samples")
    p.add_argument("--direction", choices=("consecutive", "heading"))
    p.add_argument("--format", choices=("csv", "ndjson"), dest="fmt")
    p.add_argument("--strict", action="store_true", default=None)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("combine", help="fuse per-scale field CSVs")
    p.add_argument("fields", nargs="+", help="field CSV files to fuse")
    _shared_flags(p)
    p.add_argument("--mode", choices=("mean", "max"))
    p.add_argument("--percentile-floor", type=float, dest="percentile_floor")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("evaluate",
                       help="recall/precision of fields vs a station list")
    p.add_argument("fields", nargs="+", help="field CSV files to evaluate")
    _shared_flags(p)
    p.add_argument("--stations", required=True, help="stations CSV")
    p.add_argument("--top-k", dest="top_k", help="scale=K,... overrides")
    p.add_argument("--radii", help="recall radii in km, comma-separated")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export", help="field/combined CSV -> GeoJSON")
    p.add_argument("table", help="field or combined CSV file")
    _shared_flags(p)
    p.add_argument("--format", choices=("geojson",), dest="fmt")
    p.set_defaults(func=cmd_export)
    return parser


def _outdir(args, cfg) -> Path:
    out = Path(_setting(args, cfg, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args) -> int:
    cfg = _load_config(args.config)
    aoi = _setting(args, cfg, "aoi", DEFAULT_AOI, _parse_aoi)
    hubs, corridors = default_sites(aoi)
    config = SynthConfig(
        aoi=aoi, hubs=hubs, corridors=corridors,
        n_users=_setting(args, cfg, "users", 50_000, int),
        fixes_per_user=_setting(args, cfg, "fixes", 20, int),
        background_rate=_setting(args, cfg, "background_rate", 0.05, float),
        noise_sigma=_setting(args, cfg, "sigma", 0.05, float),
        seed=_setting(args, cfg, "seed", 42, int))
    out = _outdir(args, cfg)
    points, truth = generate(config)
    mio.write_points_csv(points, out / "points.csv")
    mio.write_stations_csv(truth.stations(), out / "stations.csv")
    mio.write_summary({
        "command": "synth", "seed": config.seed, "users": config.n_users,
        "fixes_per_user": config.fixes_per_user, "points": len(points),
        "hubs": len(config.hubs), "corridors": len(config.corridors),
        "background_rate": config.background_rate,
        "noise_sigma": config.noise_sigma,
        "files": ["points.csv", "stations.csv"],
    }, out / "synth_summary.json")
    return 0


# The MovementBatch columns that compute_fields reads.
_FIELD_COLUMNS = ("t", "origin_lat", "origin_lon", "x", "y", "theta")


def _movements(path, aoi: AreaOfInterest, fmt: str, strict: bool,
               **extract) -> tuple[MovementBatch, ExtractionStats, int]:
    """(batch, stats, points skipped) of a points file.

    The file is read in whole-user groups when its users come in
    ascending id order, holding only the vector columns the field build
    reads; otherwise it is read whole. Both give the same vectors in the
    same order, and the same counts.
    """
    streamed = _streamed_movements(path, aoi, fmt, strict, extract)
    if streamed is not None:
        return streamed
    parsed = parse_points(path, fmt=fmt, strict=strict)
    return (*extract_movements(parsed, aoi, **extract), parsed.skipped)


def _streamed_movements(path, aoi, fmt, strict, extract):
    """``_movements`` by whole-user groups; None at the first group whose
    smallest user id is not above the previous group's largest."""
    stats, skipped, last = ExtractionStats(), 0, None
    kept = {c: [np.empty(0)] for c in _FIELD_COLUMNS}
    with closing(point_blocks(path, fmt, strict)) as blocks:
        for group in user_groups(blocks):
            skipped += group.skipped
            if not len(group):
                continue
            ids = set(group.user_id.tolist())
            if last is not None and min(ids) <= last:
                return None
            last = max(ids)
            batch, group_stats = extract_movements(group, aoi, **extract)
            stats += group_stats
            for c in _FIELD_COLUMNS:
                kept[c].append(getattr(batch, c))
    # one column at a time, each freeing its parts
    columns = {c: np.concatenate(kept.pop(c)) for c in _FIELD_COLUMNS}
    # user ids, displacements and durations are not kept: zero-stride
    # placeholders hold their place
    n = columns["t"].size
    unused = np.broadcast_to(np.nan, n)
    return (MovementBatch(aoi, np.broadcast_to(np.array(None), n),
                          displacement=unused, duration=unused, **columns),
            stats, skipped)


def cmd_compute(args) -> int:
    cfg = _load_config(args.config)
    aoi = _setting(args, cfg, "aoi", DEFAULT_AOI, _parse_aoi)
    scales = _setting(args, cfg, "scales", STANDARD_SCALES_M, _parse_scales)
    window_spec = _setting(args, cfg, "window", "all")
    min_disp = _setting(args, cfg, "min_displacement", 10.0, float)
    max_gap = _setting(args, cfg, "max_gap", 1800.0, float)
    min_samples = _setting(args, cfg, "min_samples", 30, int)
    direction = _setting(args, cfg, "direction", "consecutive")
    fmt = _setting(args, cfg, "fmt", "csv")
    strict = bool(_setting(args, cfg, "strict", False))
    out = _outdir(args, cfg)

    batch, stats, skipped = _movements(
        args.points, aoi, fmt, strict, min_displacement=min_disp,
        max_gap=max_gap, source=direction)
    windows = _windows(window_spec, batch.t)
    # each out-of-area vector counts once, however many windows there are
    fields, dropped_out_of_area = compute_fields(batch, aoi, scales, windows,
                                                 min_samples)
    files: dict[str, dict] = {}
    for field in fields:
        w = field.window
        name = _window_name(field.scale_m, w)
        mio.write_field_csv(field, out / name)
        files[name] = {
            "scale_m": field.scale_m,
            "window": "all" if w == ALL_TIME else [w.start, w.end],
            "meshes": field.count.size,
            "meshes_defined": field.n_defined,
        }
    mio.write_summary({
        "command": "compute",
        "points_read": stats.n_points, "points_skipped": skipped,
        "users": stats.n_users, "vectors": stats.n_vectors,
        "dropped": {
            "duplicate": stats.dropped_duplicate, "gap": stats.dropped_gap,
            "short": stats.dropped_short,
            "no_heading": stats.dropped_no_heading,
            "out_of_area": dropped_out_of_area,
        },
        "params": {
            "aoi": [aoi.south_west.lon, aoi.north_east.lon,
                    aoi.south_west.lat, aoi.north_east.lat],
            "scales": list(scales), "window": window_spec,
            "min_displacement": min_disp, "max_gap": max_gap,
            "min_samples": min_samples, "direction": direction,
        },
        "files": files,
    }, out / "compute_summary.json")
    if stats.n_points == 0 or stats.n_vectors == 0:
        print("no movement vectors extracted", file=sys.stderr)
        return 3
    return 0


def _read_fields(paths, aoi: AreaOfInterest) -> list:
    """Field files of distinct scales; a repeated scale is a usage error."""
    fields, first = [], {}
    for path in paths:
        field = mio.read_field_csv(path, aoi)
        if field.scale_m in first:
            raise ConfigError(f"{path} and {first[field.scale_m]} are both "
                              f"{field.scale_m} m fields")
        first[field.scale_m] = path
        fields.append(field)
    return fields


def cmd_combine(args) -> int:
    cfg = _load_config(args.config)
    aoi = _setting(args, cfg, "aoi", DEFAULT_AOI, _parse_aoi)
    mode = _setting(args, cfg, "mode", "mean")
    floor = _setting(args, cfg, "percentile_floor", 90.0, float)
    out = _outdir(args, cfg)
    fields = _read_fields(args.fields, aoi)
    layers = [normalize(f) for f in fields]
    base = min(f.scale_m for f in fields)
    cmap = combine(layers, base, mode=mode)
    mio.write_combined_csv(cmap, out / "combined.csv")
    peaks = find_local_peaks(cmap, percentile_floor=floor)
    col, row = cmap.col[peaks], cmap.row[peaks]
    lat, lon = mesh_centers(base, col, row, aoi)
    with open(out / "peaks.csv", "w", encoding="utf-8", newline="") as f:
        f.write("scale_m,col,row,center_lat,center_lon,score\n")
        f.writelines(f"{base},{c},{r},{la!r},{lo!r},{v!r}\n"
                     for c, r, la, lo, v in zip(
                         col.tolist(), row.tolist(), lat.tolist(),
                         lon.tolist(), cmap.scores[peaks].tolist()))
    mio.write_summary({
        "command": "combine", "mode": mode, "base_scale_m": base,
        "contributing_scales": sorted(f.scale_m for f in fields),
        "meshes_scored": len(cmap.scores), "peaks": len(peaks),
        "percentile_floor": floor,
        "files": ["combined.csv", "peaks.csv"],
    }, out / "combine_summary.json")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    aoi = _setting(args, cfg, "aoi", DEFAULT_AOI, _parse_aoi)
    k_over = _setting(args, cfg, "top_k", {}, _parse_top_k)
    radii = _setting(args, cfg, "radii", DEFAULT_RADII_KM, _parse_radii)
    out = _outdir(args, cfg)
    stations = mio.read_stations_csv(args.stations)
    files: list[str] = []
    k_used: dict[str, int] = {}
    for field in _read_fields(args.fields, aoi):
        k = k_over.get(field.scale_m,
                       DEFAULT_TOP_K.get(field.scale_m, 50))
        k_used[str(field.scale_m)] = k
        sel = top_k(field, k)
        rec = recall_curve(sel, stations, radii)
        name = f"recall_{field.scale_m}m.csv"
        mio.write_recall_csv(rec, out / name)
        files.append(name)
        curves = precision_curve(field, stations, DEFAULT_THRESHOLDS_M,
                                 default_x_values(k))
        for d in DEFAULT_THRESHOLDS_M:
            name = f"precision_{field.scale_m}m_within{int(d)}m.csv"
            mio.write_precision_csv(curves, d, out / name)
            files.append(name)
    mio.write_summary({
        "command": "evaluate", "stations": len(stations),
        "k": k_used, "radii_km": list(radii),
        "thresholds_m": list(DEFAULT_THRESHOLDS_M),
        "files": files,
    }, out / "evaluate_summary.json")
    return 0


def cmd_export(args) -> int:
    cfg = _load_config(args.config)
    aoi = _setting(args, cfg, "aoi", DEFAULT_AOI, _parse_aoi)
    out = _outdir(args, cfg)
    with open(args.table, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
    read, geojson = ((mio.read_combined_csv, mio.combined_geojson)
                     if "score" in header else
                     (mio.read_field_csv, mio.field_geojson))
    table = read(args.table, aoi)
    name = Path(args.table).stem + ".geojson"
    mio.write_geojson(geojson(table), out / name)
    mio.write_summary({
        "command": "export", "source": Path(args.table).name,
        "features": table.col.size, "files": [name],
    }, out / "export_summary.json")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"mdemap: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"mdemap: i/o error: {exc}", file=sys.stderr)
        return 2
    except (MdemapError, UnicodeDecodeError) as exc:
        print(f"mdemap: data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
