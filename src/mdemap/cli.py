"""Command-line pipeline: synth, compute, combine, evaluate, export.

Exit codes: 0 success, 1 usage or configuration error, 2 I/O error,
3 data error (empty inputs, malformed rows, empty fields). Diagnostics
go to stderr. Re-running a command on the same inputs and seed yields
byte-identical files.

Each ``cmd_*`` reads and computes, writing nothing, and returns its output
directory, files (name -> writer of a path), summary and exit code; only
``main`` makes the directory and writes, the summary last. A run that exits
1 or 3 leaves no directory, but ``compute`` with no vectors writes, exits 3.

Precedence for every setting: command-line flag, then --config file
entry (same key, underscores for dashes), then built-in default.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import closing
from functools import partial
from pathlib import Path

import numpy as np

from . import io as mio
from .errors import ConfigError, MdemapError
from .evaluation import (DEFAULT_RADII_KM, DEFAULT_THRESHOLDS_M,
                         DEFAULT_TOP_K, FALLBACK_TOP_K, default_x_values,
                         precision_curve, recall_curve, top_k)
from .field import ALL_TIME, MIN_SAMPLES, TimeWindow, compute_fields
from .fusion import (MODES, PERCENTILE_FLOOR, combine, find_local_peaks,
                     normalize)
from .ingest import (DIRECTIONS, ExtractionStats, FORMATS, MAX_GAP_S,
                     MIN_DISPLACEMENT_M, MovementBatch, _csv_blocks, _number,
                     extract_movements, parse_points, point_blocks,
                     user_groups)
from .mesh import AreaOfInterest, DEFAULT_AOI, STANDARD_SCALES_M
from .synth import SynthConfig, default_sites, generate


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _items(value) -> list:
    """A flag's comma-separated text, or a config file's JSON list."""
    return value if isinstance(value, list) else str(value).split(",")


def _int(value) -> int:
    """``int`` of text or a JSON number, refusing a boolean or a fraction."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _parse_aoi(value) -> AreaOfInterest:
    parts = [_number(p) for p in _items(value)]
    if len(parts) != 4:
        raise ConfigError("--aoi needs lon_min,lon_max,lat_min,lat_max")
    return AreaOfInterest.from_bounds(*parts)


def _parse_scales(value) -> tuple[int, ...]:
    scales = tuple(map(_int, _items(value)))
    if not scales or min(scales) <= 0 or len(set(scales)) != len(scales):
        raise ConfigError("--scales needs distinct positive integers")
    return scales


def _parse_top_k(value) -> dict[int, int]:
    pairs = value if isinstance(value, dict) else dict(
        str(item).split("=") for item in _items(value))
    out = {_int(scale): _int(k) for scale, k in pairs.items()}
    if any(k < 1 for k in out.values()):
        raise ConfigError("--top-k needs scale=K pairs with K >= 1")
    return out


def _parse_radii(value) -> tuple[float, ...]:
    radii = tuple(_number(r) for r in _items(value))
    if not radii or not all(0 < r < math.inf for r in radii):
        raise ConfigError("--radii needs finite positive km values")
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
    """A flag's value, else the config file's non-null entry, else
    ``default``; a given value passes through ``convert``."""
    v = getattr(args, key, None)
    if v is None:
        v = cfg.get(key)
    if v is None or convert is None:
        return default if v is None else v
    try:
        converted = convert(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key} {v!r}: {exc}") from exc
    if isinstance(converted, float) and not math.isfinite(converted):
        raise ConfigError(f"bad {key} {v!r}: not a finite number")
    return converted


# Most time windows one compute run may make, per scale.
MAX_WINDOWS = 100_000


def _windows(spec, t: np.ndarray) -> list[TimeWindow]:
    if spec == "all":
        return [ALL_TIME]
    try:
        width = _number(spec)
    except (TypeError, ValueError):
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


def build_parser() -> _Parser:
    parser = _Parser(prog="mdemap",
                     description="Moving direction entropy mapping toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--aoi", help="lon_min,lon_max,lat_min,lat_max")
        p.add_argument("--out", help="output directory (default .)")
        return p

    p = command("synth", cmd_synth, "generate synthetic points + stations")
    for flag in ("--seed", "--users", "--fixes", "--background-rate",
                 "--sigma"):
        p.add_argument(flag)

    p = command("compute", cmd_compute, "points file -> per-scale MDE fields")
    p.add_argument("points", help="points file (CSV or NDJSON)")
    p.add_argument("--scales", help="comma-separated mesh sizes in m")
    p.add_argument("--window", help="'all' or a window length in seconds")
    for flag in ("--min-displacement", "--max-gap", "--min-samples"):
        p.add_argument(flag)
    p.add_argument("--direction", choices=DIRECTIONS)
    p.add_argument("--format", choices=FORMATS, dest="fmt")
    p.add_argument("--strict", action="store_true", default=None)

    p = command("combine", cmd_combine, "fuse per-scale field CSVs")
    p.add_argument("fields", nargs="+", help="field CSV files to fuse")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--percentile-floor")

    p = command("evaluate", cmd_evaluate,
                "recall/precision of fields vs a station list")
    p.add_argument("fields", nargs="+", help="field CSV files to evaluate")
    p.add_argument("--stations", required=True, help="stations CSV")
    p.add_argument("--top-k", help="scale=K,... overrides")
    p.add_argument("--radii", help="recall radii in km, comma-separated")

    p = command("export", cmd_export, "field/combined CSV -> GeoJSON")
    p.add_argument("table", help="field or combined CSV file")
    p.add_argument("--format", choices=("geojson",), dest="fmt")
    return parser


def _common(args) -> tuple[dict, AreaOfInterest, Path]:
    """A command's config entries, area of interest and output directory."""
    cfg = _load_config(args.config)
    aoi = _setting(args, cfg, "aoi", DEFAULT_AOI, _parse_aoi)
    out = _setting(args, cfg, "out", ".")
    if not isinstance(out, str):
        raise ConfigError(f"bad out {out!r}: not a directory name")
    return cfg, aoi, Path(out)


def cmd_synth(args) -> tuple[Path, dict, dict, int]:
    cfg, aoi, out = _common(args)
    hubs, corridors = default_sites(aoi)
    config = SynthConfig(aoi=aoi, hubs=hubs, corridors=corridors, **{
        name: _setting(args, cfg, key, getattr(SynthConfig, name), convert)
        for key, name, convert in [
            ("users", "n_users", _int), ("fixes", "fixes_per_user", _int),
            ("background_rate", "background_rate", _number),
            ("sigma", "noise_sigma", _number), ("seed", "seed", _int)]})
    points, truth = generate(config)
    return out, {
        "points.csv": partial(mio.write_points_csv, points),
        "stations.csv": partial(mio.write_stations_csv, truth.stations()),
    }, {
        "seed": config.seed, "users": config.n_users,
        "fixes_per_user": config.fixes_per_user, "points": len(points),
        "hubs": len(config.hubs), "corridors": len(config.corridors),
        "background_rate": config.background_rate,
        "noise_sigma": config.noise_sigma,
    }, 0


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


def cmd_compute(args) -> tuple[Path, dict, dict, int]:
    cfg, aoi, out = _common(args)
    scales = _setting(args, cfg, "scales", STANDARD_SCALES_M, _parse_scales)
    window_spec = _setting(args, cfg, "window", "all")
    _windows(window_spec, np.empty(0))      # refuse a bad spec before reading
    min_disp = _setting(args, cfg, "min_displacement", MIN_DISPLACEMENT_M,
                        _number)
    max_gap = _setting(args, cfg, "max_gap", MAX_GAP_S, _number)
    min_samples = _setting(args, cfg, "min_samples", MIN_SAMPLES, _int)
    direction = _setting(args, cfg, "direction", DIRECTIONS[0])
    fmt = _setting(args, cfg, "fmt", FORMATS[0])
    strict = _setting(args, cfg, "strict", False)
    if not isinstance(strict, bool):
        raise ConfigError(f"bad strict {strict!r}: not true or false")

    batch, stats, skipped = _movements(
        args.points, aoi, fmt, strict, min_displacement=min_disp,
        max_gap=max_gap, source=direction)
    windows = _windows(window_spec, batch.t)
    # each out-of-area vector counts once, however many windows there are
    fields, dropped_out_of_area = compute_fields(batch, aoi, scales, windows,
                                                 min_samples)
    writers, files = {}, {}
    for field in fields:
        w = field.window
        name = _window_name(field.scale_m, w)
        writers[name] = partial(mio.write_field_csv, field)
        files[name] = {
            "scale_m": field.scale_m,
            "window": "all" if w == ALL_TIME else [w.start, w.end],
            "meshes": field.count.size,
            "meshes_defined": field.n_defined,
        }
    if not stats.n_vectors:
        print("no movement vectors extracted", file=sys.stderr)
    return out, writers, {
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
    }, 0 if stats.n_vectors else 3


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


def cmd_combine(args) -> tuple[Path, dict, dict, int]:
    cfg, aoi, out = _common(args)
    mode = _setting(args, cfg, "mode", MODES[0])
    floor = _setting(args, cfg, "percentile_floor", PERCENTILE_FLOOR, _number)
    fields = _read_fields(args.fields, aoi)
    layers = [normalize(f) for f in fields]
    base = min(f.scale_m for f in fields)
    cmap = combine(layers, base, mode=mode)
    peaks = find_local_peaks(cmap, percentile_floor=floor)
    return out, {
        "combined.csv": partial(mio.write_combined_csv, cmap),
        "peaks.csv": partial(mio.write_peaks_csv, cmap, peaks),
    }, {
        "mode": mode, "base_scale_m": base,
        "contributing_scales": sorted(f.scale_m for f in fields),
        "meshes_scored": len(cmap.scores), "peaks": len(peaks),
        "percentile_floor": floor,
    }, 0


def cmd_evaluate(args) -> tuple[Path, dict, dict, int]:
    cfg, aoi, out = _common(args)
    k_over = _setting(args, cfg, "top_k", {}, _parse_top_k)
    radii = _setting(args, cfg, "radii", DEFAULT_RADII_KM, _parse_radii)
    stations = mio.read_stations_csv(args.stations)
    files, k_used = {}, {}
    for field in _read_fields(args.fields, aoi):
        k = k_over.get(field.scale_m,
                       DEFAULT_TOP_K.get(field.scale_m, FALLBACK_TOP_K))
        k_used[str(field.scale_m)] = k
        rec = recall_curve(top_k(field, k), stations, radii)
        files[f"recall_{field.scale_m}m.csv"] = partial(mio.write_recall_csv,
                                                        rec)
        curves = precision_curve(field, stations, DEFAULT_THRESHOLDS_M,
                                 default_x_values(k))
        for d in DEFAULT_THRESHOLDS_M:
            name = f"precision_{field.scale_m}m_within{int(d)}m.csv"
            files[name] = partial(mio.write_precision_csv, curves, d)
    return out, files, {
        "stations": len(stations), "k": k_used, "radii_km": list(radii),
        "thresholds_m": list(DEFAULT_THRESHOLDS_M),
    }, 0


def cmd_export(args) -> tuple[Path, dict, dict, int]:
    _, aoi, out = _common(args)
    with open(args.table, "r", encoding="utf-8", newline="") as f:
        header = next(_csv_blocks(f), [])
    read, geojson = ((mio.read_combined_csv, mio.combined_geojson)
                     if "score" in header else
                     (mio.read_field_csv, mio.field_geojson))
    table = read(args.table, aoi)
    name = Path(args.table).stem + ".geojson"
    return out, {name: partial(mio.write_geojson, geojson(table))}, {
        "source": Path(args.table).name, "features": table.col.size}, 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out, files, summary, code = args.func(args)
        out.mkdir(parents=True, exist_ok=True)
        for name, write in files.items():
            write(out / name)
        mio.write_summary({"command": args.command, "files": list(files)}
                          | summary, out / f"{args.command}_summary.json")
        return code
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
