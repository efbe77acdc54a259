"""Command-line pipeline: synth, compute, combine, evaluate, export.

Exit codes: 0 success, 1 usage or configuration error, 2 I/O error,
3 data error (empty inputs, malformed rows, empty fields, no defined mesh in
any field of ``compute``). Diagnostics go to stderr. Re-running a command on
the same inputs and seed yields byte-identical files.

Each ``cmd_*`` reads and computes, writing nothing, and returns its output
directory, files (name -> writer of a path), summary and exit code; only
``main`` makes the directory and writes, the summary last. A run that exits
1 or 3 leaves no directory, but ``compute`` with no defined mesh (no vector
in the area, or none of its meshes with ``min_samples`` vectors) writes,
exits 3.

Precedence for every setting: command-line flag, then --config file
entry (UTF-8, a byte order mark skipped), then the default of its settings
object; every object is made, and so checked, before any input is opened,
and ``evaluate`` refuses a ``top_k`` scale that none of its fields has
before it reads the stations. A config key is a flag's name with
underscores for dashes (``fmt`` for --format); a key that is no flag of
any command is refused (exit 1), while one file may serve every command.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import closing
from dataclasses import asdict
from functools import partial
from pathlib import Path

from . import io as mio
from .errors import ConfigError, MdemapError
from .evaluation import (DEFAULT_THRESHOLDS_M, EvaluationSettings,
                         precision_curve, recall_curve, top_k)
from .field import ALL_TIME, FieldSettings, compute_fields
from .fusion import (MODES, FusionSettings, combine, find_local_peaks,
                     normalize)
from .ingest import (Carry, DIRECTIONS, ExtractSettings, FORMATS,
                     ParseSettings, _BackInTime, _csv_blocks,
                     _number, extract_movements, parse_points, point_blocks)
from .mesh import AreaOfInterest, DEFAULT_AOI
from .synth import SynthConfig, default_sites, user_blocks


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


def _ints(value) -> tuple[int, ...]:
    return tuple(map(_int, _items(value)))


def _numbers(value) -> tuple[float, ...]:
    return tuple(map(_number, _items(value)))


def _pairs(value) -> tuple[tuple[int, int], ...]:
    """``scale=K,...`` text, or a config file's JSON object, as pairs."""
    pairs = value.items() if isinstance(value, dict) else (
        str(item).split("=") for item in _items(value))
    return tuple((_int(scale), _int(k)) for scale, k in pairs)


def _parse_aoi(value) -> AreaOfInterest:
    parts = _numbers(value)
    if len(parts) != 4:
        raise ConfigError("--aoi needs lon_min,lon_max,lat_min,lat_max")
    return AreaOfInterest.from_bounds(*parts)


def _object(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; a repeated key is
    refused, where ``json`` would keep the last."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} given twice")
        out[key] = value
    return out


def _load_config(path, keys: set[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            cfg = json.load(f, object_pairs_hook=_object)
    except ValueError as exc:       # bad JSON or UTF-8, or a repeated key
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    if unknown := sorted(cfg.keys() - keys):
        raise ConfigError(f"bad config file {path}: no flag has the key "
                          + ", ".join(map(repr, unknown)))
    return cfg


def _setting(args, cfg: dict, key: str, convert=None, default=None):
    """A flag's value, else the config file's non-null entry, else
    ``default``; a given value passes through ``convert``."""
    v = getattr(args, key, None)
    if v is None:
        v = cfg.get(key)
    if v is None or convert is None:
        return default if v is None else v
    try:
        return convert(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key} {v!r}: {exc}") from exc


# SynthConfig fields whose flag and config key are shorter
_KEYS = {"n_users": "users", "fixes_per_user": "fixes",
         "noise_sigma": "sigma"}


def _settings(cls, args, cfg: dict, fixed=None, **convert):
    """A ``cls`` of ``fixed`` and of each field of ``convert`` (field name
    -> converter) that a flag or the config file gives; the other fields
    keep their defaults, and ``cls`` checks every value."""
    given = {name: _setting(args, cfg, _KEYS.get(name, name), f)
             for name, f in convert.items()}
    return cls(**(fixed or {}),
               **{name: v for name, v in given.items() if v is not None})


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
    # a config file may hold the key of any command's flag, but --config's
    parser.set_defaults(config_keys={
        a.dest for c in sub.choices.values() for a in c._actions
        if a.option_strings} - {"help", "config"})
    return parser


def _common(args) -> tuple[dict, AreaOfInterest, Path]:
    """A command's config entries, area of interest and output directory."""
    cfg = _load_config(args.config, args.config_keys)
    aoi = _setting(args, cfg, "aoi", _parse_aoi, DEFAULT_AOI)
    out = _setting(args, cfg, "out", default=".")
    if not isinstance(out, str):
        raise ConfigError(f"bad out {out!r}: not a directory name")
    return cfg, aoi, Path(out)


def cmd_synth(args) -> tuple[Path, dict, dict, int]:
    cfg, aoi, out = _common(args)
    hubs, corridors = default_sites(aoi)
    config = _settings(SynthConfig, args, cfg, dict(
        aoi=aoi, hubs=hubs, corridors=corridors), n_users=_int,
        fixes_per_user=_int, background_rate=_number, noise_sigma=_number,
        seed=_int)
    return out, {
        # users are drawn a block at a time, as the file is written
        "points.csv": partial(mio.write_points_csv, user_blocks(config)),
        "stations.csv": partial(mio.write_stations_csv,
                                config.truth().stations()),
    }, {
        "seed": config.seed, "users": config.n_users,
        "fixes_per_user": config.fixes_per_user,
        "points": config.n_users * config.fixes_per_user,
        "hubs": len(config.hubs), "corridors": len(config.corridors),
        "background_rate": config.background_rate,
        "noise_sigma": config.noise_sigma,
    }, 0


def _fields(path, aoi: AreaOfInterest, read: ParseSettings,
            extract: ExtractSettings, settings: FieldSettings):
    """(fields, stats) of a points file.

    The file is read a block at a time, whatever its row order, and each
    block is extracted with one ``Carry``. If a user's rows go back in
    time across blocks, that build is abandoned and the whole file is read
    as one block; both give the same fields and counts.
    """
    def build(blocks):
        carry = Carry()
        batches = (extract_movements(b, aoi, extract, carry)[0] for b in blocks)
        return compute_fields(batches, aoi, settings), carry.stats

    try:
        with closing(point_blocks(path, read)) as blocks:
            return build(blocks)
    except _BackInTime:
        pass        # the abandoned build is freed before the file is reread
    return build([parse_points(path, read)])


def cmd_compute(args) -> tuple[Path, dict, dict, int]:
    cfg, aoi, out = _common(args)
    extract = _settings(ExtractSettings, args, cfg, min_displacement=_number,
                        max_gap=_number, direction=None)
    settings = _settings(FieldSettings, args, cfg, scales=_ints, window=None,
                         min_samples=_int)
    read = _settings(ParseSettings, args, cfg, fmt=None, strict=None)
    fields, stats = _fields(args.points, aoi, read, extract, settings)
    writers, files = {}, {}
    for field in fields:
        w = field.window        # an integral start keeps its integer form
        start = int(w.start) if w.start.is_integer() else repr(w.start)
        name = f"mde_{field.scale_m}m" + (
            ".csv" if w == ALL_TIME else f"_w{start}.csv")
        writers[name] = partial(mio.write_field_csv, field)
        files[name] = {
            "scale_m": field.scale_m,
            "window": "all" if w == ALL_TIME else [w.start, w.end],
            "meshes": field.count.size,
            "meshes_defined": field.n_defined,
        }
    defined = any(field.n_defined for field in fields)
    if stats.n_vectors == fields[0].dropped_out_of_area:
        print("no movement vectors " + ("inside the area of interest"
              if stats.n_vectors else "extracted"), file=sys.stderr)
    elif not defined:
        print(f"no mesh of any field has min_samples = "
              f"{settings.min_samples} movement vectors", file=sys.stderr)
    return out, writers, {
        "points_read": stats.n_points, "points_skipped": stats.n_skipped,
        "users": stats.n_users, "vectors": stats.n_vectors,
        "dropped": {
            "duplicate": stats.dropped_duplicate, "gap": stats.dropped_gap,
            "short": stats.dropped_short,
            "no_heading": stats.dropped_no_heading,
            # each out-of-area vector counts once, in every field
            "out_of_area": fields[0].dropped_out_of_area,
        },
        "params": {
            "aoi": [aoi.south_west.lon, aoi.north_east.lon,
                    aoi.south_west.lat, aoi.north_east.lat],
            **asdict(extract), **asdict(settings),
        },
        "files": files,
    }, 0 if defined else 3


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
    settings = _settings(FusionSettings, args, cfg, mode=None,
                         percentile_floor=_number)
    fields = _read_fields(args.fields, aoi)
    cmap = combine([normalize(f) for f in fields], settings)
    peaks = find_local_peaks(cmap, settings)
    return out, {
        "combined.csv": partial(mio.write_combined_csv, cmap),
        "peaks.csv": partial(mio.write_peaks_csv, cmap, peaks),
    }, {
        "mode": settings.mode, "base_scale_m": cmap.base_scale_m,
        "contributing_scales": sorted(f.scale_m for f in fields),
        "meshes_scored": len(cmap.scores), "peaks": len(peaks),
        "percentile_floor": settings.percentile_floor,
    }, 0


def cmd_evaluate(args) -> tuple[Path, dict, dict, int]:
    cfg, aoi, out = _common(args)
    settings = _settings(EvaluationSettings, args, cfg, top_k=_pairs,
                         radii=_numbers)
    fields = _read_fields(args.fields, aoi)
    scales = sorted(f.scale_m for f in fields)
    if unused := sorted(dict(settings.top_k).keys() - set(scales)):
        raise ConfigError(f"no field has top_k scales {unused}, only {scales}")
    stations = mio.read_stations_csv(args.stations)
    files, k_used = {}, {}
    for field in fields:
        k = k_used[str(field.scale_m)] = settings.k(field.scale_m)
        sel = top_k(field, k)
        files[f"recall_{field.scale_m}m.csv"] = partial(
            mio.write_recall_csv, recall_curve(sel, stations, settings))
        for curve in precision_curve(sel, stations):
            name = (f"precision_{field.scale_m}m_"
                    f"within{int(curve.threshold_m)}m.csv")
            files[name] = partial(mio.write_precision_csv, curve)
    return out, files, {
        "stations": len(stations), "k": k_used,
        "radii_km": list(settings.radii),
        "thresholds_m": list(DEFAULT_THRESHOLDS_M),
    }, 0


def cmd_export(args) -> tuple[Path, dict, dict, int]:
    _, aoi, out = _common(args)
    with open(args.table, "r", encoding="utf-8-sig", newline="") as f:
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
