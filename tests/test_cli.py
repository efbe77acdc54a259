"""End-to-end command-line pipeline."""

import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdemap import (ConfigError, DEFAULT_AOI, STANDARD_SCALES_M, SynthConfig,
                    combine, compute_fields, extract_movements,
                    find_local_peaks, mesh_centers)
from mdemap import cli
from mdemap.cli import MAX_WINDOWS, _parse_aoi, _windows, main

AOI = "139.3,140.0,35.5,35.85"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBCOMMANDS = ("synth", "compute", "combine", "evaluate", "export")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> compute run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    assert main(["synth", "--users", "96", "--fixes", "10",
                 "--out", str(root)]) == 0
    assert main(["compute", str(root / "points.csv"), "--aoi", AOI,
                 "--scales", "100,1000", "--out", str(root)]) == 0
    return root


def test_synth_outputs(pipeline):
    lines = (pipeline / "points.csv").read_text().splitlines()
    assert lines[0] == "user_id,timestamp,lat,lon"
    assert len(lines) == 1 + 96 * 10
    stations = (pipeline / "stations.csv").read_text().splitlines()
    assert stations[0] == "name,lat,lon,rank"
    assert len(stations) == 9
    summary = json.loads((pipeline / "synth_summary.json").read_text())
    assert summary["seed"] == 42 and summary["points"] == 960
    assert summary["hubs"] == 8 and summary["corridors"] == 8


def test_compute_outputs(pipeline):
    summary = json.loads((pipeline / "compute_summary.json").read_text())
    assert summary["points_read"] == 960
    assert summary["vectors"] > 0
    assert set(summary["files"]) == {"mde_100m.csv", "mde_1000m.csv"}
    assert summary["files"]["mde_1000m.csv"]["meshes_defined"] >= 8
    head = (pipeline / "mde_100m.csv").read_text().splitlines()[0]
    assert head.startswith("scale_m,col,row")


def test_compute_is_deterministic(pipeline, tmp_path):
    assert main(["compute", str(pipeline / "points.csv"), "--aoi", AOI,
                 "--scales", "100,1000", "--out", str(tmp_path)]) == 0
    for name in ("mde_100m.csv", "mde_1000m.csv", "compute_summary.json"):
        assert (tmp_path / name).read_bytes() == \
            (pipeline / name).read_bytes()


def test_combine_and_peaks(pipeline, tmp_path):
    assert main(["combine", str(pipeline / "mde_100m.csv"),
                 str(pipeline / "mde_1000m.csv"), "--aoi", AOI,
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "combine_summary.json").read_text())
    assert summary["base_scale_m"] == 100
    assert summary["contributing_scales"] == [100, 1000]
    assert summary["mode"] == "mean"
    combined = (tmp_path / "combined.csv").read_text().splitlines()
    assert combined[0].endswith(",score")
    assert len(combined) - 1 == summary["meshes_scored"]
    peaks = (tmp_path / "peaks.csv").read_text().splitlines()
    assert peaks[0] == "scale_m,col,row,center_lat,center_lon,score"
    assert len(peaks) - 1 == summary["peaks"]


def test_evaluate_outputs(pipeline, tmp_path):
    assert main(["evaluate", str(pipeline / "mde_100m.csv"),
                 "--stations", str(pipeline / "stations.csv"),
                 "--aoi", AOI, "--top-k", "100=16",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "evaluate_summary.json").read_text())
    assert summary["k"] == {"100": 16}
    assert summary["thresholds_m"] == [100.0, 300.0, 1000.0, 2000.0]
    recall = (tmp_path / "recall_100m.csv").read_text().splitlines()
    assert recall[0] == "x,value" and len(recall) == 21
    for t in (100, 300, 1000, 2000):
        lines = (tmp_path /
                 f"precision_100m_within{t}m.csv").read_text().splitlines()
        assert lines[0] == "x,value"
        assert [l.split(",")[0] for l in lines[1:]] == ["10", "16"]


def test_export_geojson(pipeline, tmp_path):
    assert main(["export", str(pipeline / "mde_1000m.csv"), "--aoi", AOI,
                 "--out", str(tmp_path)]) == 0
    gj = json.loads((tmp_path / "mde_1000m.geojson").read_text())
    rows = (pipeline / "mde_1000m.csv").read_text().splitlines()
    assert len(gj["features"]) == len(rows) - 1
    ring = gj["features"][0]["geometry"]["coordinates"][0]
    assert len(ring) == 5 and ring[0] == ring[-1]
    summary = json.loads((tmp_path / "export_summary.json").read_text())
    assert summary["features"] == len(gj["features"])


def test_export_detects_combined(pipeline, tmp_path):
    assert main(["combine", str(pipeline / "mde_1000m.csv"), "--aoi", AOI,
                 "--out", str(tmp_path)]) == 0
    assert main(["export", str(tmp_path / "combined.csv"), "--aoi", AOI,
                 "--out", str(tmp_path)]) == 0
    gj = json.loads((tmp_path / "combined.geojson").read_text())
    assert "score" in gj["features"][0]["properties"]


def test_export_reads_a_quoted_header(pipeline, tmp_path):
    assert main(["combine", str(pipeline / "mde_1000m.csv"), "--aoi", AOI,
                 "--out", str(tmp_path)]) == 0
    data = (tmp_path / "combined.csv").read_bytes()
    (tmp_path / "quoted.csv").write_bytes(
        data.replace(b",score\r\n", b',"score"\r\n', 1))
    for name in ("combined", "quoted"):
        assert main(["export", str(tmp_path / f"{name}.csv"), "--aoi", AOI,
                     "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "quoted.geojson").read_bytes()
            == (tmp_path / "combined.geojson").read_bytes())


def test_windowed_compute(pipeline, tmp_path):
    assert main(["compute", str(pipeline / "points.csv"), "--aoi", AOI,
                 "--scales", "1000", "--window", "300",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "compute_summary.json").read_text())
    names = sorted(summary["files"])
    # vector times span +60..+540 s, covered by three aligned 300 s windows
    assert names == ["mde_1000m_w1599999900.csv", "mde_1000m_w1600000200.csv",
                     "mde_1000m_w1600000500.csv"]
    for meta in summary["files"].values():
        assert meta["window"] != "all"
        assert meta["window"][1] - meta["window"][0] == 300.0


def test_config_file_and_precedence(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"aoi": AOI, "scales": "4000", "out": str(tmp_path)}))
    assert main(["compute", str(pipeline / "points.csv"),
                 "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "compute_summary.json").read_text())
    assert summary["params"]["scales"] == [4000]
    # a flag beats the config entry
    assert main(["compute", str(pipeline / "points.csv"),
                 "--config", str(cfg), "--scales", "2000"]) == 0
    summary = json.loads((tmp_path / "compute_summary.json").read_text())
    assert summary["params"]["scales"] == [2000]


def test_exit_codes(tmp_path):
    assert main([]) == 1                                   # no command
    assert main(["frobnicate"]) == 1                       # unknown command
    assert main(["compute", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path)]) == 2             # missing input
    pts = tmp_path / "empty.csv"
    pts.write_text("user_id,timestamp,lat,lon\n")
    assert main(["compute", str(pts), "--out", str(tmp_path)]) == 3
    assert main(["compute", str(pts), "--aoi", "1,2,3",
                 "--out", str(tmp_path)]) == 1             # malformed aoi
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("not json")
    assert main(["synth", "--config", str(bad_cfg),
                 "--out", str(tmp_path)]) == 1


def test_empty_compute_still_writes_summary(tmp_path):
    pts = tmp_path / "empty.csv"
    pts.write_text("user_id,timestamp,lat,lon\n")
    assert main(["compute", str(pts), "--out", str(tmp_path)]) == 3
    summary = json.loads((tmp_path / "compute_summary.json").read_text())
    assert summary["points_read"] == 0 and summary["vectors"] == 0


def test_strict_parse_failure(tmp_path):
    pts = tmp_path / "points.csv"
    pts.write_text("user_id,timestamp,lat,lon\n"
                   "u,0,35.51,139.45\n"
                   "u,60,91.0,139.45\n"
                   "u,120,35.512,139.45\n")
    assert main(["compute", str(pts), "--strict",
                 "--out", str(tmp_path)]) == 3
    # lenient mode skips the bad row and keeps going
    assert main(["compute", str(pts), "--min-samples", "1",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "compute_summary.json").read_text())
    assert summary["points_skipped"] == 1 and summary["vectors"] == 1


def test_console_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mdemap.cli", "synth", "--users", "4",
         "--fixes", "3", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "points.csv").exists()
    # Call the declared entry point the way pip's generated wrapper does:
    # import it, call it with no arguments, exit with its return value.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["mdemap"]
    module, attr = entry.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    help_proc = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                               capture_output=True, text=True)
    assert help_proc.returncode == 0, help_proc.stderr
    assert all(cmd in help_proc.stdout for cmd in SUBCOMMANDS)


def test_benchmark_tracer_finds_every_name():
    # perfbench/tracing.py wraps mdemap functions by name; a renamed one
    # makes install() fail
    root = PYPROJECT.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    install = "import tracing; tracing.Tracer('t').install()"
    proc = subprocess.run([sys.executable, "-c", install],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(shutil.which("mdemap") is None,
                    reason="mdemap console script not installed")
def test_installed_console_script():
    proc = subprocess.run(["mdemap", "--help"], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert all(cmd in proc.stdout for cmd in SUBCOMMANDS)


def _write_points(path, rows):
    path.write_text("user_id,timestamp,lat,lon\n"
                    + "".join(f"{u},{t!r},{lat!r},{lon!r}\n"
                              for u, t, lat, lon in rows))


@pytest.mark.parametrize("window, n_windows", [("all", 1), ("300", 3),
                                               ("60", 9)])
def test_out_of_area_counted_once(tmp_path, window, n_windows):
    # nine 60 s steps ending at +60..+540 s, each walked once inside the
    # area and once 0.2 degrees south of it
    rows = []
    for i in range(1, 10):
        t0 = 1_600_000_000 + 60 * (i - 1)
        for tag, lat in (("in", 35.6), ("out", 35.3)):
            rows += [(f"{tag}{i}", t0, lat, 139.5),
                     (f"{tag}{i}", t0 + 60, lat + 0.001, 139.5)]
    pts = tmp_path / "points.csv"
    _write_points(pts, rows)
    assert main(["compute", str(pts), "--aoi", AOI, "--scales", "1000",
                 "--window", window, "--min-samples", "1",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "compute_summary.json").read_text())
    assert summary["vectors"] == 18
    assert len(summary["files"]) == n_windows
    assert summary["dropped"]["out_of_area"] == 9
    counts = [int(line.split(",")[5]) for name in summary["files"]
              for line in (tmp_path / name).read_text().splitlines()[1:]]
    assert sum(counts) == 9


def test_window_below_timestamp_resolution(tmp_path):
    # half an ulp of 1714953600.0 is 1.2e-7 s, so start + 1e-7 == start
    with pytest.raises(ConfigError, match="float resolution"):
        _windows("1e-7", np.array([1714953600.0, 1714953660.0]))
    # t / width overflows to inf before any window is made
    with pytest.raises(ConfigError, match="too short"):
        _windows("1e-300", np.array([1714953600.0]))
    pts = tmp_path / "points.csv"
    _write_points(pts, [("u", 1714953600, 35.6, 139.5),
                        ("u", 1714953660, 35.601, 139.5)])
    assert main(["compute", str(pts), "--window", "1e-7",
                 "--out", str(tmp_path)]) == 1
    assert not list(tmp_path.glob("mde_*.csv"))


def test_window_count_is_bounded(tmp_path):
    assert len(_windows("1", np.array([0.0, MAX_WINDOWS - 1.0]))) \
        == MAX_WINDOWS
    with pytest.raises(ConfigError, match="MAX_WINDOWS = 100000"):
        _windows("1", np.array([0.0, float(MAX_WINDOWS)]))
    pts = tmp_path / "points.csv"
    _write_points(pts, [("a", 0, 35.6, 139.5), ("a", 60, 35.601, 139.5),
                        ("b", 200_000, 35.6, 139.5),
                        ("b", 200_060, 35.601, 139.5)])
    assert main(["compute", str(pts), "--window", "1",
                 "--out", str(tmp_path)]) == 1
    assert not list(tmp_path.glob("mde_*.csv"))


@pytest.mark.parametrize("spec", ["0", "-5", "inf", "nan", "soon"])
def test_window_spec_must_be_a_positive_length(tmp_path, spec):
    with pytest.raises(ConfigError):
        _windows(spec, np.array([0.0]))


def test_fractional_window_names_are_unique(pipeline, tmp_path):
    assert main(["compute", str(pipeline / "points.csv"), "--aoi", AOI,
                 "--scales", "2000,4000", "--window", "0.5",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "compute_summary.json").read_text())
    # vector times span +60..+540 s: (540 - 60) / 0.5 + 1 windows per scale
    n_windows = 961
    written = sorted(p.name for p in tmp_path.glob("mde_*.csv"))
    assert len(written) == len(summary["files"]) == 2 * n_windows
    assert written == sorted(summary["files"])
    assert "mde_4000m_w1600000060.csv" in written
    assert "mde_4000m_w1600000060.5.csv" in written
    starts = {meta["window"][0] for meta in summary["files"].values()}
    assert len(starts) == n_windows


@pytest.mark.parametrize("row", ["u1", "   "])
def test_rows_without_a_timestamp(tmp_path, capsys, row):
    pts = tmp_path / "points.csv"
    pts.write_text("user_id,timestamp,lat,lon\n"
                   "u,0,35.51,139.45\n"
                   f"{row}\n"
                   "u,60,35.512,139.45\n")
    assert main(["compute", str(pts), "--strict",
                 "--out", str(tmp_path)]) == 3
    assert "line 3: " in capsys.readouterr().err
    assert main(["compute", str(pts), "--min-samples", "1",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "compute_summary.json").read_text())
    assert summary["points_skipped"] == 1 and summary["vectors"] == 1


def test_combine_refuses_nan_entropy(tmp_path, capsys):
    field = tmp_path / "mde_100m.csv"
    lat, lon = (c.tolist() for c in mesh_centers(100, np.arange(3),
                                                 np.zeros(3), DEFAULT_AOI))
    field.write_text("scale_m,col,row,center_lat,center_lon,count,"
                     "entropy_nats,entropy_norm\n"
                     f"100,0,0,{lat[0]!r},{lon[0]!r},40,nan,nan\n"
                     f"100,1,0,{lat[1]!r},{lon[1]!r},40,1.5,0.3\n"
                     f"100,2,0,{lat[2]!r},{lon[2]!r},40,2.5,0.5\n")
    assert main(["combine", str(field), "--out", str(tmp_path)]) == 3
    assert "line 2: entropy nan outside" in capsys.readouterr().err
    assert not (tmp_path / "combined.csv").exists()


def test_inputs_of_one_scale_are_refused(pipeline, tmp_path):
    twin = tmp_path / "mde_100m_copy.csv"
    shutil.copy(pipeline / "mde_100m.csv", twin)
    out = tmp_path / "out"
    assert main(["combine", str(pipeline / "mde_100m.csv"), str(twin),
                 "--aoi", AOI, "--out", str(out)]) == 1
    assert main(["evaluate", str(pipeline / "mde_100m.csv"),
                 str(pipeline / "mde_1000m.csv"), str(twin),
                 "--stations", str(pipeline / "stations.csv"),
                 "--aoi", AOI, "--out", str(out)]) == 1
    assert not list(out.glob("*.csv"))


def test_repeated_meshes_and_mixed_scales_exit_3(pipeline, tmp_path, capsys):
    rows = (pipeline / "mde_1000m.csv").read_text().splitlines(True)
    field = tmp_path / "mde_1000m.csv"
    field.write_text("".join(rows + rows[1:2]))
    assert main(["combine", str(field), "--aoi", AOI,
                 "--out", str(tmp_path)]) == 3
    assert f"line {len(rows) + 1}: repeated mesh" in capsys.readouterr().err
    assert main(["combine", str(pipeline / "mde_100m.csv"),
                 str(pipeline / "mde_1000m.csv"), "--aoi", AOI,
                 "--out", str(tmp_path)]) == 0
    combined = (tmp_path / "combined.csv").read_text().splitlines(True)
    row = combined[1].split(",")
    row[0] = "1000"
    (tmp_path / "combined.csv").write_text(
        "".join(combined + [",".join(row)]))
    assert main(["export", str(tmp_path / "combined.csv"), "--aoi", AOI,
                 "--out", str(tmp_path)]) == 3
    assert f"line {len(combined) + 1}: mixed scales" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["combine", "export"])
@pytest.mark.parametrize("index, value", [
    (1, "-1"), (1, "ncols"), (1, str(10**20)), (2, "nrows")])
def test_meshes_outside_the_grid_exit_3(pipeline, tmp_path, capsys, command,
                                        index, value):
    ncols, nrows = DEFAULT_AOI.grid_shape(1000)
    value = {"ncols": str(ncols), "nrows": str(nrows)}.get(value, value)
    rows = (pipeline / "mde_1000m.csv").read_text().splitlines(True)
    cells = rows[2].split(",")
    cells[index] = value
    field = tmp_path / "mde_1000m.csv"
    field.write_text("".join(rows[:2] + [",".join(cells)] + rows[3:]))
    assert main([command, str(field), "--aoi", AOI,
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "line 3: mesh col" in err and "outside the" in err
    assert not (tmp_path / "out").exists()


# The default area moved 0.1 degrees east: the same size, so every mesh
# of a field written for the default area is inside its grid.
SHIFTED_AOI = "139.4,140.1,35.5,35.85"


@pytest.mark.parametrize("command", ["combine", "evaluate", "export"])
def test_fields_of_another_area_exit_3(pipeline, tmp_path, capsys, command):
    assert DEFAULT_AOI.grid_shape(1000) == _parse_aoi(SHIFTED_AOI).grid_shape(
        1000)
    extra = {"combine": [str(pipeline / "mde_100m.csv")],
             "evaluate": ["--stations", str(pipeline / "stations.csv")],
             "export": []}[command]
    assert main([command, str(pipeline / "mde_1000m.csv"), *extra,
                 "--aoi", SHIFTED_AOI, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    first = (pipeline / "mde_1000m.csv").read_text().splitlines()[1]
    col, row = first.split(",")[1:3]
    lat, lon = mesh_centers(1000, int(col), int(row),
                            _parse_aoi(SHIFTED_AOI))
    assert f"line 2: mesh col {col}, row {row} is centered at" in err
    assert f"puts its center at {float(lat)!r}, {float(lon)!r}" in err
    assert not list(tmp_path.iterdir())


def test_combined_map_of_another_area_exits_3(pipeline, tmp_path):
    assert main(["combine", str(pipeline / "mde_100m.csv"),
                 str(pipeline / "mde_1000m.csv"), "--aoi", AOI,
                 "--out", str(tmp_path)]) == 0
    out = tmp_path / "out"
    assert main(["export", str(tmp_path / "combined.csv"),
                 "--aoi", SHIFTED_AOI, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("command", ["combine", "export"])
def test_count_above_int64_exits_3(pipeline, tmp_path, capsys, command):
    rows = (pipeline / "mde_1000m.csv").read_text().splitlines(True)
    cells = rows[1].split(",")
    cells[5] = str(2**63)
    field = tmp_path / "mde_1000m.csv"
    field.write_text(rows[0] + ",".join(cells))
    assert main([command, str(field), "--aoi", AOI,
                 "--out", str(tmp_path / "out")]) == 3
    assert f"line 2: count {2**63} outside" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config", [
    (["synth", "--aoi", "a,b,c,d"], None),
    (["compute", "points.csv", "--scales", "abc"], None),
    (["compute", "points.csv", "--scales", "100,1.5"], None),
    (["evaluate", "mde_100m.csv", "--stations", "s.csv", "--top-k", "100=x"],
     None),
    (["evaluate", "mde_100m.csv", "--stations", "s.csv", "--radii", "x"],
     None),
    (["synth"], {"users": "many"}),
    (["synth"], {"fixes": [20]}),
    (["synth"], {"seed": float("inf")}),
    # numbers that int() would truncate, and a boolean it reads as 1
    (["compute", "points.csv"], {"scales": [100.9, 1000]}),
    (["compute", "points.csv"], {"min_samples": 2.5}),
    (["synth"], {"users": True, "fixes": 3.9}),
    (["synth"], {"seed": 1.5}),
    (["evaluate", "mde_100m.csv", "--stations", "s.csv"],
     {"top_k": {"100": 2.5}}),
    # booleans that float() reads as 1.0
    (["synth", "--users", "50", "--fixes", "5"], {"sigma": True}),
    (["synth", "--users", "50", "--fixes", "5"], {"background_rate": True}),
    (["compute", "points.csv"], {"aoi": [True, 140.0, 35.5, 35.85]}),
    (["compute", "points.csv"], {"window": True}),
    (["compute", "points.csv"], {"min_displacement": True}),
    (["compute", "points.csv"], {"max_gap": True}),
    (["combine", "mde_100m.csv"], {"percentile_floor": True}),
    (["evaluate", "mde_100m.csv", "--stations", "s.csv"],
     {"radii": [True, 2.0]}),
    # a text that bool() reads as true
    (["compute", "points.csv"], {"strict": "no"})], ids=[
        "aoi", "scales-text", "scales-fraction", "top-k", "radii",
        "config-text", "config-list", "config-infinity",
        "config-scales-fraction", "config-min-samples-fraction",
        "config-users-boolean", "config-seed-fraction",
        "config-top-k-fraction", "config-sigma-boolean",
        "config-background-rate-boolean", "config-aoi-boolean",
        "config-window-boolean", "config-min-displacement-boolean",
        "config-max-gap-boolean", "config-percentile-floor-boolean",
        "config-radii-boolean", "config-strict-text"])
def test_unreadable_settings_are_config_errors(tmp_path, capsys, argv,
                                               config):
    # the setting the message must name
    key = next(iter(config)) if config else \
        argv[-2].lstrip("-").replace("-", "_")
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mdemap: config error: ") and "Traceback" not in err
    assert key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", [5, ["out"], True],
                         ids=["number", "list", "boolean"])
def test_config_out_must_be_text(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": out}))
    assert main(["synth", "--users", "5", "--fixes", "2",
                 "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mdemap: config error: bad out ")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    (tmp_path / "cfg.json").write_bytes(b'{"users": "\xff"}')
    assert main(["synth", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("mdemap: config error: ")


@pytest.mark.parametrize("command", ["compute-csv", "compute-ndjson",
                                     "evaluate", "export"])
def test_input_that_is_not_utf8_is_a_data_error(pipeline, tmp_path, capsys,
                                                command):
    bad = tmp_path / "input"
    if command == "compute-csv":
        bad.write_bytes(b"user_id,timestamp,lat,lon\nu,0,35.51,139.45\n"
                        b"u\xff,60,35.512,139.45\n")
        argv = ["compute", str(bad)]
    elif command == "compute-ndjson":
        bad.write_bytes(b'{"user_id": "u\xff", "timestamp": 0, "lat": 35.51,'
                        b' "lon": 139.45}\n')
        argv = ["compute", str(bad), "--format", "ndjson"]
    elif command == "evaluate":
        bad.write_bytes((pipeline / "stations.csv").read_bytes() + b"\xff\n")
        argv = ["evaluate", str(pipeline / "mde_1000m.csv"),
                "--stations", str(bad)]
    else:
        bad.write_bytes((pipeline / "mde_1000m.csv").read_bytes() + b"\xff\n")
        argv = ["export", str(bad)]
    assert main(argv + ["--aoi", AOI, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("mdemap: data error: ") and "utf-8" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config, setting", [
    (["compute", "{track}", "--max-gap", "nan"], None, "max_gap"),
    (["compute", "{track}", "--max-gap", "inf"], None, "max_gap"),
    (["compute", "{track}", "--min-displacement", "nan"], None,
     "min_displacement"),
    (["compute", "{track}"], {"max_gap": float("nan")}, "max_gap"),
    (["compute", "{track}"], {"max_gap": float("inf")}, "max_gap"),
    (["compute", "{track}"], {"min_displacement": float("nan")},
     "min_displacement"),
    (["synth", "--sigma", "nan", "--users", "50", "--fixes", "5"], None,
     "sigma"),
    (["synth", "--users", "50", "--fixes", "5"], {"sigma": float("nan")},
     "sigma"),
    (["evaluate", "{field}", "--stations", "{stations}", "--radii", "nan,1"],
     None, "radii"),
    (["evaluate", "{field}", "--stations", "{stations}"],
     {"radii": [float("nan"), 1.0]}, "radii")], ids=[
        "max-gap-nan", "max-gap-inf", "min-displacement-nan",
        "config-max-gap-nan", "config-max-gap-inf",
        "config-min-displacement-nan", "sigma-nan", "config-sigma-nan",
        "radii-nan", "config-radii-nan"])
def test_non_finite_settings_are_config_errors(pipeline, tmp_path, capsys,
                                               argv, config, setting):
    # a track each setting would otherwise accept: a 200 m step in 60 s,
    # then a gap of two hours
    track = tmp_path / "track.csv"
    track.write_text("user_id,timestamp,lat,lon\nu1,0,35.51,139.45\n"
                     "u1,60,35.5118,139.45\nu1,7260,35.5136,139.45\n")
    argv = [a.format(track=track, field=pipeline / "mde_1000m.csv",
                     stations=pipeline / "stations.csv") for a in argv]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--aoi", AOI, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mdemap: config error: ") and setting in err
    assert not (tmp_path / "out").exists()


def test_summaries_are_strict_json(pipeline, tmp_path):
    fields = [str(pipeline / "mde_100m.csv"), str(pipeline / "mde_1000m.csv")]
    out = ["--aoi", AOI, "--out", str(tmp_path)]
    assert main(["combine", *fields, *out]) == 0
    assert main(["evaluate", *fields, "--stations",
                 str(pipeline / "stations.csv"), *out]) == 0
    assert main(["export", str(tmp_path / "combined.csv"), *out]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    summaries = [d / f"{command}_summary.json" for d, command in zip(
        [pipeline] * 2 + [tmp_path] * 3, SUBCOMMANDS)]
    for path in summaries:
        assert isinstance(json.loads(path.read_text(), parse_constant=refuse),
                          dict)


def _no_entropy(path, out):
    """A copy of a field file with every mesh undefined."""
    rows = path.read_text().splitlines(True)
    out.write_text(rows[0] + "".join(
        ",".join(r.split(",")[:6] + ["", "\n"]) for r in rows[1:]))
    return out


@pytest.mark.parametrize("argv, config, code", [
    (["combine", "{f100}", "--percentile-floor", "150"], None, 1),
    (["evaluate", "{f100}", "{undefined}", "--stations", "{stations}"],
     None, 3),
    (["compute", "{points}"], {"direction": "west"}, 1),
    (["compute", "{points}"], {"fmt": "tsv"}, 1),
    (["combine", "{f100}"], {"mode": "median"}, 1),
    (["compute", "{points}", "--min-samples", "0"], None, 1),
    (["compute", "{points}", "--max-gap", "0"], None, 1)], ids=[
        "combine-percentile-floor", "evaluate-undefined-field",
        "config-direction", "config-fmt", "config-mode", "min-samples-0",
        "max-gap-0"])
def test_failed_runs_write_nothing(pipeline, tmp_path, capsys, argv, config,
                                   code):
    undefined = _no_entropy(pipeline / "mde_1000m.csv",
                            tmp_path / "mde_1000m.csv")
    argv = [a.format(f100=pipeline / "mde_100m.csv", undefined=undefined,
                     points=pipeline / "points.csv",
                     stations=pipeline / "stations.csv") for a in argv]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--aoi", AOI, "--out", str(tmp_path / "out")]) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compute_without_vectors_writes_and_exits_3(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    _write_points(pts, [("a", 0, 35.6, 139.5), ("b", 0, 35.6, 139.5)])
    assert main(["compute", str(pts), "--aoi", AOI, "--scales", "100,1000",
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "no movement vectors extracted\n"
    summary = json.loads((tmp_path / "out" / "compute_summary.json")
                         .read_text())
    assert summary["points_read"] == 2 and summary["vectors"] == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "compute_summary.json", "mde_1000m.csv", "mde_100m.csv"]


# Longer than the csv module's default field size limit.
HUGE = "x" * 140_000


@pytest.mark.parametrize("command, line", [
    ("compute", 3), ("combine", 3), ("evaluate", 10), ("export", 1)])
def test_cells_over_the_csv_field_limit_are_data_errors(
        pipeline, tmp_path, capsys, command, line):
    bad = tmp_path / "input.csv"
    if command == "compute":
        _write_points(bad, [("u", 0, 35.6, 139.5), (HUGE, 60, 35.6, 139.5)])
        argv = ["compute", str(bad)]
    elif command == "evaluate":
        bad.write_text((pipeline / "stations.csv").read_text() + HUGE + "\n")
        argv = ["evaluate", str(pipeline / "mde_1000m.csv"),
                "--stations", str(bad)]
    else:
        rows = (pipeline / "mde_1000m.csv").read_text().splitlines(True)
        at = line - 1
        rows[at] = HUGE + "," + rows[at]
        bad.write_text("".join(rows))
        argv = [command, str(bad)]
    assert main(argv + ["--aoi", AOI, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"mdemap: data error: line {line}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_default_settings_are_the_library_defaults(pipeline, tmp_path,
                                                   monkeypatch):
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    # the default city, shrunk after its settings are read
    real = cli.generate
    monkeypatch.setattr(cli, "generate", lambda config: real(
        dataclasses.replace(config, n_users=4, fixes_per_user=2)))
    assert main(["synth", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "synth_summary.json").read_text())
    assert (summary["users"], summary["fixes_per_user"], summary["seed"],
            summary["background_rate"], summary["noise_sigma"]) == (
        SynthConfig.n_users, SynthConfig.fixes_per_user, SynthConfig.seed,
        SynthConfig.background_rate, SynthConfig.noise_sigma)

    assert main(["compute", str(pipeline / "points.csv"),
                 "--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / "compute_summary.json").read_text())[
        "params"]
    assert params == dict(
        params, scales=list(STANDARD_SCALES_M), window="all",
        min_displacement=default(extract_movements, "min_displacement"),
        max_gap=default(extract_movements, "max_gap"),
        direction=default(extract_movements, "source"),
        min_samples=default(compute_fields, "min_samples"))

    assert main(["combine", str(pipeline / "mde_100m.csv"), "--aoi", AOI,
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "combine_summary.json").read_text())
    assert summary["mode"] == default(combine, "mode")
    assert summary["percentile_floor"] == default(find_local_peaks,
                                                  "percentile_floor")
