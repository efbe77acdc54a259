"""The command-line contract as a property over ``main``.

Tiny points files (CSV or NDJSON, some with a byte order mark; users
inside and outside the area, malformed rows, empty files), stations files
of good and bad ranks, and valid and invalid settings. ``compute`` runs,
then ``combine``, ``evaluate`` and ``export`` on what it wrote, each in
process and in a fresh directory. After every command:

- the exit code is 0, 1, 2 or 3, and a second run gives the same code and
  writes the same bytes;
- exit 1 or 3 leaves no directory, except ``compute`` with no defined mesh
  in any field, which writes;
- whatever a command writes, its summary parses with NaN and infinities
  refused and names every file it wrote;
- after exit 0 of ``compute``, some field has a defined mesh and every
  entropy lies in [0, ln 100]; after exit 0 of ``combine``, every score
  lies in [0, 1].
"""

import contextlib
import io
import json
import math
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from mdemap.cli import main

AOI = "139.3,139.35,35.5,35.53"
T0 = 1_600_000_000
# Where a walk starts: inside the area, or 0.05 degrees south of it.
_STARTS = {"in": (35.515, 139.325), "out": (35.45, 139.325)}
_BAD = {"csv": ["{u},soon,35.51,139.31", "{u},60", "{u},60,95,139.31"],
        "ndjson": ["{{", "[1]", '{{"user_id": "{u}", "timestamp": 60, '
                   '"lat": 95, "lon": 139.31}}']}
# A setting is valid but one time in ten, when it takes its bad value.
_VALID = st.sampled_from([True] * 9 + [False])


def _setting(draw, good: list, bad) -> tuple:
    """(value, whether it is valid) of a setting."""
    valid = draw(_VALID)
    return (draw(st.sampled_from(good)) if valid else bad), valid


@st.composite
def _points(draw) -> tuple[str, str]:
    """(format, text) of a points file of up to four walks."""
    fmt = draw(st.sampled_from(["csv", "ndjson"]))
    place = draw(st.sampled_from(["in", "in", "out", "mixed", "no rows"]))
    iso = draw(st.booleans())
    lines = []
    for k in range(0 if place == "no rows" else draw(st.integers(1, 4))):
        where = draw(st.sampled_from(["in", "out"])) if place == "mixed" \
            else place
        (lat, lon), t = _STARTS[where], T0 + 600 * k
        for _ in range(draw(st.integers(1, 8))):
            stamp = (datetime.fromtimestamp(t, timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ") if iso else t)
            lines.append(json.dumps({"user_id": f"u{k}", "timestamp": stamp,
                                     "lat": lat, "lon": lon})
                         if fmt == "ndjson" else f"u{k},{stamp},{lat},{lon}")
            # 0 s makes a duplicate and 3000 s a gap
            t += draw(st.sampled_from([60, 60, 0, 3000]))
            lat = round(lat + draw(st.sampled_from([-3, 0, 1, 2])) * 1e-4, 6)
            lon = round(lon + draw(st.sampled_from([-2, 0, 1, 3])) * 1e-4, 6)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(_BAD[fmt])).format(u="u0"))
    if fmt == "csv" and draw(st.integers(0, 9)):    # one in ten: no header
        lines.insert(0, "user_id,timestamp,lat,lon")
    return fmt, "".join(line + "\n" for line in lines)


@st.composite
def _runs(draw) -> dict:
    """A points file, a stations file, whether they start with a byte
    order mark, and each command's flags with whether all are valid."""
    fmt, points = draw(_points())
    ranks, _ = _setting(draw, [[1], [2, 1, 3], [3, 1]],
                        draw(st.sampled_from([[], [1, 1], [1, 0]])))
    compute, valid = [], []
    for flag, good, bad in (("--scales", ["100,1000", "1000", "100,150"], "0"),
                            ("--window", ["all", "all", "900"], "-5"),
                            ("--min-samples", ["1", "2", "3"], "0")):
        value, ok = _setting(draw, good, bad)
        compute += [flag, value]
        valid.append(ok)
    # heading mode finds no heading in these files, so no vectors
    compute += ["--direction", draw(st.sampled_from(["consecutive"] * 9
                                                    + ["heading"]))]
    mode, mode_ok = _setting(draw, ["mean", "max"], "median")
    top_k, top_k_ok = _setting(draw, [[], ["--top-k", "100=2"]],
                               ["--top-k", "100=0"])
    return {
        "fmt": fmt, "points": points, "bom": draw(st.booleans()),
        "stations": "name,lat,lon,rank\n" + "".join(
            f"s{i},35.515,{139.32 + 0.001 * i},{r}\n"
            for i, r in enumerate(ranks)),
        "compute": (compute, all(valid)), "combine": (["--mode", mode],
                                                      mode_ok),
        "evaluate": (top_k, top_k_ok),
    }


def _refuse(name):
    raise ValueError(f"{name} in a summary")


def _written(out: Path) -> dict | None:
    return ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
            if out.exists() else None)


def _run(argv: list[str], out: Path, valid: bool = True,
         again: list[str] | None = None) -> tuple[int, dict | None]:
    """Exit code and summary of a command run twice, the second time as
    ``again``, checking the rules every command keeps; ``valid`` tells
    whether its settings are."""
    results = []
    for args, o in ((argv, out), (again or argv,
                                  out.with_name(out.name + "_again"))):
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(args + ["--aoi", AOI, "--out", str(o)])
        results.append((code, _written(o)))
    assert results[0] == results[1]
    code, files = results[0]
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3)
    assert (code == 1) == (not valid)   # exit 1 is for a bad setting
    if files is None:
        assert code != 0
        return code, None
    assert code in (0, 3) and (code == 0 or argv[0] == "compute")
    summary = json.loads(files.pop(f"{argv[0]}_summary.json"),
                         parse_constant=_refuse)
    assert sorted(files) == sorted(summary["files"])
    return code, summary


def _column(path: Path, name: str) -> list[str]:
    header, *rows = path.read_text().splitlines()
    at = header.split(",").index(name)
    return [row.split(",")[at] for row in rows]


def _inputs(root: Path, name: str, text: str, bom: bool) -> list[str]:
    """Paths of ``text`` with a byte order mark if ``bom``, then of it with
    the mark taken away or added."""
    paths = []
    for mark in (bom, not bom):
        path = root / ("bom" if mark else "plain") / name
        path.parent.mkdir(exist_ok=True)
        path.write_text("\ufeff" * mark + text, encoding="utf-8")
        paths.append(str(path))
    return paths


def _check(run: dict, root: Path) -> None:
    points = _inputs(root, "points", run["points"], run["bom"])
    stations = _inputs(root, "stations.csv", run["stations"], run["bom"])
    flags, valid = run["compute"]
    flags = [*flags, "--format", run["fmt"]]
    out = root / "compute"
    code, summary = _run(["compute", points[0], *flags], out, valid,
                         ["compute", points[1], *flags])
    if summary is None:
        return
    entropies = [float(h) for name in summary["files"]
                 for h in _column(out / name, "entropy_nats") if h]
    assert all(0.0 <= h <= math.log(100) for h in entropies)
    # exit 3 with files is the one case of no defined mesh
    assert bool(entropies) == (code == 0)
    assert (code == 0) == any(meta["meshes_defined"]
                              for meta in summary["files"].values())

    per_scale = {}          # a field of each scale
    for name, meta in summary["files"].items():
        per_scale.setdefault(meta["scale_m"], str(out / name))
    fields = list(per_scale.values())
    code, _ = _run(["combine", *fields, *run["combine"][0]],
                   root / "combine", run["combine"][1])
    table = fields[0]
    if code == 0:
        table = root / "combine" / "combined.csv"
        scores = [float(v) for v in _column(table, "score")]
        assert scores and all(0.0 <= v <= 1.0 for v in scores)
    top_k, valid = run["evaluate"]
    # a K for a scale that no field has is a bad setting too, once the
    # fields are read (a field of no mesh is a data error first)
    if valid and top_k and all(summary["files"][Path(f).name]["meshes"]
                               for f in fields):
        valid = 100 in per_scale
    _run(["evaluate", *fields, "--stations", stations[0], *top_k],
         root / "evaluate", valid,
         ["evaluate", *fields, "--stations", stations[1], *top_k])
    _run(["export", str(table)], root / "export")


@settings(max_examples=200)
@given(_runs())
def test_the_cli_contract_holds_on_any_small_input(run):
    with tempfile.TemporaryDirectory() as tmp:
        _check(run, Path(tmp))
