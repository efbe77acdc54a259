"""Streamed `compute` and `synth`: blocks extracted with each user's
carried last fix give the whole-file outputs, whatever the row order, and
neither command's memory grows with the points."""

import contextlib
import csv
import io
import json
import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

from mdemap import cli, ingest, parse_points, synth
from mdemap.cli import main
from mdemap.io import write_points_csv

AOI = "139.3,139.35,35.5,35.53"
T0 = 1_600_000_000
_STEPS = st.sampled_from([0.0, 0.0001, -0.0002, 0.0005, -0.0008, 0.02])
_BAD = {"csv": ["{u},soon,35.51,139.31", "{u},60", ",60,35.51,139.31",
                "{u},60,95,139.31", "", "   "],
        "ndjson": ["{{", '{{"user_id": "{u}", "timestamp": null}}', "[1]",
                   "", '{{"user_id": "{u}", "timestamp": 60, "lat": 95, '
                   '"lon": 139.31}}']}


def _stamp(t: int, form: str) -> str | int:
    if form == "seconds":
        return t
    d = datetime.fromtimestamp(t, timezone.utc)
    if form == "Z":
        return d.strftime("%Y-%m-%dT%H:%M:%SZ")
    return (d + timedelta(hours=9)).strftime("%Y-%m-%dT%H:%M:%S+09:00")


@st.composite
def _walks(draw):
    """Each user's fixes as (user, t, lat, lon), users in ascending order;
    steps of 0 s are duplicates and steps past 1800 s gaps."""
    users = sorted(draw(st.sets(st.text("ab,", min_size=1, max_size=3),
                                min_size=1, max_size=5)))
    rows = []
    for u in users:
        t = T0 + draw(st.integers(0, 3000))
        lat = draw(st.floats(35.505, 35.525))
        lon = draw(st.floats(139.305, 139.345))
        for _ in range(draw(st.integers(0, 40))):
            rows.append((u, t, lat, lon))
            t += draw(st.sampled_from([0, 30, 60, 61, 2000]))
            lat += draw(_STEPS)
            lon += draw(_STEPS)
    return rows


def _render(rows, fmt: str, form: str, bad) -> str:
    """A points file of ``rows``; ``bad`` holds (position, kind) of the
    malformed lines put between them."""
    lines = []
    for u, t, lat, lon in rows:
        if fmt == "ndjson":
            lines.append(json.dumps({"user_id": u, "timestamp": _stamp(t, form),
                                     "lat": lat, "lon": lon}))
        else:
            text = io.StringIO()
            csv.writer(text, lineterminator="").writerow(
                (u, _stamp(t, form), repr(lat), repr(lon)))
            lines.append(text.getvalue())
    for at, kind in sorted(bad, reverse=True):
        user = rows[min(at, len(rows) - 1)][0] if rows else "u"
        kinds = _BAD[fmt]
        lines.insert(min(at, len(lines)),
                     kinds[kind % len(kinds)].format(u=user))
    head = [] if fmt == "ndjson" else ["user_id,timestamp,lat,lon"]
    return "\n".join(head + lines) + "\n"


def _compute(path, out, flags, whole=False):
    """(exit code, stderr, output files, whether the file was read whole)."""
    err = io.StringIO()
    skip_streaming = (mock.patch.object(cli, "point_blocks",
                                        side_effect=ingest._BackInTime)
                      if whole else contextlib.nullcontext())
    with skip_streaming, contextlib.redirect_stderr(err), mock.patch.object(
            cli, "parse_points", wraps=parse_points) as read_whole:
        code = main(["compute", str(path), "--aoi", AOI, "--scales",
                     "100,1000", "--min-samples", "2", "--out", str(out),
                     *flags])
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
    return code, err.getvalue(), files, read_whole.called


def _both_paths(tmp, text, fmt, flags, block):
    path = tmp / f"points.{fmt}"
    path.write_text(text, encoding="utf-8", newline="")
    flags = [*flags, "--format", fmt]
    with mock.patch.object(ingest, "_BLOCK_CHARS", block):
        streamed = _compute(path, tmp / "streamed", flags)
        whole = _compute(path, tmp / "whole", flags, whole=True)
    assert whole[3]
    assert streamed[:3] == whole[:3]
    return streamed


# One user of 40 fixes spans many 60-character blocks; the malformed
# lines sit on block edges.
_LONG_WALK = [("a", T0 + 60 * i, 35.51 + 0.0005 * i, 139.31) for i in range(40)]
# Users b, c, d and a, each of 12 fixes: out of id order, they stream.
_LATE_USER = [(u, T0 + 60 * i, 35.51 + 0.0004 * i, 139.31 + 0.001 * k)
              for k, u in enumerate("bcda") for i in range(12)]
# Then one fix of b earlier than b's last: with malformed lines among the
# rows, the streamed build reads many blocks before it falls back.
_BACK_IN_TIME = _LATE_USER + [("b", T0 + 90, 35.515, 139.3)]


def _times_never_decrease(rows) -> bool:
    """Whether each user's times never decrease in file order: then no
    block goes back before a carried fix, and the file streams."""
    last = {}
    for u, t, *_ in rows:
        if t < last.setdefault(u, t):
            return False
        last[u] = t
    return True


@settings(max_examples=50)
@given(rows=_walks(), fmt=st.sampled_from(["csv", "ndjson"]),
       form=st.sampled_from(["seconds", "Z", "+09:00"]),
       bad=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 5)),
                    max_size=6),
       window=st.sampled_from([None, "900", "1234.5"]),
       strict=st.booleans(), shuffle=st.randoms(use_true_random=False),
       layout=st.sampled_from(["users", "time", "shuffled"]),
       block=st.integers(40, 400))
@example(rows=_LONG_WALK, fmt="csv", form="Z", bad=[(3, 0), (17, 2)],
         window=None, strict=False, shuffle=None, layout="users", block=60)
@example(rows=_LONG_WALK, fmt="csv", form="seconds", bad=[(17, 3)],
         window="900", strict=True, shuffle=None, layout="users", block=60)
@example(rows=_LONG_WALK + [("b", T0, 35.52, 139.32)] * 3, fmt="ndjson",
         form="+09:00", bad=[(40, 1)], window=None, strict=False,
         shuffle=None, layout="time", block=60)
@example(rows=_LATE_USER, fmt="csv", form="seconds",
         bad=[(2, 0), (5, 3), (14, 1), (20, 2), (27, 0), (30, 3)],
         window=None, strict=False, shuffle=None, layout="time", block=60)
@example(rows=_LATE_USER, fmt="ndjson", form="Z", bad=[(3, 0), (16, 4)],
         window="900", strict=False, shuffle=None, layout="users", block=60)
@example(rows=_BACK_IN_TIME, fmt="csv", form="seconds",
         bad=[(2, 0), (5, 3), (14, 1), (20, 2), (27, 0), (30, 3)],
         window=None, strict=False, shuffle=None, layout="users", block=60)
@example(rows=_BACK_IN_TIME, fmt="ndjson", form="Z", bad=[(3, 0), (16, 4)],
         window="900", strict=False, shuffle=None, layout="users", block=60)
def test_streamed_compute_equals_whole_file(tmp_path_factory, rows, fmt,
                                            form, bad, window, strict,
                                            shuffle, layout, block):
    if layout == "time":        # users interleave; a user's rows keep order
        rows = sorted(rows, key=lambda row: row[1])
    elif layout == "shuffled":
        shuffle.shuffle(rows)
    flags = (["--window", window] if window else []) + (
        ["--strict"] if strict else [])
    code, err, files, read_whole = _both_paths(
        tmp_path_factory.mktemp("stream"), _render(rows, fmt, form, bad),
        fmt, flags, block)
    event(f"{layout}: exit {code}, "
          f"{'whole file' if read_whole else 'streamed'}")
    if _times_never_decrease(rows):
        assert not read_whole
    kinds = _BAD[fmt]
    if strict and any(kinds[k % len(kinds)] for _, k in bad):
        assert code == 3 and "line " in err


def test_rows_back_in_time_read_the_whole_file(tmp_path):
    # users b then a stream; one fix of b, earlier than b's last and two
    # blocks after it, makes the whole file be read
    rows = ([("b", T0 + 60 * i, 35.51 + 0.0005 * i, 139.31) for i in range(30)]
            + [("a", T0 + 60 * i, 35.52, 139.31 + 0.0005 * i)
               for i in range(30)])
    text = _render(rows, "csv", "seconds", [])
    code, _, files, read_whole = _both_paths(tmp_path, text, "csv", [], 200)
    assert code == 0 and not read_whole
    summary = json.loads(files["compute_summary.json"])
    assert summary["users"] == 2 and summary["vectors"] == 58
    late = _render(rows + [("b", T0 + 90, 35.5107, 139.31)], "csv",
                   "seconds", [])
    (tmp_path / "late").mkdir()
    code, _, files, read_whole = _both_paths(tmp_path / "late", late, "csv",
                                             [], 200)
    assert code == 0 and read_whole
    summary = json.loads(files["compute_summary.json"])
    assert summary["users"] == 2 and summary["vectors"] == 59


def test_heading_direction_streams_too(tmp_path):
    rows = [f"{u},{T0 + 60 * i},{35.51 + 0.0003 * i!r},139.31,"
            f"{'' if i % 7 == 3 else repr(0.1 * i)},{i % 4}"
            for u in ("a", "b", "c") for i in range(25)]
    rows.insert(30, "b,60,north,139.31,,")      # malformed
    text = "user_id,timestamp,lat,lon,heading,speed\n" + "\n".join(rows)
    code, _, files, read_whole = _both_paths(
        tmp_path, text + "\n", "csv", ["--direction", "heading"], 120)
    assert code == 0 and not read_whole
    summary = json.loads(files["compute_summary.json"])
    assert summary["points_skipped"] == 1 and summary["vectors"] > 0


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def cities(tmp_path_factory):
    """Synthetic cities of 2,000 and 8,000 users, 20 fixes each, as
    written (user by user) and stably sorted by time."""
    root = tmp_path_factory.mktemp("cities")
    for users in (2000, 8000):
        out = root / str(users)
        assert main(["synth", "--users", str(users), "--seed", "3",
                     "--out", str(out)]) == 0
        head, *lines = (out / "points.csv").read_text().splitlines(True)
        lines.sort(key=lambda line: float(line.split(",")[1]))
        (out / "by_time.csv").write_text(head + "".join(lines))
    return root


def test_compute_memory_grows_by_the_meshes_not_the_vectors(cities):
    # whole-file reading grew by about 281 B per point, and keeping six
    # float64 columns per vector by about 43; block-by-block field
    # accumulation keeps counts per (window, mesh, bin) and each user's
    # last fix, about 14 B per point as written and 16 sorted by time, and
    # with four 300 s windows (the cities span 1,140 s) about 24 and 17
    for name in ("points.csv", "by_time.csv"):
        for window, bound in (("all", 20), ("300", 30)):
            with mock.patch.object(cli, "parse_points",
                                   side_effect=AssertionError("read whole")):
                peaks = {users: _peak(lambda: main([
                    "compute", str(cities / str(users) / name),
                    "--window", window, "--out", str(cities / str(users))]))
                    for users in (2000, 8000)}
            per_point = (peaks[8000] - peaks[2000]) / ((8000 - 2000) * 20)
            assert per_point <= bound, (name, window, per_point)


def test_synth_memory_does_not_grow(tmp_path):
    # drawing every user at once grew by about 100 B per point; blocks of
    # users are drawn and written one at a time
    peaks = {users: _peak(lambda: main([
        "synth", "--users", str(users), "--seed", "3",
        "--out", str(tmp_path / str(users))])) for users in (2000, 8000)}
    per_point = (peaks[8000] - peaks[2000]) / ((8000 - 2000) * 20)
    assert per_point <= 10


def test_points_writer_memory_does_not_grow(tmp_path):
    peaks = {}
    for users in (2000, 8000):
        hubs, corridors = synth.default_sites()
        points, _ = synth.generate(synth.SynthConfig(
            n_users=users, hubs=hubs, corridors=corridors, seed=3))
        peaks[users] = _peak(lambda: write_points_csv(
            [points], tmp_path / "points.csv"))
    per_point = (peaks[8000] - peaks[2000]) / ((8000 - 2000) * 20)
    assert per_point <= 10
