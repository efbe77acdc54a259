"""Streamed `compute` and `synth`: blocks extracted with each user's
carried last fix give the whole-file outputs, whatever the row order, and
neither command's memory grows with the points."""

import contextlib
import csv
import dataclasses
import io
import json
import random
import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from mdemap import (AreaOfInterest, ExtractSettings, ParseSettings, cli,
                    extract_movements, ingest, parse_points, synth)
from mdemap.cli import main
from mdemap.io import write_points_csv

from conftest import points_of

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
    if "compute_summary.json" in files:
        summary = json.loads(files["compute_summary.json"])
        assert sum(r["count"] for r in summary[
            "points_skipped_by_reason"].values()) == summary["points_skipped"]


# A malformed CSV row of each reason a CSV row can have
_MALFORMED = {"empty_user_id": ",{t},35.51,139.31",
              "bad_timestamp": "{u},soon,35.51,139.31",
              "bad_lat": "{u},{t},north,139.31",
              "lat_range": "{u},{t},95,139.31",
              "bad_lon": "{u},{t},35.51",
              "lon_range": "{u},{t},35.51,-200.5"}


def test_skipped_rows_are_counted_by_reason(tmp_path):
    # 5,000 rows, 1% of them malformed at random places
    rows = [(None, f"u{i % 50},{T0 + 60 * (i // 50)},"
                   f"{35.51 + 1e-4 * (i % 17)!r},139.31") for i in range(5000)]
    rng = random.Random(4)
    for k in range(50):
        reason = list(_MALFORMED)[k % len(_MALFORMED)]
        rows.insert(rng.randrange(len(rows) + 1), (reason, _MALFORMED[
            reason].format(u=f"u{k}", t=T0 + k)))
    want = {}
    for line, (reason, _) in enumerate(rows, start=2):
        if reason:
            want.setdefault(reason, []).append(line)
    text = "user_id,timestamp,lat,lon\n" + "\n".join(r for _, r in rows)
    code, _, files, _ = _both_paths(tmp_path, text + "\n", "csv", [], 4096)
    summary = json.loads(files["compute_summary.json"])
    assert code == 0 and summary["points_skipped"] == 50
    assert summary["points_skipped_by_reason"] == {
        reason: {"count": len(lines), "first_lines": lines[:5]}
        for reason, lines in want.items()}


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


def _vectors(batches) -> list[tuple]:
    """The vectors of ``batches`` as a sorted list of rows, every column
    (``user_id`` included) but ``aoi``."""
    names = [f.name for f in dataclasses.fields(ingest.MovementBatch)
             if f.name != "aoi"]
    return sorted(row for b in batches
                  for row in zip(*(getattr(b, n).tolist() for n in names)))


@settings(max_examples=60)
@given(rows=_walks(), fmt=st.sampled_from(["csv", "ndjson"]),
       bad=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 5)),
                    max_size=6),
       layout=st.sampled_from(["users", "time", "shuffled"]),
       shuffle=st.randoms(use_true_random=False),
       cuts=st.lists(st.integers(0, 220), max_size=8),
       direction=st.sampled_from(ingest.DIRECTIONS))
@example(rows=_LATE_USER, fmt="csv", bad=[(2, 0), (14, 3)], layout="time",
         shuffle=None, cuts=[5, 5, 17, 30], direction="consecutive")
def test_carried_blocks_extract_like_one_call(rows, fmt, bad, layout,
                                              shuffle, cuts, direction):
    # the library form of the streamed build: blocks cut anywhere, one
    # carry, and the vectors and counts of one call on every row
    if layout == "time":
        rows = sorted(rows, key=lambda row: row[1])
    elif layout == "shuffled":
        shuffle.shuffle(rows)
    read = ParseSettings(fmt=fmt)
    text = _render(rows, fmt, "seconds", bad)
    lines = text.splitlines(True)
    head = [] if fmt == "ndjson" else [lines.pop(0)]
    edges = [0, *sorted(cuts), len(lines)]
    blocks = [parse_points(io.StringIO("".join(head + lines[lo:hi])), read)
              for lo, hi in zip(edges, edges[1:])]
    aoi = AreaOfInterest.from_bounds(139.3, 139.35, 35.5, 35.53)
    extract = ExtractSettings(direction=direction)
    whole = parse_points(io.StringIO(text), read)
    want, want_stats = extract_movements(whole, aoi, extract)
    assert want_stats.n_skipped == whole.skipped

    carry, batches, last = ingest.Carry(), [], {}
    for block in blocks:
        points = list(zip(block.user_id.tolist(), block.t.tolist()))
        if any(t < last.get(u, t) for u, t in points):
            event("a block goes back in time")
            with pytest.raises(ingest._BackInTime):
                extract_movements(block, aoi, extract, carry)
            return
        batch, stats = extract_movements(block, aoi, extract, carry)
        assert stats is carry.stats
        batches.append(batch)
        for u, t in points:
            last[u] = max(last.get(u, t), t)
    # each block is parsed from a text of its own, so the lines of its
    # refused rows count from that text's header: reasons match by count
    assert _by_count(carry.stats) == _by_count(want_stats)
    assert _vectors(batches) == _vectors([want])


def _by_count(stats: ingest.ExtractionStats) -> ingest.ExtractionStats:
    return dataclasses.replace(stats, skipped_by_reason={
        key: got["count"] for key, got in stats.skipped_by_reason.items()})


def test_a_block_back_in_time_leaves_the_carry_as_it_was(small_aoi):
    first = points_of([("a", 60.0, 35.51, 139.31),
                       ("a", 120.0, 35.511, 139.31),
                       ("b", 60.0, 35.52, 139.32)],
                      refused=[("bad_lat", 5)])
    # new users c and d, b going on, and a row of a before a's carried fix
    late = points_of([("c", 0.0, 35.51, 139.33), ("b", 180.0, 35.521, 139.32),
                      ("a", 90.0, 35.512, 139.31), ("d", 9.0, 35.5, 139.3)],
                     refused=[("bad_lat", 2), ("empty_user_id", 7)])
    after = points_of([("b", 240.0, 35.522, 139.32), ("e", 0.0, 35.5, 139.3),
                       ("a", 180.0, 35.512, 139.31)])
    carry = ingest.Carry()
    extract_movements(first, small_aoi, carry=carry)
    code, ids = list(carry.code.items()), carry.ids.tolist()
    fixes, stats = carry.fixes.copy(), dataclasses.replace(carry.stats)
    with pytest.raises(ingest._BackInTime):
        extract_movements(late, small_aoi, carry=carry)
    assert list(carry.code.items()) == code and carry.ids.tolist() == ids
    assert np.array_equal(carry.fixes, fixes) and carry.stats == stats
    # and it goes on as if the refused block had never come
    batch, got = extract_movements(after, small_aoi, carry=carry)
    fresh = ingest.Carry()
    extract_movements(first, small_aoi, carry=fresh)
    want_batch, want = extract_movements(after, small_aoi, carry=fresh)
    assert got == want and got.n_skipped == 1 and got.n_users == 3
    assert _vectors([batch]) == _vectors([want_batch])


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
