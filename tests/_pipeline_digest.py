"""sha256 of every output of a small whole pipeline, for byte-identity
checks between two versions of mdemap.

In a temporary directory: a 2,000-user seed-7 ``synth``; ``compute`` with
``--window all``, with ``--window 3600 --min-samples 5`` and with
``--window 300 --min-samples 5``, on ``points.csv`` as written and on
the same rows stably sorted by time; then ``combine``, ``evaluate`` and
``export`` on each layout's ``all`` fields, and ``export`` of its
``mde_100m.csv``. Last, ``compute --window all`` on two more layouts,
whose outputs must equal the ``as_written`` ones: ``quoted``,
``points.csv`` with its header and every ``user_id`` quoted, as R's
``write.csv`` writes it, and ``ndjson``, its rows as NDJSON read with
``--format ndjson``.
Prints one JSON object: each output file, as ``<layout>/<run>/<name>``,
summaries included, to its sha256. Run it on two checkouts and diff:

    PYTHONPATH=src python tests/_pipeline_digest.py > digests.json

A command that exits other than 0 stops the run, naming it.
"""

import contextlib
import csv
import hashlib
import io
import json
import tempfile
from pathlib import Path

from mdemap.cli import main

COMPUTE = {"all": ["--window", "all"],
           "w3600": ["--window", "3600", "--min-samples", "5"],
           "w300": ["--window", "300", "--min-samples", "5"]}


def run(argv: list[str]) -> None:
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    if code:
        raise SystemExit(f"mdemap {' '.join(argv)}: exit {code}\n"
                         f"{err.getvalue()}")


def sorted_by_time(src: Path, dst: Path) -> None:
    """The rows of ``src`` stably sorted by their (numeric) timestamp."""
    with open(src, encoding="utf-8", newline="") as f:
        header, *rows = f.readlines()
    rows.sort(key=lambda line: float(line.split(",")[1]))
    with open(dst, "w", encoding="utf-8", newline="") as f:
        f.writelines([header, *rows])


def quoted(src: Path, dst: Path) -> None:
    """``src`` with its header and every ``user_id`` (the first column)
    quoted."""
    with open(src, encoding="utf-8", newline="") as f:
        header, *rows = f.readlines()
    with open(dst, "w", encoding="utf-8", newline="") as f:
        names = header.rstrip("\r\n")
        f.write(",".join(f'"{n}"' for n in names.split(","))
                + header[len(names):])
        f.writelines('"{}",{}'.format(*row.split(",", 1)) for row in rows)


def as_ndjson(src: Path, dst: Path) -> None:
    """The rows of ``src`` as NDJSON objects: ``user_id`` as text and every
    other cell, an empty one left out, as a JSON number."""
    with open(src, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    with open(dst, "w", encoding="utf-8", newline="") as f:
        f.writelines(json.dumps({k: v if k == "user_id" else float(v)
                                 for k, v in row.items() if v}) + "\n"
                     for row in rows)


def pipeline(root: Path) -> None:
    run(["synth", "--users", "2000", "--fixes", "20", "--seed", "7",
         "--out", str(root / "synth")])
    sorted_by_time(root / "synth" / "points.csv", root / "time_sorted.csv")
    layouts = {"as_written": root / "synth" / "points.csv",
               "time_sorted": root / "time_sorted.csv"}
    for layout, points in layouts.items():
        for name, flags in COMPUTE.items():
            run(["compute", str(points), *flags,
                 "--out", str(root / layout / name)])
        fields = sorted(map(str, (root / layout / "all").glob("mde_*m.csv")))
        out = root / layout / "all"
        run(["combine", *fields, "--out", str(out / "combine")])
        run(["evaluate", *fields, "--stations",
             str(root / "synth" / "stations.csv"),
             "--out", str(out / "evaluate")])
        run(["export", str(out / "combine" / "combined.csv"),
             "--out", str(out / "export")])
        run(["export", str(out / "mde_100m.csv"),
             "--out", str(out / "export_field")])
    quoted(root / "synth" / "points.csv", root / "quoted.csv")
    as_ndjson(root / "synth" / "points.csv", root / "points.ndjson")
    for layout, flags in (("quoted", [str(root / "quoted.csv")]),
                          ("ndjson", [str(root / "points.ndjson"),
                                      "--format", "ndjson"])):
        out = root / layout / "all"
        run(["compute", *flags, *COMPUTE["all"], "--out", str(out)])
        for path in out.iterdir():
            if path.read_bytes() != (root / "as_written" / "all" /
                                     path.name).read_bytes():
                raise SystemExit(f"{layout}/all/{path.name} differs from "
                                 f"as_written/all/{path.name}")


def digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        pipeline(root)
        return {p.relative_to(root).as_posix():
                hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()}


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
