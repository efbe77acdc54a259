"""The bulk mesh-CSV readers against the per-row readers they replaced.

The readers of ``mdemap.io`` check plain blocks of rows in bulk and send
every row the bulk checks refuse to the per-row rule. ``_oracles`` keeps
the per-row readers as they were; here both read the same files, written
by hand and then damaged, and must agree on every outcome.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdemap import MAX_ENTROPY, AreaOfInterest, PointParseError, mesh_centers
from mdemap import ingest, io as mio
from mdemap.io import FIELD_HEADER

import _oracles as oracles

AOI = AreaOfInterest.from_bounds(139.3, 139.35, 35.5, 35.53)
# Cell texts a row may be damaged with: refused by int or float, outside a
# range, accepted with a different text, or an int64 overflow.
ODD_CELLS = ["nan", "-1", str(2**63), str(-2**63), " 5", "5 ", "", "x",
             "inf", "-inf", "1e400", "-0.0", "0", "+7", "1_0", "٥",
             "5.0", " ", "0x5", "4.61", "1e-320"]
KINDS = {"field": (mio.read_field_csv, oracles.read_field_csv,
                   ("count", "entropy")),
         "combined": (mio.read_combined_csv, oracles.read_combined_csv,
                      ("scores",))}


@st.composite
def _tables(draw):
    """(kind, rows of cells with the header first, column order, grid
    shape) of a valid mesh CSV."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    scale = draw(st.sampled_from([100, 1000]))
    ncols, nrows = AOI.grid_shape(scale)
    meshes = draw(st.lists(st.tuples(st.integers(0, ncols - 1),
                                     st.integers(0, nrows - 1)),
                           min_size=1, max_size=30, unique=True))
    rows = []
    for c, r in meshes:
        lat, lon = mesh_centers(scale, c, r, AOI)
        cells = [str(scale), str(c), str(r), repr(float(lat)),
                 repr(float(lon))]
        if kind == "field":
            h = draw(st.none() | st.floats(0.0, MAX_ENTROPY))
            cells += [str(draw(st.integers(0, 10**6))),
                      "" if h is None else repr(h),
                      "" if h is None else repr(h / MAX_ENTROPY)]
        else:
            cells += ["", "", "", repr(draw(st.floats(
                allow_nan=False, allow_infinity=False)))]
        rows.append(cells)
    header = list(FIELD_HEADER) + (["score"] if kind == "combined" else [])
    order = list(range(len(header)))
    if draw(st.booleans()):
        order = draw(st.permutations(order))
    return kind, [header] + rows, order, (ncols, nrows)


_mutations = st.lists(st.tuples(
    st.sampled_from(["cell", "shift", "grid", "scale", "repeat", "short",
                     "long", "quote", "blank", "lf", "cr", "unended"]),
    st.integers(0, 40), st.integers(0, 8), st.sampled_from(ODD_CELLS),
    st.sampled_from([1e-10, -8e-10, 2e-9, 0.1])), max_size=3)


def _damage(rows, mutations, shape):
    """The lines of ``rows`` (header first) after ``mutations``. A named
    column that a shortened row no longer has is left alone."""
    rows = [list(r) for r in rows]
    at = {name: k for k, name in enumerate(rows[0])}
    ends = ["\r\n"] * len(rows)
    blank_after = {}
    for what, i, j, text, delta in mutations:
        i = 1 + i % (len(rows) - 1)         # a data row
        cells = rows[i]
        if what == "cell":
            cells[j % len(cells)] = text
        elif what == "shift":
            k = at[["center_lat", "center_lon"][j % 2]]
            if k < len(cells):
                try:
                    cells[k] = repr(float(cells[k]) + delta)
                except ValueError:
                    cells[k] = text
        elif what == "grid":
            k = at[["col", "row"][j % 2]]
            if k < len(cells):
                cells[k] = str([-1, shape[j % 2]][j // 2 % 2])
        elif what == "scale":
            k = at["scale_m"]
            if k < len(cells):
                cells[k] = ["1000", "100", "0", "-100", "4000"][j % 5]
        elif what == "repeat":
            other = rows[1 + j % (len(rows) - 1)]
            for name in FIELD_HEADER[:5]:
                if at[name] < min(len(cells), len(other)):
                    cells[at[name]] = other[at[name]]
        elif what == "short":
            cells.pop()
        elif what == "long":
            cells.append(text)
        elif what == "quote":
            k = j % len(cells)
            cells[k] = '"' + cells[k] + '"'
        elif what == "blank":
            blank_after[i] = ["\r\n", "\n", "  \r\n"][j % 3]
        elif what == "lf":
            ends = ["\n"] * len(ends) if j % 2 else ends[:i] + ["\n"] + \
                ends[i + 1:]
        elif what == "cr":
            ends[i] = "\r"
        elif what == "unended":
            ends[-1] = ""
    return "".join(",".join(cells) + end + blank_after.get(k, "")
                   for k, (cells, end) in enumerate(zip(rows, ends)))


def _outcome(read, path, values):
    """The scale and the columns a reader gives, as bytes, or the error it
    raises."""
    try:
        table = read(path, AOI)
    except PointParseError as exc:
        return ("refused", str(exc), exc.line_no)
    return ("read", getattr(table, "scale_m", None) or table.base_scale_m,
            *(getattr(table, c).dtype.str + getattr(table, c).tobytes().hex()
              for c in ("col", "row", *values)))


# the one row of a 100 m field, mesh (0, 0) with a count of 0
_ONE_ROW = ["100", "0", "0", "35.50044966080296", "139.3005524336454", "0",
            "", ""]


@settings(max_examples=400)
@given(table=_tables(), mutations=_mutations,
       block=st.sampled_from([48, 200, 1000, 1 << 20]))
@example(table=("field", [list(FIELD_HEADER), ["100", "0", "0", "x", "y",
                                                 "1", "", ""]],
                list(range(8)), AOI.grid_shape(100)), mutations=[],
         block=1 << 20)
# a short row loses its last column, here center_lat, then center_lon,
# before a shift or a repeat names it
@example(table=("field", [list(FIELD_HEADER), _ONE_ROW],
                [0, 1, 2, 4, 5, 6, 7, 3], AOI.grid_shape(100)),
         mutations=[("short", 0, 0, "nan", 1e-10),
                    ("shift", 0, 0, "nan", 1e-10)], block=48)
@example(table=("field", [list(FIELD_HEADER), _ONE_ROW],
                [0, 1, 2, 3, 5, 6, 7, 4], AOI.grid_shape(100)),
         mutations=[("short", 0, 0, "nan", 1e-10),
                    ("repeat", 0, 0, "nan", 1e-10)], block=48)
def test_bulk_readers_agree_with_per_row_readers(tmp_path_factory, table,
                                                 mutations, block):
    kind, rows, order, shape = table
    rows = [[cells[k] for k in order] for cells in rows]
    path = tmp_path_factory.mktemp("readers") / "table.csv"
    path.write_bytes(_damage(rows, mutations, shape).encode())
    bulk, oracle, values = KINDS[kind]
    with mock.patch.object(ingest, "_BLOCK_CHARS", block):
        got = _outcome(bulk, path, values)
    assert got == _outcome(oracle, path, values)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_quoted_mesh_file_takes_the_bulk_checks(tmp_path, kind):
    """Every cell of a mesh file quoted, it reads as its plain copy does, and
    only its first row goes through the per-row rule, which sets the
    scale."""
    scale, (ncols, nrows) = 100, AOI.grid_shape(100)
    rows = [list(FIELD_HEADER) + (["score"] if kind == "combined" else [])]
    for r in range(nrows):
        for c in range(ncols):
            lat, lon = mesh_centers(scale, c, r, AOI)
            h = (c * r) % 7 / 2
            rows.append([str(scale), str(c), str(r), repr(float(lat)),
                         repr(float(lon))] + (
                [str(c + r), repr(h) if h else "", repr(h / MAX_ENTROPY)
                 if h else ""] if kind == "field" else ["", "", "", repr(h)]))
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text("".join(",".join(r) + "\n" for r in rows))
    quoted.write_text("".join(",".join(f'"{c}"' for c in r) + "\n"
                              for r in rows))
    read, _, values = KINDS[kind]
    rule, lines = mio._MeshRows.__call__, []

    def counted(self, rec, line):
        lines.append(line)
        return rule(self, rec, line)

    with mock.patch.object(ingest, "_BLOCK_CHARS", 4096), mock.patch.object(
            mio._MeshRows, "__call__", counted):
        got = _outcome(read, quoted, values)
    assert lines == [2]
    assert got[0] == "read" and got == _outcome(read, plain, values)


def test_block_boundaries_keep_line_numbers(tmp_path):
    """A refused row in the third block is named by its line in the file."""
    scale, (ncols, _) = 100, AOI.grid_shape(100)
    lines = [",".join(FIELD_HEADER)]
    for c in range(ncols):
        lat, lon = mesh_centers(scale, c, 0, AOI)
        lines.append(f"{scale},{c},0,{float(lat)!r},{float(lon)!r},5,1.5,0.3")
    lines[40] = lines[40].replace(",5,1.5,", ",5,nan,")
    path = tmp_path / "field.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    with mock.patch.object(ingest, "_BLOCK_CHARS", 300):
        with pytest.raises(PointParseError, match="^line 41: entropy nan"):
            mio.read_field_csv(path, AOI)


def test_a_first_block_of_blank_lines_reads_as_without_them(tmp_path):
    """Blank lines after the header, read as a block of their own, hold no
    record: the next block's first record sets the scale."""
    scale, (ncols, _) = 100, AOI.grid_shape(100)
    rows = []
    for c in range(ncols):
        lat, lon = mesh_centers(scale, c, 0, AOI)
        rows.append(f"{scale},{c},0,{float(lat)!r},{float(lon)!r},5,1.5,0.3\n")
    head = ",".join(FIELD_HEADER) + "\n"
    plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
    plain.write_text(head + "".join(rows))
    blank.write_text(head + "\n" * 8 + "".join(rows))
    read, _, values = KINDS["field"]
    blocks = []
    split = ingest._plain_block

    def counted(lines, k, line_no):
        blocks.append(lines)
        return split(lines, k, line_no)

    with mock.patch.object(ingest, "_BLOCK_CHARS", 7), mock.patch.object(
            ingest, "_plain_block", counted):
        got = _outcome(read, blank, values)
    assert blocks[0] == ["\n"] * 8
    assert got[0] == "read" and got == _outcome(read, plain, values)


_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


# A NaN with the sign bit and a payload: NaNs of any bit pattern take one text.
_PAYLOAD_NAN = float(np.array([0xFFF8000000000123], np.uint64)
                     .view(np.float64)[0])


def _time_text(t: float) -> str:
    """The points writer's timestamp text: integral times as ints."""
    return str(int(t)) if t.is_integer() else repr(t)


@settings(max_examples=300)
@given(values=st.lists(_floats | st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, _PAYLOAD_NAN, 5e-324, -5e-324,
     2.2250738585072e-308, 1e300, 2.0**53 + 2.0, 0.5]), max_size=60),
       repeat=st.integers(1, 4), nan=st.sampled_from(["nan", "", "null"]))
@example(values=[0.0, -0.0, math.nan, 5e-324, 0.0, -0.0], repeat=3, nan="")
@example(values=[1e300, -0.0, 2.0**53 + 2.0, 0.5, _PAYLOAD_NAN, -math.nan],
         repeat=2, nan="null")
def test_texts_equal_per_value_rule(values, repeat, nan):
    """One text per bit pattern equals the rule applied to each value: repr
    by default, the NaN text given, and the points writer's time text; for
    float32 values too, whose -0.0 keeps its sign."""
    v = np.array(values * repeat, dtype=np.float64)
    got = mio._texts(v)
    assert got.dtype == object and got.tolist() == [repr(x) for x in v.tolist()]
    with np.errstate(over="ignore"):        # 1e300 is inf in float32
        v32 = v.astype(np.float32)
    for text in (repr, _time_text):
        for w in (v, v32):
            assert mio._texts(w, nan, text).tolist() == [
                nan if math.isnan(x) else text(x) for x in w.tolist()]
