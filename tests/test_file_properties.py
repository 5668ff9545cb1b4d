"""Property tests of the output files: the final_fields.snap text and the
timeseries.csv round trip, single-line corruption of the CSV, the block
writers against per-value formatting, the block reader against the
whole-text reference reader, and the memory the CSV layer holds."""
import math
import os
import tempfile
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_read_timeseries
from revreact import cli
from revreact.cli import CSV_HEADER, _csv_blocks, _fmt, read_timeseries, write_snapshot
from revreact.errors import RevReactError
from revreact.functionals import CSV_COLUMNS
from revreact.grid import SpeciesFields

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def snapshots(draw):
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim)))
    lengths = tuple(draw(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                                  min_size=dim, max_size=dim)))
    n = math.prod(cells)
    species = [np.array(draw(st.lists(positive, min_size=n, max_size=n))).reshape(cells)
               for _ in range(3)]
    return SimpleNamespace(dim=dim, cells=cells, lengths=lengths), SpeciesFields(*species)


def csv_text(rows):
    """timeseries.csv text of rows of CSV_COLUMNS values, written as cmd_run writes it."""
    values = np.array(rows, dtype=float).reshape(-1, len(CSV_COLUMNS))
    return b"".join(_csv_blocks(dict(zip(CSV_COLUMNS, values.T)))).decode()


csv_row = st.lists(finite, min_size=len(CSV_COLUMNS), max_size=len(CSV_COLUMNS))
csv_rows = st.lists(csv_row, min_size=1, max_size=5)


def snapshot_text(snap) -> str:
    """The final_fields.snap text write_snapshot writes for snap."""
    meta, fields = snap
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "final_fields.snap")
        write_snapshot(path, meta, fields)
        with open(path) as fh:
            return fh.read()


def read_bytes(reader, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        with open(path, "wb") as fh:
            fh.write(data)
        return reader(path)


@settings(max_examples=200, deadline=None)
@given(snapshots())
def test_snapshot_round_trip(snap):
    meta, fields = snap
    header, *rows = snapshot_text(snap).splitlines()
    toks = header.split()
    assert int(toks[0]) == meta.dim
    assert tuple(map(int, toks[1:1 + meta.dim])) == meta.cells
    assert tuple(map(float, toks[1 + meta.dim:])) == meta.lengths
    values = [[float(tok) for tok in row.split()] for row in rows]
    assert values == [[a, b, c] for a, b, c in
                      zip(fields.a.ravel(), fields.b.ravel(), fields.c.ravel())]


@settings(max_examples=200, deadline=None)
@given(csv_rows)
def test_csv_round_trip(rows):
    cols = read_bytes(read_timeseries, csv_text(rows).encode())
    assert list(cols) == list(CSV_COLUMNS)
    for j, name in enumerate(CSV_COLUMNS):
        assert np.array_equal(cols[name], [row[j] for row in rows])


#: tokens no CSV cell or header name accepts
CSV_BAD = ("", "x", "nan", "inf", "-inf", "1e400")


def corrupt(draw, lines, sep, bad, whole_line_ok):
    """lines with one line corrupted; whole-line drops and duplicates only
    where whole_line_ok(i) says they make the file invalid."""
    i = draw(st.integers(0, len(lines) - 1))
    kinds = ["token", "extra", "binary"] + (["drop", "duplicate"] if whole_line_ok(i) else [])
    kind = draw(st.sampled_from(kinds))
    out = [line.encode() for line in lines]
    toks = lines[i].split(sep)
    if kind == "drop":
        del out[i]
    elif kind == "duplicate":
        out.insert(i, out[i])
    elif kind == "binary":
        out[i] = b"\xff\xfe"
    elif kind == "extra":
        out[i] = sep.join(toks + ["1.5"]).encode()
    else:
        j = draw(st.integers(0, len(toks) - 1))
        toks[j] = draw(st.sampled_from(bad))
        out[i] = sep.join(toks).encode()
    return b"\n".join(out) + b"\n"


@settings(max_examples=500, deadline=None)
@given(csv_rows, st.data())
def test_csv_single_line_corruption_raises(rows, data):
    # a dropped or repeated data row is still a well-formed file
    lines = csv_text(rows).splitlines()
    corrupted = corrupt(data.draw, lines, ",", CSV_BAD, lambda i: i == 0)
    with pytest.raises(RevReactError):
        read_bytes(read_timeseries, corrupted)


@settings(max_examples=300, deadline=None)
@given(csv_rows, st.data())
def test_arbitrary_line_never_escapes_as_another_error(rows, data):
    lines = csv_text(rows).splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = data.draw(st.text(max_size=40))
    try:
        read_bytes(read_timeseries, ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))
    except RevReactError:
        pass


#: block lengths that split a few rows into several blocks
block_lines = st.integers(1, 4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])),
    min_size=len(CSV_COLUMNS), max_size=len(CSV_COLUMNS)), max_size=9), block_lines)
def test_csv_blocks_format_every_value_as_fmt(rows, lines):
    with mock.patch.object(cli, "BLOCK_LINES", lines):
        text = csv_text(rows)
    assert text == "".join([CSV_HEADER + "\n"] + [",".join(map(_fmt, row)) + "\n" for row in rows])


@settings(max_examples=100, deadline=None)
@given(snapshots(), block_lines)
def test_snapshot_blocks_format_every_value_as_fmt(snap, lines):
    meta, fields = snap
    with mock.patch.object(cli, "BLOCK_LINES", lines):
        text = snapshot_text(snap)
    header = " ".join([str(meta.dim), *map(str, meta.cells), *map(_fmt, meta.lengths)])
    assert text == "".join([header + "\n"] + [
        f"{_fmt(a)} {_fmt(b)} {_fmt(c)}\n"
        for a, b, c in zip(fields.a.ravel(), fields.b.ravel(), fields.c.ravel())])


#: line breaks that str.splitlines splits at and iterating a file does not
SPLITLINES_ONLY = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

#: text inserted into a CSV: those breaks, the ones file iteration splits
#: at too, and characters around which float() accepts or rejects a number
CSV_INSERTS = SPLITLINES_ONLY + ("\r", "\r\n", "\n", ",", " ", "\x00", "_", "\u0661", "e")

#: tokens that replace part of a CSV: numbers float() accepts in unusual
#: spellings, non-finite ones, and malformed ones
CSV_TOKENS = ("", "x", "nan", "inf", "-inf", "1e400", "0x10", "1_0", "1__0", " 1.5 ",
              "\u0661\u0662", "\u20031.5", "1e", "infinity", "nan(1)")

#: bytes that are not UTF-8 text: an invalid byte, a truncated sequence
NOT_UTF8 = (b"\xff", b"\xe2\x82", b"\xc3")


@st.composite
def csv_files(draw):
    """The bytes of a written CSV of 0 to 12 rows with up to three edits:
    text inserted, replaced by a token or deleted, then possibly one run of
    bytes that are not UTF-8 inserted."""
    text = csv_text(draw(st.lists(csv_row, max_size=12)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "token", "delete"]))
        if kind == "insert":
            text = text[:i] + draw(st.sampled_from(CSV_INSERTS)) + text[i:]
        elif kind == "token":
            j = draw(st.integers(i, min(i + 25, len(text))))
            text = text[:i] + draw(st.sampled_from(CSV_TOKENS)) + text[j:]
        else:
            text = text[:i] + text[i + 1:]
    data = text.encode()
    if draw(st.booleans()) and draw(st.booleans()):
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(st.sampled_from(NOT_UTF8)) + data[i:]
    return data


def outcome(reader, path):
    """What reader makes of the file at path: its columns, bit for bit, or
    the class, message and line number of the error it raises."""
    try:
        cols = reader(path)
    except RevReactError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return [(name, column.tobytes()) for name, column in cols.items()]


def same_outcome(data: bytes):
    """The outcome of read_timeseries on a file of data, asserted equal to
    that of the whole-text reference reader."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "timeseries.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        got = outcome(read_timeseries, path)
        assert got == outcome(reference_read_timeseries, path)
    return got


@settings(max_examples=300, deadline=None)
@given(csv_files(), block_lines)
def test_block_reader_agrees_with_the_whole_text_reader(data, lines):
    with mock.patch.object(cli, "BLOCK_LINES", lines):
        same_outcome(data)


@pytest.mark.parametrize("brk", SPLITLINES_ONLY)
@pytest.mark.parametrize("where", ["row_end", "mid_row"])
def test_splitlines_breaks_split_rows_as_the_whole_text_reader_does(brk, where):
    # a break at the end of row 2 leaves an empty line 4; one inside row 2
    # splits it into lines 3 and 4: a column-count error either way
    lines = csv_text([[1.5] * len(CSV_COLUMNS)] * 3).splitlines(keepends=True)
    row = lines[2]
    lines[2] = row[:-1] + brk + "\n" if where == "row_end" else row[:40] + brk + row[40:]
    kind, message, line = same_outcome("".join(lines).encode())
    assert (kind, line) == ("ParseError", 4 if where == "row_end" else 3)


def corrupt_line(line: str, bad: str) -> str:
    """A CSV data line made bad: a malformed token, one column too many, a
    NaN, or a splitlines break in place of its first comma."""
    if bad == "token":
        return "x" + line
    if bad == "columns":
        return "1," + line
    if bad == "nan":
        return "nan" + line[line.index(","):]
    return line.replace(",", "\x1c", 1)


@pytest.mark.parametrize("early", [None, "nan", "token"])
@pytest.mark.parametrize("bad", ["token", "columns", "nan", "break", "not_utf8"])
def test_a_bad_line_after_the_first_block(bad, early):
    # line 2 + BLOCK_LINES + 40 is in the second block, past the first read
    # chunk of the file.  Reading line by line, a non-finite value on line 3
    # is only reported if no line after it is malformed, and a malformed
    # line 3 is reported unless the file is not UTF-8 text anywhere
    rows = [[0.1 * (i + 1)] * len(CSV_COLUMNS) for i in range(2 * cli.BLOCK_LINES)]
    lines = csv_text(rows).splitlines(keepends=True)
    i = cli.BLOCK_LINES + 41
    if early:
        lines[2] = corrupt_line(lines[2], early)
    data = "".join(lines[:i]).encode()
    if bad == "not_utf8":
        data += b"\xff"
        assert len(data) > 8192
    else:
        lines[i] = corrupt_line(lines[i], bad)
    data += "".join(lines[i:]).encode()
    kind, message, line = same_outcome(data)
    assert kind == "ParseError"
    if bad == "not_utf8":
        assert line is None
    elif early == "token" or early == "nan" == bad:
        assert line == 3
    else:
        assert line == i + 1


def test_csv_io_holds_one_block_of_python_objects(tmp_path):
    # a dense_record series: 5001 records of 20 values of 17 digits, about
    # 2 MB of text; as Python floats they would take 2.4 MB
    rng = np.random.default_rng(5)
    columns = {name: rng.random(5001) for name in CSV_COLUMNS}
    path = str(tmp_path / "timeseries.csv")
    tracemalloc.start()
    try:
        with open(path, "wb") as fh:
            fh.writelines(_csv_blocks(columns))
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cols = read_timeseries(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert os.path.getsize(path) > 2e6
    assert all(np.array_equal(cols[name], columns[name]) for name in CSV_COLUMNS)
    assert write_peak < 1e6
    assert read_peak < 2.5 * 5001 * len(CSV_COLUMNS) * 8
