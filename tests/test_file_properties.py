"""Property tests of the output files: the final_fields.snap text and the
timeseries.csv round trip, and single-line corruption of the CSV."""
import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revreact.cli import _csv_lines, read_timeseries, write_snapshot
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
    return "".join(_csv_lines(dict(zip(CSV_COLUMNS, np.array(rows).T))))


csv_rows = st.lists(st.lists(finite, min_size=len(CSV_COLUMNS), max_size=len(CSV_COLUMNS)),
                    min_size=1, max_size=5)


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
