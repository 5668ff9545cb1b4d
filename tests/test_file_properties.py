"""Property tests of the output-file readers: final_fields.snap and
timeseries.csv round trips, and single-line corruption."""
import dataclasses
import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revreact.cli import CSV_HEADER, _csv_row, read_snapshot, read_timeseries, write_snapshot
from revreact.errors import RevReactError
from revreact.functionals import CSV_COLUMNS, FunctionalSample
from revreact.grid import SpeciesFields

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)

#: an integer-valued first cell line could parse as a one-cell header once
#: the real header is dropped, so corrupted snapshots use non-integer values
non_integer = st.floats(min_value=1e-3, max_value=1e3).filter(lambda x: not x.is_integer())


@st.composite
def snapshots(draw, values=positive):
    dim = draw(st.integers(1, 3))
    cells = tuple(draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim)))
    lengths = tuple(draw(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                                  min_size=dim, max_size=dim)))
    n = math.prod(cells)
    species = [np.array(draw(st.lists(values, min_size=n, max_size=n))).reshape(cells)
               for _ in range(3)]
    return SimpleNamespace(dim=dim, cells=cells, lengths=lengths), SpeciesFields(*species)


_SAMPLE_FIELDS = [f.name for f in dataclasses.fields(FunctionalSample) if f.name != "diag_norms"]


def csv_text(rows):
    """timeseries.csv text of rows of CSV_COLUMNS values, written as cmd_run writes it."""
    samples = []
    for row in rows:
        values = dict(zip(CSV_COLUMNS.values(), row))
        core = {name: values.pop(name) for name in _SAMPLE_FIELDS}
        samples.append(FunctionalSample(**core, diag_norms=values))
    return "\n".join([CSV_HEADER] + [_csv_row(s) for s in samples]) + "\n"


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
    dim, cells, lengths, back = read_bytes(read_snapshot, snapshot_text(snap).encode())
    assert (dim, cells, lengths) == (meta.dim, meta.cells, meta.lengths)
    for u, v in zip((fields.a, fields.b, fields.c), (back.a, back.b, back.c)):
        assert np.array_equal(u, v)


@settings(max_examples=200, deadline=None)
@given(csv_rows)
def test_csv_round_trip(rows):
    cols = read_bytes(read_timeseries, csv_text(rows).encode())
    assert list(cols) == list(CSV_COLUMNS)
    for j, name in enumerate(CSV_COLUMNS):
        assert np.array_equal(cols[name], [row[j] for row in rows])


#: tokens no snapshot position accepts ("" deletes the token, since the
#: reader splits on runs of whitespace)
SNAP_BAD = ("", "x", "nan", "inf", "-inf", "1e400", "0", "-1")
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
@given(snapshots(values=non_integer), st.data())
def test_snapshot_single_line_corruption_raises(snap, data):
    lines = snapshot_text(snap).splitlines()
    corrupted = corrupt(data.draw, lines, " ", SNAP_BAD, lambda i: True)
    with pytest.raises(RevReactError):
        read_bytes(read_snapshot, corrupted)


@settings(max_examples=500, deadline=None)
@given(csv_rows, st.data())
def test_csv_single_line_corruption_raises(rows, data):
    # a dropped or repeated data row is still a well-formed file
    lines = csv_text(rows).splitlines()
    corrupted = corrupt(data.draw, lines, ",", CSV_BAD, lambda i: i == 0)
    with pytest.raises(RevReactError):
        read_bytes(read_timeseries, corrupted)


@settings(max_examples=300, deadline=None)
@given(snapshots(), csv_rows, st.data())
def test_arbitrary_line_never_escapes_as_another_error(snap, rows, data):
    for reader, text in ((read_snapshot, snapshot_text(snap)), (read_timeseries, csv_text(rows))):
        lines = text.splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = data.draw(st.text(max_size=40))
        try:
            read_bytes(reader, ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"))
        except RevReactError:
            pass
