"""Batch front end: key=value configs, run/analyze/verify commands, CSV I/O.

Files written by `run`:

timeseries.csv    header: the CSV columns functionals.CSV_COLUMNS, which key
                  each recorded sample; one row per sample, its values in
                  column order, 17 significant digits (lossless float64
                  round trip)
final_fields.snap line 1: dim, cells per axis, lengths per axis; then one
                  "a b c" line per cell in row-major order
run_meta          exact echo of the parsed config plus solver statistics:
                  steps, samples, the functionals.sample calls that
                  recorded them, the calls one Strang step runs (as the
                  solver bound them), wall time, and the seconds spent
                  stepping, recording samples and writing these files,
                  with the steps per second of stepping

`analyze` re-reads the CSV and the run_meta of its run (given by --meta,
else the sibling), whose mode and dim must be the requested ones and
which supplies the box volume and the dissipation-bound coefficients,
and writes report.txt / summary.json.  A run_meta that cannot be read, or
has no valid config section, is an error.

Both data files are written, and timeseries.csv is read back, in blocks
of BLOCK_LINES lines: a block is written as the bytes of one %-format of
a row template over its values, and read by one numpy cast of its
tokens.  So the text and the Python floats of one block at a time are
held, never those of the whole series.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import analysis, functionals, presets
from .errors import (
    ConfigError,
    InvalidArgument,
    IoError,
    NumericalBlowup,
    ParseError,
    RevReactError,
)
from .grid import DIMENSIONS, Grid, SpeciesFields, check_dimension
from .model import MODES, ModelParams
from .solver import SolverConfig, run as solver_run

__all__ = [
    "RunConfig",
    "parse_config",
    "serialize_config",
    "build_initial",
    "cmd_run",
    "cmd_analyze",
    "cmd_verify",
    "main",
]

CSV_HEADER = ",".join(functionals.CSV_COLUMNS)

INIT_KINDS = ("uniform", "cosine_bump", "random_positive")


#: lines of timeseries.csv and final_fields.snap formatted, and of
#: timeseries.csv parsed, as one block
BLOCK_LINES = 256


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def check_seed(seed: int) -> int:
    """seed, the random_positive generator's seed; InvalidArgument if negative."""
    if seed < 0:
        raise InvalidArgument(f"seed must be nonnegative, got {seed}")
    return seed


def parse_init(text: str) -> tuple:
    """The init value (kind, *params) written as text: a kind of
    INIT_KINDS, then its finite float parameters.  InvalidArgument, with
    text in its message where a rule names it, unless the kind is known,
    the parameters are numbers, and their count and range suit the kind."""
    toks = text.split()
    if not toks or toks[0] not in INIT_KINDS:
        raise InvalidArgument(f"init must start with one of {INIT_KINDS}, got {text!r}")
    kind = toks[0]
    try:
        params = tuple(float(tok) for tok in toks[1:])
    except ValueError:
        raise InvalidArgument(f"malformed number in init={text!r}") from None
    if not all(map(math.isfinite, params)):
        raise InvalidArgument(f"init parameters must be finite, got {text!r}")
    if kind == "uniform" and (len(params) != 3 or min(params) <= 0):
        raise InvalidArgument("init uniform needs three positive values")
    if kind == "cosine_bump" and (len(params) != 1 or not 0 < params[0] < 1):
        raise InvalidArgument("init cosine_bump needs amplitude in (0,1)")
    if kind == "random_positive" and (len(params) != 2 or params[0] <= 0 or params[1] < 0
                                      or not math.isfinite(params[0] + params[1])):
        raise InvalidArgument(
            "init random_positive needs positive floor and nonnegative amp with a finite sum"
        )
    return (kind,) + params


@dataclass(frozen=True)
class RunConfig:
    """The value of each config key, and the Grid, ModelParams and
    SolverConfig they describe, built once: by parse_config, else on first read.

    The seed and init rules (check_seed, parse_init) run on construction,
    however the config is made; init must be the tuple that its config
    text parses to.
    """

    dim: int
    cells: tuple[int, ...]
    lengths: tuple[float, ...]
    d_a: float
    d_b: float
    d_c: float
    init: tuple  # (kind, *params)
    dt: float
    t_end: float
    record_every: int
    out_dir: str
    seed: int

    def __post_init__(self):
        check_seed(self.seed)
        if parse_init(_config_value(self.init)) != self.init:
            raise InvalidArgument(f"init must be a kind and its float parameters, "
                                  f"got {self.init!r}")

    grid = cached_property(lambda self: Grid.box(self.lengths, self.cells))
    params = cached_property(lambda self: ModelParams(self.d_a, self.d_b, self.d_c))
    solver = cached_property(lambda self: SolverConfig(self.dt, self.t_end, self.record_every))


#: the config keys, in canonical order: one per RunConfig field
CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))

#: number type of each key but init and out_dir; dim comes first, because
#: cells and lengths take one value per axis (the others take exactly one)
_NUMBER_KEYS = {
    "dim": int, "cells": int, "lengths": float, "d_a": float, "d_b": float, "d_c": float,
    "dt": float, "t_end": float, "record_every": int, "seed": int,
}


def parse_config(text: str) -> RunConfig:
    """Parse a key=value run configuration; errors carry the line number.

    Value ranges are checked by building the Grid, ModelParams and
    SolverConfig the config describes, kept as cfg.grid, cfg.params and
    cfg.solver.
    """
    raw = {}
    lines_of = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key=value, got {stripped!r}", line=lineno)
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        raw[key] = value
        lines_of[key] = lineno

    for key in CONFIG_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    def build(keys, constructor, *args):
        """constructor(*args), with InvalidArgument raised as a ConfigError on
        the line of the first of keys that its message names (else keys[0])."""
        try:
            return constructor(*args)
        except InvalidArgument as exc:
            msg = str(exc)
            named = [(m.start(), k) for k in keys if (m := re.search(rf"\b{k}\b", msg))]
            raise ConfigError(msg, line=lines_of[min(named)[1] if named else keys[0]]) from None

    nums = {}
    for key, kind in _NUMBER_KEYS.items():
        try:
            vals = tuple(kind(tok) for tok in raw[key].split())
        except ValueError:
            raise ConfigError(f"malformed number in {key}={raw[key]!r}", line=lines_of[key])
        per_axis = key in ("cells", "lengths")
        if len(vals) != (nums["dim"] if per_axis else 1):
            count = f"one value per axis (dim={nums['dim']})" if per_axis else "one value"
            raise ConfigError(f"{key} takes {count}, got {raw[key]!r}", line=lines_of[key])
        nums[key] = vals if per_axis else vals[0]
        if key == "dim":
            build(("dim",), check_dimension, nums["dim"])

    grid = build(("lengths", "cells"), Grid.box, nums["lengths"], nums["cells"])
    model = build(("d_a", "d_b", "d_c"), ModelParams, nums["d_a"], nums["d_b"], nums["d_c"])
    solver = build(("dt", "t_end", "record_every"), SolverConfig,
                   nums["dt"], nums["t_end"], nums["record_every"])
    build(("seed",), check_seed, nums["seed"])
    init = build(("init",), parse_init, raw["init"])

    cfg = RunConfig(init=init, out_dir=raw["out_dir"], **nums)
    vars(cfg).update(grid=grid, params=model, solver=solver)
    return cfg


def _config_value(value) -> str:
    """One config value as text: a tuple (cells, lengths, init) as its
    values joined by spaces, a float by _fmt, anything else by str."""
    if isinstance(value, tuple):
        return " ".join(map(_config_value, value))
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form, one key=value line per CONFIG_KEYS entry;
    parse(serialize(cfg)) == cfg."""
    return "".join(f"{key}={_config_value(getattr(cfg, key))}\n" for key in CONFIG_KEYS)


def build_domain(cfg: RunConfig):
    """(cfg.grid, cfg.grid), the (box, grid) pair that bench/run.py reads."""
    return cfg.grid, cfg.grid


def build_initial(cfg: RunConfig, *bench_args) -> SpeciesFields:
    """Initial fields for the configured preset on cfg.grid; bench_args,
    the grid and box that bench/run.py passes, are not read.

    cosine_bump modulates the first axis with the even harmonic
    cos(2 pi x / L): a up, b down, and c = a*b at pointwise reaction
    equilibrium.  random_positive draws iid cell values floor + amp*U(0,1)
    from the configured seed.
    """
    kind = cfg.init[0]
    grid = cfg.grid
    shape = grid.cells
    if kind == "uniform":
        return SpeciesFields.uniform(grid, *cfg.init[1:])
    if kind == "cosine_bump":
        amp = cfg.init[1]
        mode = np.cos(2.0 * np.pi * grid.axis_coordinates(0) / grid.lengths[0])
        bump = mode.reshape((-1,) + (1,) * (len(shape) - 1)) * np.ones(shape)
        a = math.sqrt(2.0) * (1.0 + amp * bump)
        b = (math.sqrt(2.0) - 1.0) * (1.0 - amp * bump)
        return SpeciesFields(a, b, a * b)
    if kind == "random_positive":
        floor, amp = cfg.init[1:]
        rng = np.random.default_rng(cfg.seed)
        return SpeciesFields(*(floor + amp * rng.random(shape) for _ in range(3)))
    raise ConfigError(f"unknown init kind {kind!r}")


def _line_blocks(columns: list, sep: bytes):
    """Lines of the values of the 1-d columns, line i holding value i of
    each, joined by sep and each written as _fmt writes it, as UTF-8
    bytes, one bytes object per block of BLOCK_LINES lines.  A block is
    formatted by one % of a template of "%.17g" fields, which formats as
    _fmt does.  Bytes written to a binary file are not copied again to be
    encoded; through a text file that extra copy of each block left the
    heap of a process looping full_1d runs about 0.2 MB larger (CPython
    3.11, glibc malloc)."""
    template = sep.join([b"%.17g"] * len(columns)) + b"\n"
    for start in range(0, len(columns[0]), BLOCK_LINES):
        block = np.stack([column[start:start + BLOCK_LINES] for column in columns], axis=1)
        yield (template * len(block)) % tuple(block.ravel().tolist())


def _csv_blocks(columns: dict):
    """The bytes of timeseries.csv for the columns, one array per name of
    CSV_HEADER: the header line, then one bytes object per block of
    records, one line per record with its values in column order."""
    yield CSV_HEADER.encode() + b"\n"
    yield from _line_blocks([columns[name] for name in functionals.CSV_COLUMNS], b",")


def write_snapshot(path: str, cfg: RunConfig, fields: SpeciesFields) -> None:
    """Write final_fields.snap: a header line of dim, cells and lengths,
    then one line of a, b and c per cell, in C order, written one block of
    lines at a time."""
    header = " ".join([str(cfg.dim), *map(str, cfg.cells), *map(_fmt, cfg.lengths)])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.writelines(_line_blocks([fields.a.ravel(), fields.b.ravel(), fields.c.ravel()], b" "))


def _read_lines(path: str, what: str) -> list[str]:
    """The lines of the file at path.  IoError, naming it as `what`, if it
    cannot be read; ParseError if it is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc)
    except OSError as exc:
        raise IoError(f"cannot read {what} {path!r}: {exc}")


def _not_utf8(path: str, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{path!r} is not UTF-8 text: {exc}")


def cmd_run(cfg: RunConfig) -> int:
    """Run the configured simulation and write its outputs; 0 on success."""
    initial = build_initial(cfg)

    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {cfg.out_dir!r}: {exc}")

    started = time.perf_counter()
    error = None
    try:
        traj = solver_run(initial, cfg.params, cfg.grid, cfg.solver)
    except NumericalBlowup as exc:
        error = exc
        traj = None
    elapsed = time.perf_counter() - started

    meta_lines = ["# config", serialize_config(cfg).rstrip("\n"), "# stats"]
    try:
        if traj is not None:
            started = time.perf_counter()
            with open(os.path.join(cfg.out_dir, "timeseries.csv"), "wb") as fh:
                fh.writelines(_csv_blocks(traj.columns))
            write_snapshot(
                os.path.join(cfg.out_dir, "final_fields.snap"), cfg, traj.final_fields
            )
            write_s = time.perf_counter() - started
            meta_lines += [
                "status=ok",
                f"steps={cfg.solver.n_steps}",
                f"samples={len(traj.columns['t'])}",
                f"sample_calls={traj.sample_calls}",
                f"step_calls={traj.step_calls}",
                f"wall_time_s={elapsed:.3f}",
                f"step_s={traj.step_s:.3f}",
                f"sample_s={traj.sample_s:.3f}",
                f"write_s={write_s:.3f}",
                f"steps_per_s={cfg.solver.n_steps / max(traj.step_s, 1e-9):.0f}",
            ]
        else:
            # a blowup leaves no outputs of an earlier run, nor an analyze
            # report of them, to be judged as its own
            for name in ("timeseries.csv", "final_fields.snap", "report.txt", "summary.json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(cfg.out_dir, name))
            meta_lines += [
                "status=blowup",
                f"error={error}",
                f"blowup_t={_fmt(error.t) if error.t is not None else 'unknown'}",
            ]
        with open(os.path.join(cfg.out_dir, "run_meta"), "w") as fh:
            fh.write("\n".join(meta_lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write outputs under {cfg.out_dir!r}: {exc}")

    return 0 if traj is not None else 1


def read_timeseries(path: str):
    """Parse a timeseries.csv into a dict of column arrays; every cell must
    be finite.

    The file is read BLOCK_LINES lines at a time, and the tokens of a
    block are converted by one numpy cast, which accepts and rejects what
    float() does, so the text and the Python objects of one block at a
    time are held.  The errors and their line numbers are those of
    parsing the whole text line by line, as str.splitlines splits it:
    IoError if the file cannot be read, then ParseError if it is not
    UTF-8 text anywhere, then ParseError for the first line whose header,
    column count or number is wrong, and only then for the first line
    with a non-finite value.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                return _parse_timeseries(fh)
            except ParseError:
                for _ in fh:  # a byte that is not UTF-8 is reported first
                    pass
                raise
    except UnicodeDecodeError as exc:
        # its position counts from the chunk it was decoded in: decoding
        # the whole file names the byte's position in the file
        _read_lines(path, "CSV")
        raise _not_utf8(path, exc)
    except OSError as exc:
        raise IoError(f"cannot read CSV {path!r}: {exc}")


def _parse_timeseries(fh) -> dict:
    """The columns of the timeseries.csv text read from fh, a block of
    lines at a time; str.splitlines splits more line breaks than file
    iteration (\\v, \\f, \\x1c-\\x1e, \\x85, \\u2028, \\u2029), so it splits
    each block."""
    blocks = iter(lambda: "".join(itertools.islice(fh, BLOCK_LINES)).splitlines(), [])
    lines = next(blocks, [])
    if not lines:
        raise ParseError("empty CSV", line=1)
    if lines[0] != CSV_HEADER:
        raise ParseError(f"unexpected header {lines[0]!r}", line=1)
    data, non_finite = [], None
    lineno = 2  # of the first line of the block
    for lines in itertools.chain([lines[1:]], blocks):
        rows = _csv_rows(lines, lineno)
        finite = np.all(np.isfinite(rows), axis=1)
        if non_finite is None and not finite.all():
            i = int(np.argmin(finite))
            non_finite = ParseError(f"non-finite value in {lines[i]!r}", line=lineno + i)
        data.append(rows)
        lineno += len(lines)
    if lineno == 2:
        raise ParseError("CSV has no data rows", line=1)
    if non_finite is not None:
        raise non_finite
    data = np.concatenate(data)
    return {name: data[:, j] for j, name in enumerate(functionals.CSV_COLUMNS)}


def _csv_rows(lines: list, lineno: int) -> np.ndarray:
    """The values of the CSV data lines, the first of which is line lineno
    of the file, as a (len(lines), columns) array, converted by one cast.
    Where a line has the wrong column count or the cast fails, the lines
    are parsed again one at a time, as float() parses them, to raise the
    ParseError of the first bad one."""
    n = len(functionals.CSV_COLUMNS)
    tokens = []
    for line in lines:
        toks = line.split(",")
        if len(toks) != n:
            break
        tokens += toks
    else:
        with contextlib.suppress(ValueError):
            return np.array(tokens, dtype=float).reshape(len(lines), n)
    values = np.empty((len(lines), n))
    for i, line in enumerate(lines):
        toks = line.split(",")
        if len(toks) != n:
            raise ParseError(f"expected {n} columns, got {len(toks)}: {line!r}", line=lineno + i)
        try:
            values[i] = [float(t) for t in toks]
        except ValueError:
            raise ParseError(f"malformed number in {line!r}", line=lineno + i)
    return values


def _read_meta_config(meta_path: str) -> RunConfig:
    """The config echoed in a run_meta.  IoError if it cannot be read,
    ParseError, naming it and the line in it, if it has no valid
    "# config" ... "# stats" section."""
    lines = _read_lines(meta_path, "run_meta")
    try:
        start = lines.index("# config") + 1
        end = lines.index("# stats")
    except ValueError:
        raise ParseError(f"{meta_path!r} has no '# config' ... '# stats' section")
    try:  # blank lines for those above the section keep the run_meta's line numbers
        return parse_config("\n" * start + "\n".join(lines[start:end]))
    except ConfigError as exc:
        reason = str(exc).removeprefix(f"line {exc.line}: ")
        raise ParseError(f"config in run_meta {meta_path!r}: {reason}", line=exc.line) from None


def cmd_analyze(csv_path: str, mode: str, dim: int, meta_path: str | None = None) -> int:
    """Verify a recorded time series; writes report.txt and summary.json.

    Exit 0 iff the fitted decay exponent is at least the theorem's, or
    every sample's |E_rel| is at or below analysis.FIT_FLOOR (the run is at
    equilibrium, which is not a failure), inequality violation counts are
    zero and the balance residual is finite; the growth constants are
    reported without a verdict.  The run_meta at meta_path (default: next
    to the CSV) supplies the record times that the CSV's t column must
    equal, the box volume of the CKP check, and the diffusivities and
    the grid, whose discrete Poincare constant it uses, of the
    dissipation-bound check.  Before anything is
    written, a run_meta or CSV that cannot be read raises IoError, a
    run_meta without a valid config section raises ParseError, a mode or dim
    other than that of its run raises InvalidArgument, and a CSV whose t
    column is not its run's record times raises ParseError, naming the
    first line that differs.
    """
    if meta_path is None:
        meta_path = os.path.join(os.path.dirname(csv_path) or ".", "run_meta")
    meta = _read_meta_config(meta_path)
    if (mode, dim) != (meta.params.mode, meta.dim):
        raise InvalidArgument(
            f"mode {mode} and dim {dim} contradict the run in {meta_path!r} "
            f"(mode {meta.params.mode}, dim {meta.dim})"
        )
    cols = read_timeseries(csv_path)
    t = cols["t"]
    times = meta.solver.record_times()
    n = min(len(t), len(times))
    differs = np.flatnonzero(t[:n] != times[:n])
    if differs.size:
        i = int(differs[0])
        raise ParseError(f"t = {_fmt(t[i])} is not the record time {_fmt(times[i])} "
                         f"of the run in {meta_path!r}", line=i + 2)
    if len(t) != len(times):
        raise ParseError(f"{len(t)} data rows, but the run in {meta_path!r} records "
                         f"{len(times)}", line=n + 2)
    lines = [f"verification report for {csv_path} (mode={mode}, N={dim})"]
    summary = {"csv": csv_path, "mode": mode, "dim": dim}
    ok = True

    # decay envelope
    try:
        fit = analysis.fit_subexponential(t, cols["E_rel"])
        target = analysis.theorem_alpha(mode)
        passed = fit.alpha >= target
        lines += [
            f"decay fit: alpha = {fit.alpha:.2f}, S1 = {fit.S1:.6g}, S2 = {fit.S2:.6g}, "
            f"rms = {fit.rms_residual:.3g} over {fit.n_samples} samples "
            f"t in [{fit.t_window[0]:g}, {fit.t_window[1]:g}]",
            f"theorem exponent ({mode}, N={dim}): {target:.6g}",
            f"envelope check: {'PASS' if passed else 'FAIL'}",
        ]
        summary["fit"] = {
            "alpha": fit.alpha, "S1": fit.S1, "S2": fit.S2,
            "rms_residual": fit.rms_residual,
            "theoretical_alpha": target,
            "passed": passed,
        }
        ok &= passed
    except analysis.UnresolvedFit as exc:
        if np.all(np.abs(cols["E_rel"]) <= analysis.FIT_FLOOR):
            # a run that starts at equilibrium and stays there: no sample
            # is above the fit's floor, and there is nothing to fit
            lines.append(f"decay fit: at equilibrium (|E_rel| <= {analysis.FIT_FLOOR:g} "
                         f"at every sample)")
            summary["fit"] = {"at_equilibrium": True}
        else:
            lines.append(f"decay fit: FAIL ({exc})")
            summary["fit"] = {"error": str(exc)}
            ok = False

    # entropy balance
    try:
        resid = analysis.entropy_balance_audit(cols["E_rel"], cols["D"],
                                               meta.record_every * meta.dt)
        finite = math.isfinite(resid)
        lines.append(
            f"entropy balance residual: {resid:.3e} ({'PASS' if finite else 'FAIL'})"
        )
        summary["balance_residual"] = resid
        ok &= finite
    except RevReactError as exc:
        lines.append(f"entropy balance: FAIL ({exc})")
        summary["balance_residual"] = None
        ok = False

    # growth diagnostics
    summary["growth"] = []
    for g in analysis.growth_diagnostics_from_series(t, cols, mode, dim):
        lines.append(
            f"growth {g.label} vs (1+t)^{g.exponent_target:.4g}: "
            f"K = {g.fitted_constant:.6g} binding at t = {g.max_ratio_time:g}"
        )
        summary["growth"].append(
            {"label": g.label, "exponent": g.exponent_target,
             "constant": g.fitted_constant, "t": g.max_ratio_time}
        )

    # inequality suites
    volume = summary["volume"] = meta.grid.volume
    ckp_count = int(np.count_nonzero(functionals.ckp_violation(
        cols["E_rel"], cols["ckp_lhs"], cols["M1"], cols["M2"], volume)))
    lines.append(f"CKP violations: {ckp_count} ({'PASS' if ckp_count == 0 else 'FAIL'})")
    summary["ckp_violations"] = ckp_count
    ok &= ckp_count == 0

    rhs = functionals.dissipation_bound_rhs(
        [cols[f"dev_{sp}2"] for sp in "ABC"], cols["abc_defect"],
        meta.params, meta.grid.poincare_constant,
    )
    diss_count = int(np.count_nonzero(functionals.bound_violation(
        cols["D"], rhs, cols["M1"], cols["M2"], volume)))
    lines.append(
        f"dissipation-bound violations: {diss_count} "
        f"({'PASS' if diss_count == 0 else 'FAIL'})"
    )
    summary["dissipation_violations"] = diss_count
    ok &= diss_count == 0

    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    summary["passed"] = bool(ok)

    out_dir = os.path.dirname(csv_path) or "."
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    try:
        with open(os.path.join(out_dir, "report.txt"), "w") as fh:
            fh.write(text)
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write report under {out_dir!r}: {exc}")
    return 0 if ok else 1


def cmd_verify() -> int:
    """Built-in property suites; prints one PASS/FAIL line each, exit 0 iff green."""
    from .verify import run_property_suites

    results = run_property_suites()
    all_ok = True
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        all_ok &= ok
    print(f"verify: {'all checks passed' if all_ok else 'FAILURES present'}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="revreact",
        description="Reversible three-species reaction-diffusion toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a config file")
    p_run.add_argument("config", help="path to a key=value config, or preset:<name>")

    p_an = sub.add_parser("analyze", help="verify a recorded time series")
    p_an.add_argument("csv", help="path to timeseries.csv")
    p_an.add_argument("--mode", required=True, choices=MODES)
    p_an.add_argument("--dim", required=True, type=int, choices=DIMENSIONS)
    p_an.add_argument("--meta", default=None,
                      help="path to the run's run_meta (default: the one next to the CSV)")

    sub.add_parser("verify", help="run the built-in property suites")

    p_pre = sub.add_parser("presets", help="list or print shipped presets")
    p_pre.add_argument("name", nargs="?", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            if args.config.startswith("preset:"):
                text = presets.preset_text(args.config.split(":", 1)[1])
            else:
                text = "\n".join(_read_lines(args.config, "config"))
            return cmd_run(parse_config(text))
        if args.command == "analyze":
            return cmd_analyze(args.csv, args.mode, args.dim, args.meta)
        if args.command == "verify":
            return cmd_verify()
        if args.command == "presets":
            if args.name is None:
                print("\n".join(presets.preset_names()))
            else:
                sys.stdout.write(presets.preset_text(args.name))
            return 0
    except (RevReactError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
