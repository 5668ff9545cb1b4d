"""Batch front end: key=value configs, run/analyze/verify commands, CSV I/O.

Files written by `run`:

timeseries.csv    header: the names of functionals.CSV_COLUMNS; one row per
                  sample, 17 significant digits (lossless float64 round trip)
final_fields.snap line 1: dim, cells per axis, lengths per axis; then one
                  "a b c" line per cell in row-major order
run_meta          exact echo of the parsed config plus solver statistics

`analyze` re-reads the CSV (plus the sibling run_meta when present, for
the dissipation-bound coefficients) and writes report.txt / summary.json.
"""
from __future__ import annotations

from dataclasses import dataclass

import argparse
import dataclasses
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
from .grid import Grid, SpeciesFields
from .model import DomainSpec, ModelParams
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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class RunConfig:
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


#: the config keys, in canonical order: one per RunConfig field
CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))

#: keys of older configs that are accepted and ignored
LEGACY_KEYS = ("linsolve_tol",)

#: number type of each key but init and out_dir; dim comes first, because
#: cells and lengths take one value per axis (the others take exactly one)
_NUMBER_KEYS = {
    "dim": int, "cells": int, "lengths": float, "d_a": float, "d_b": float, "d_c": float,
    "dt": float, "t_end": float, "record_every": int, "seed": int,
}


def parse_config(text: str) -> RunConfig:
    """Parse a key=value run configuration; errors carry the line number.

    Value ranges are checked by building the DomainSpec, Grid, ModelParams
    and SolverConfig the config describes.
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
        if key not in CONFIG_KEYS + LEGACY_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        raw[key] = value
        lines_of[key] = lineno

    for key in CONFIG_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

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

    def build(keys, constructor, *args):
        """constructor(*args), with InvalidArgument raised as a ConfigError on
        the line of the first of keys that its message names (else keys[0])."""
        try:
            return constructor(*args)
        except InvalidArgument as exc:
            msg = str(exc)
            named = [(m.start(), k) for k in keys if (m := re.search(rf"\b{k}\b", msg))]
            raise ConfigError(msg, line=lines_of[min(named)[1] if named else keys[0]]) from None

    domain = build(("dim", "lengths"), DomainSpec.box, nums["lengths"])
    build(("cells",), Grid.for_domain, domain, nums["cells"])
    build(("d_a", "d_b", "d_c"), ModelParams, nums["d_a"], nums["d_b"], nums["d_c"])
    build(("dt", "t_end", "record_every"), SolverConfig,
          nums["dt"], nums["t_end"], nums["record_every"])
    if nums["seed"] < 0:
        raise ConfigError(f"seed must be nonnegative, got {nums['seed']}", line=lines_of["seed"])

    toks = raw["init"].split()
    line = lines_of["init"]
    if not toks or toks[0] not in INIT_KINDS:
        raise ConfigError(
            f"init must start with one of {INIT_KINDS}, got {raw['init']!r}", line=line
        )
    kind = toks[0]
    try:
        params = tuple(float(tok) for tok in toks[1:])
    except ValueError:
        raise ConfigError(f"malformed number in init={raw['init']!r}", line=line)
    if kind == "uniform" and (len(params) != 3 or min(params) <= 0):
        raise ConfigError("init uniform needs three positive values", line=line)
    if kind == "cosine_bump" and (len(params) != 1 or not 0 < params[0] < 1):
        raise ConfigError("init cosine_bump needs amplitude in (0,1)", line=line)
    if kind == "random_positive" and (len(params) != 2 or params[0] <= 0 or params[1] < 0):
        raise ConfigError(
            "init random_positive needs positive floor and nonnegative amp", line=line
        )

    return RunConfig(init=(kind,) + params, out_dir=raw["out_dir"], **nums)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    init = cfg.init[0] + "".join(" " + _fmt(p) for p in cfg.init[1:])
    lines = [
        f"dim={cfg.dim}",
        "cells=" + " ".join(str(n) for n in cfg.cells),
        "lengths=" + " ".join(_fmt(x) for x in cfg.lengths),
        f"d_a={_fmt(cfg.d_a)}",
        f"d_b={_fmt(cfg.d_b)}",
        f"d_c={_fmt(cfg.d_c)}",
        f"init={init}",
        f"dt={_fmt(cfg.dt)}",
        f"t_end={_fmt(cfg.t_end)}",
        f"record_every={cfg.record_every}",
        f"out_dir={cfg.out_dir}",
        f"seed={cfg.seed}",
    ]
    return "\n".join(lines) + "\n"


def build_domain(cfg: RunConfig):
    domain = DomainSpec.box(cfg.lengths)
    grid = Grid.for_domain(domain, cfg.cells)
    return domain, grid


def build_initial(cfg: RunConfig, grid: Grid, domain: DomainSpec) -> SpeciesFields:
    """Initial fields for the configured preset.

    cosine_bump modulates the first axis with the even harmonic
    cos(2 pi x / L): a up, b down, and c = a*b at pointwise reaction
    equilibrium.  random_positive draws iid cell values floor + amp*U(0,1)
    from the configured seed.
    """
    kind = cfg.init[0]
    shape = grid.cells
    if kind == "uniform":
        a0, b0, c0 = cfg.init[1:]
        return SpeciesFields.uniform(grid, a0, b0, c0)
    if kind == "cosine_bump":
        amp = cfg.init[1]
        x = grid.axis_coordinates(0)
        mode = np.cos(2.0 * np.pi * x / domain.lengths[0])
        bump = mode.reshape((-1,) + (1,) * (len(shape) - 1)) * np.ones(shape)
        base_a = math.sqrt(2.0)
        base_b = math.sqrt(2.0) - 1.0
        a = base_a * (1.0 + amp * bump)
        b = base_b * (1.0 - amp * bump)
        return SpeciesFields(a, b, a * b)
    if kind == "random_positive":
        floor, amp = cfg.init[1:]
        rng = np.random.default_rng(cfg.seed)
        a = floor + amp * rng.random(shape)
        b = floor + amp * rng.random(shape)
        c = floor + amp * rng.random(shape)
        return SpeciesFields(a, b, c)
    raise ConfigError(f"unknown init kind {kind!r}")


def _csv_row(s: functionals.FunctionalSample) -> str:
    return ",".join(_fmt(v) for v in functionals.column_values(s))


def write_snapshot(path: str, cfg: RunConfig, fields: SpeciesFields) -> None:
    lines = [" ".join([str(cfg.dim), *map(str, cfg.cells), *map(_fmt, cfg.lengths)])]
    flat = zip(fields.a.ravel(), fields.b.ravel(), fields.c.ravel())
    lines.extend(f"{_fmt(a)} {_fmt(b)} {_fmt(c)}" for a, b, c in flat)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8 text: {exc}")


def read_snapshot(path: str):
    """Read a final_fields.snap file back into (dim, cells, lengths, fields)."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError("empty snapshot", line=1)
    toks = lines[0].split()
    try:
        dim = int(toks[0])
        if len(toks) != 1 + 2 * dim:
            raise ValueError
        cells = tuple(int(t) for t in toks[1:1 + dim])
        lengths = tuple(float(t) for t in toks[1 + dim:])
        Grid.for_domain(DomainSpec.box(lengths), cells)
    except (ValueError, IndexError, InvalidArgument):
        raise ParseError(f"malformed snapshot header {lines[0]!r}", line=1)
    n = math.prod(cells)
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} cell lines, found {len(lines) - 1}", line=len(lines))
    data = np.empty((n, 3))
    for i, line in enumerate(lines[1:], start=2):
        toks = line.split()
        if len(toks) != 3:
            raise ParseError(f"expected 3 values per cell, got {line!r}", line=i)
        try:
            data[i - 2] = [float(t) for t in toks]
        except ValueError:
            raise ParseError(f"malformed number in {line!r}", line=i)
    fields = SpeciesFields(
        data[:, 0].reshape(cells), data[:, 1].reshape(cells), data[:, 2].reshape(cells)
    )
    return dim, cells, lengths, fields


def cmd_run(cfg: RunConfig) -> int:
    """Run the configured simulation and write its outputs; 0 on success."""
    domain, grid = build_domain(cfg)
    params = ModelParams(cfg.d_a, cfg.d_b, cfg.d_c)
    solver_cfg = SolverConfig(cfg.dt, cfg.t_end, cfg.record_every)
    initial = build_initial(cfg, grid, domain)

    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {cfg.out_dir!r}: {exc}")

    started = time.perf_counter()
    error = None
    try:
        traj = solver_run(initial, params, grid, domain, solver_cfg)
    except NumericalBlowup as exc:
        error = exc
        traj = None
    elapsed = time.perf_counter() - started

    meta_lines = ["# config", serialize_config(cfg).rstrip("\n"), "# stats"]
    try:
        if traj is not None:
            rows = [CSV_HEADER] + [_csv_row(s) for s in traj.samples]
            with open(os.path.join(cfg.out_dir, "timeseries.csv"), "w") as fh:
                fh.write("\n".join(rows) + "\n")
            write_snapshot(
                os.path.join(cfg.out_dir, "final_fields.snap"), cfg, traj.final_fields
            )
            meta_lines += [
                "status=ok",
                f"steps={solver_cfg.n_steps}",
                f"samples={len(traj.samples)}",
                f"wall_time_s={elapsed:.3f}",
            ]
        else:
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
    """Parse a timeseries.csv into a dict of column arrays; every cell must be finite."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError("empty CSV", line=1)
    if lines[0] != CSV_HEADER:
        raise ParseError(f"unexpected header {lines[0]!r}", line=1)
    names = list(functionals.CSV_COLUMNS)
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        toks = line.split(",")
        if len(toks) != len(names):
            raise ParseError(
                f"expected {len(names)} columns, got {len(toks)}: {line!r}", line=i
            )
        try:
            rows.append([float(t) for t in toks])
        except ValueError:
            raise ParseError(f"malformed number in {line!r}", line=i)
    if not rows:
        raise ParseError("CSV has no data rows", line=1)
    data = np.asarray(rows)
    bad = np.flatnonzero(~np.all(np.isfinite(data), axis=1))
    if bad.size:
        raise ParseError(f"non-finite value in {lines[bad[0] + 1]!r}", line=int(bad[0]) + 2)
    return {name: data[:, j] for j, name in enumerate(names)}


def _read_meta_config(meta_path: str) -> RunConfig | None:
    try:
        lines = _read_lines(meta_path)
    except OSError:
        return None
    try:
        start = lines.index("# config") + 1
        end = lines.index("# stats")
    except ValueError:
        return None
    return parse_config("\n".join(lines[start:end]) + "\n")


def cmd_analyze(csv_path: str, mode: str, dim: int, meta_path: str | None = None) -> int:
    """Verify a recorded time series; writes report.txt and summary.json.

    Exit 0 iff the decay envelope passes, inequality violation counts are
    zero, growth constants are finite and the balance residual is finite.
    The dissipation-bound check needs the run_meta next to the CSV (or via
    meta_path) for the diffusivities and the Poincare constant; without it
    that check is reported as skipped.
    """
    cols = read_timeseries(csv_path)
    t = cols["t"]
    lines = [f"verification report for {csv_path} (mode={mode}, N={dim})"]
    summary = {"csv": csv_path, "mode": mode, "dim": dim}
    ok = True

    # decay envelope
    try:
        fit = analysis.fit_subexponential(t, cols["E_rel"])
        report = analysis.check_theorem_envelope(fit, mode, dim, t, cols["E_rel"])
        lines += report.lines
        summary["fit"] = {
            "alpha": fit.alpha, "S1": fit.S1, "S2": fit.S2,
            "rms_residual": fit.rms_residual,
            "theoretical_alpha": report.theoretical_alpha,
            "passed": report.passed,
        }
        ok &= report.passed
    except (analysis.AlreadyConverged, analysis.NonDecaying) as exc:
        lines.append(f"decay fit: FAIL ({exc})")
        summary["fit"] = {"error": str(exc)}
        ok = False

    # entropy balance
    try:
        resid = analysis.entropy_balance_audit(t, cols["E_rel"], cols["D"])
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
    diags = analysis.growth_diagnostics_from_series(t, cols, mode, dim)
    summary["growth"] = []
    for g in diags:
        finite = math.isfinite(g.fitted_constant)
        lines.append(
            f"growth {g.label} vs (1+t)^{g.exponent_target:.4g}: "
            f"K = {g.fitted_constant:.6g} binding at t = {g.max_ratio_time:g} "
            f"({'PASS' if finite else 'FAIL'})"
        )
        summary["growth"].append(
            {"label": g.label, "exponent": g.exponent_target,
             "constant": g.fitted_constant, "t": g.max_ratio_time}
        )
        ok &= finite

    # inequality suites
    meta_path = meta_path or os.path.join(os.path.dirname(csv_path) or ".", "run_meta")
    meta = _read_meta_config(meta_path)
    volume = math.prod(meta.lengths) if meta is not None else 1.0

    ckp_count = sum(
        1 for row in zip(cols["E_rel"], cols["ckp_lhs"], cols["M1"], cols["M2"])
        if functionals.ckp_violation(*row, volume) > 0.0
    )
    lines.append(f"CKP violations: {ckp_count} ({'PASS' if ckp_count == 0 else 'FAIL'})")
    summary["ckp_violations"] = ckp_count
    ok &= ckp_count == 0

    if meta is not None:
        rhs = functionals.dissipation_bound_rhs(
            [cols[f"dev_{sp}2"] for sp in "ABC"], cols["abc_defect"],
            (meta.d_a, meta.d_b, meta.d_c), DomainSpec.box(meta.lengths).poincare_constant,
        )
        diss_count = sum(
            1 for row in zip(cols["D"], rhs, cols["M1"], cols["M2"])
            if functionals.bound_violation(*row, volume) > 0.0
        )
        lines.append(
            f"dissipation-bound violations: {diss_count} "
            f"({'PASS' if diss_count == 0 else 'FAIL'})"
        )
        summary["dissipation_violations"] = diss_count
        ok &= diss_count == 0
    else:
        lines.append("dissipation-bound check: skipped (no run_meta found)")
        summary["dissipation_violations"] = None

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
    p_an.add_argument("--mode", required=True, choices=("full", "db0", "dc0"))
    p_an.add_argument("--dim", required=True, type=int)
    p_an.add_argument("--meta", default=None, help="path to run_meta (default: sibling)")

    sub.add_parser("verify", help="run the built-in property suites")

    p_pre = sub.add_parser("presets", help="list or print shipped presets")
    p_pre.add_argument("name", nargs="?", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            if args.config.startswith("preset:"):
                text = presets.preset_text(args.config.split(":", 1)[1])
            else:
                with open(args.config) as fh:
                    text = fh.read()
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
