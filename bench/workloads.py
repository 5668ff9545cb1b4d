"""Workloads of the revreact benchmark and the correctness gate on their outputs.

Four workloads, each a stream of identical user-level operations:

full_1d       the shipped 128-cell 1-D preset, 50 000 steps, 501 samples, all
              three species diffusing.  Per step the state is 3 KB, so the
              stepper's cost is numpy/scipy dispatch, not arithmetic.
dc0_3d        the shipped 48x12x12 preset with c not diffusing, 3000 steps.
              The same stepper, dominated by 3-D DCT arithmetic instead.
dense_record  the db0_1d grid and diffusivities from random_positive data
              seeded by the benchmark seed, recording every step, so
              functionals.sample and CSV writing dominate, not the stepper.
verify        the built-in property suites: the RK4 oracle and the
              1000-field inequality ensemble, with no time stepping.

A simulation operation is parse_config, cmd_run and cmd_analyze on the CSV
it wrote; the verify operation is cmd_verify.  full_1d and dc0_3d have
fixed inputs, so their CSVs are compared with references recorded by
``python3 bench/workloads.py`` under bench/reference/.
"""
from __future__ import annotations

from dataclasses import dataclass

import gzip
import os
import re
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

NAMES = ("full_1d", "dc0_3d", "dense_record", "verify")

#: acceptance-2 tolerance on the relative drift of M1 and M2 over a run
MASS_DRIFT_TOL = 1e-9

#: a reference CSV value x_ref is reproduced by x when
#: |x - x_ref| <= CSV_RTOL * |x_ref| + CSV_ATOL; last-bit changes to the
#: transforms stay far inside this, a changed scheme or bug does not
CSV_RTOL = 1e-8
CSV_ATOL = 1e-12

OUT_DIR_PLACEHOLDER = "@OUT_DIR@"


class ProgramMissing(RuntimeError):
    """The revreact sources to benchmark are not in this checkout."""


def load_program(root: str):
    """Import revreact from <root>/src, refusing any other installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "revreact", "__init__.py")):
        raise ProgramMissing(f"no revreact sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    from revreact import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"revreact imported from {cli.__file__}, not from {src}")
    return cli


@dataclass(frozen=True)
class Workload:
    """One workload: a run config (None for verify) and what its outputs must satisfy."""

    name: str
    config: str | None = None
    mode: str = ""
    dim: int = 0
    reference: str | None = None

    def config_for(self, out_dir: str) -> str:
        return self.config.replace(OUT_DIR_PLACEHOLDER, out_dir)


def with_keys(config: str, **values) -> str:
    """Replace the value of existing key=value lines of a run config."""
    for key, value in values.items():
        config, n = re.subn(rf"^{key}=.*$", f"{key}={value}", config, flags=re.M)
        if n != 1:
            raise KeyError(f"config has no single {key}= line")
    return config


def _reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.csv.gz")


def _read_reference(name: str) -> str:
    with gzip.open(_reference_path(name), "rt") as fh:
        return fh.read()


def make(name: str, seed: int, with_reference: bool = True) -> Workload:
    """Build a workload; the seed only changes dense_record's initial fields."""
    from revreact import presets

    if name == "verify":
        return Workload(name)
    if name in ("full_1d", "dc0_3d"):
        config = with_keys(presets.preset_text(name), out_dir=OUT_DIR_PLACEHOLDER)
        mode, dim = ("full", 1) if name == "full_1d" else ("dc0", 3)
        reference = _read_reference(name) if with_reference else None
        return Workload(name, config, mode, dim, reference)
    if name == "dense_record":
        config = with_keys(
            presets.preset_text("db0_1d"),
            init="random_positive 0.5 1.0",
            t_end=5.0,
            record_every=1,
            seed=seed,
            out_dir=OUT_DIR_PLACEHOLDER,
        )
        return Workload(name, config, "db0", 1)
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def _parse_csv(text: str):
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("ragged CSV rows")
    return header, rows


def check_csv(text: str, expected_rows: int, reference: str | None) -> list[str]:
    """Reasons the CSV of one run is wrong; an empty list means it passed.

    Checks the row count, the drift of M1 and M2 against MASS_DRIFT_TOL and,
    for fixed-input workloads, every value against the reference CSV within
    CSV_RTOL / CSV_ATOL.
    """
    try:
        header, rows = _parse_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    reasons = []
    if len(rows) != expected_rows:
        reasons.append(f"{len(rows)} CSV rows, expected {expected_rows}")
    for name in ("M1", "M2"):
        if name not in header:
            reasons.append(f"CSV has no {name} column")
            continue
        col = [row[header.index(name)] for row in rows]
        drift = max((abs(m - col[0]) / col[0] for m in col), default=0.0)
        if not drift <= MASS_DRIFT_TOL:
            reasons.append(f"{name} drift {drift:.3e} exceeds {MASS_DRIFT_TOL:g}")
    if reference is not None:
        ref_header, ref_rows = _parse_csv(reference)
        if header != ref_header or len(rows) != len(ref_rows):
            reasons.append("CSV shape differs from the reference")
        else:
            bad = sum(
                not abs(x - r) <= CSV_RTOL * abs(r) + CSV_ATOL
                for row, ref_row in zip(rows, ref_rows)
                for x, r in zip(row, ref_row)
            )
            if bad:
                reasons.append(f"{bad} CSV values depart from the reference")
    return reasons


def expected_rows(cfg) -> int:
    """Samples a run of this config records: t = 0, then every record_every steps."""
    steps = int(round(cfg.t_end / cfg.dt))
    return steps // cfg.record_every + 1


def record_references(root: str) -> None:
    """Run full_1d and dc0_3d once and store their CSVs as the references."""
    import contextlib
    import io
    import tempfile

    cli = load_program(root)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in ("full_1d", "dc0_3d"):
        workload = make(name, seed=0, with_reference=False)
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.cmd_run(cli.parse_config(workload.config_for(tmp)))
            if rc != 0:
                raise RuntimeError(f"{name}: cmd_run exited {rc}")
            with open(os.path.join(tmp, "timeseries.csv"), "rb") as fh:
                data = fh.read()
        with open(_reference_path(name), "wb") as fh:
            fh.write(gzip.compress(data, mtime=0))
        print(f"{_reference_path(name)}: {len(data)} bytes of CSV")


if __name__ == "__main__":
    record_references(os.path.dirname(BENCH_DIR))
