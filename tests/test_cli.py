import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import revreact
from revreact.analysis import theorem_alpha
from revreact.cli import (
    CSV_HEADER,
    cmd_analyze,
    cmd_run,
    main,
    parse_config,
    build_initial,
    read_timeseries,
    serialize_config,
)
from revreact.errors import ConfigError, InvalidArgument, IoError, ParseError
from revreact.functionals import CSV_COLUMNS
from revreact.grid import Grid
from revreact.model import ModelParams
from revreact.presets import PRESETS, preset_names
from revreact.solver import SolverConfig, run
from conftest import box_poincare_constant, inequality_rows_per_field

#: the blank line 12 is skipped but counted, so seed sits on line 13
EXAMPLE = (
    "dim=1\ncells=128\nlengths=1.0\nd_a=1.0\nd_b=0\nd_c=1.0\n"
    "init=cosine_bump 0.5\ndt=0.001\nt_end=50\nrecord_every=100\n"
    "out_dir=out\n\nseed=7"
)

FAST = (
    "dim=1\ncells=24\nlengths=1.0\nd_a=1.0\nd_b=1.0\nd_c=0\n"
    "init=cosine_bump 0.4\ndt=0.002\nt_end=1.0\nrecord_every=50\n"
    "out_dir={out}\nseed=3"
)

#: FAST over one cell of a length whose box Poincare constant (L/pi)^2 overflows
ONE_CELL_BOX = FAST.replace("cells=24", "cells=1").replace("lengths=1.0", "lengths=1e200")


class TestParseConfig:
    def test_grammar_example(self):
        cfg = parse_config(EXAMPLE)
        assert cfg.dim == 1
        assert cfg.cells == (128,)
        assert cfg.d_b == 0.0
        assert cfg.init == ("cosine_bump", 0.5)
        assert cfg.seed == 7

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(EXAMPLE.replace("dt=0.001", "dt=-1"))

    def test_unknown_key_with_line_number(self):
        bad = EXAMPLE + "\nbogus=1"
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.line == 14

    def test_malformed_number(self):
        with pytest.raises(ConfigError):
            parse_config(EXAMPLE.replace("d_a=1.0", "d_a=fast"))

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            parse_config("\n".join(EXAMPLE.splitlines()[:-1]))

    def test_double_degeneracy_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(EXAMPLE.replace("d_c=1.0", "d_c=0"))

    def test_legacy_linsolve_tol_rejected(self):
        # no step solves a linear system, so no config takes a solver tolerance
        with pytest.raises(ConfigError, match="unknown key 'linsolve_tol'") as err:
            parse_config(EXAMPLE.replace("out_dir=out", "linsolve_tol=1e-12\nout_dir=out"))
        assert err.value.line == 11

    @pytest.mark.parametrize("old, new, line", [
        ("cells=128", "cells=0", 2),
        ("cells=128", "cells=1 2", 2),
        ("lengths=1.0", "lengths=-1", 3),
        ("lengths=1.0", "lengths=nan", 3),
        ("lengths=1.0", "lengths=1e200", 3),
        ("lengths=1.0", "lengths=1e-200", 3),
        ("lengths=1.0", "lengths=1e-158", 3),  # subnormal h * h, so 4/h^2 overflows
        ("d_a=1.0", "d_a=0", 4),
        ("d_c=1.0", "d_c=inf", 6),
        ("d_c=1.0", "d_c=0", 5),
        ("init=cosine_bump 0.5", "init=uniform 1 1 nan", 7),
        ("init=cosine_bump 0.5", "init=uniform inf 1 1", 7),
        ("init=cosine_bump 0.5", "init=random_positive nan 1", 7),
        ("init=cosine_bump 0.5", "init=random_positive 1 inf", 7),
        ("init=cosine_bump 0.5", "init=random_positive 1e308 1e308", 7),  # floor + amp overflows
        ("dt=0.001", "dt=nan", 8),
        ("t_end=50", "t_end=inf", 9),
        ("t_end=50", "t_end=50.05", 9),
        ("record_every=100", "record_every=0", 10),
        ("seed=7", "seed=-3", 13),
    ])
    def test_range_errors_carry_line_numbers(self, old, new, line):
        with pytest.raises(ConfigError) as err:
            parse_config(EXAMPLE.replace(old, new))
        assert err.value.line == line

    def test_dim_four_rejected_on_dim_line(self):
        text = EXAMPLE.replace("cells=128", "cells=4 4 4 4").replace(
            "lengths=1.0", "lengths=1 1 1 1"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace("dim=1", "dim=4"))
        assert err.value.line == 1

    def test_unrecorded_tail_rejected(self):
        text = EXAMPLE.replace("t_end=50", "t_end=0.35")
        with pytest.raises(ConfigError, match="record intervals") as err:
            parse_config(text)
        assert err.value.line == 9
        assert parse_config(text.replace("record_every=100", "record_every=50")).t_end == 0.35

    def test_serialized_preset_text(self):
        # one key=value line per config key: tuples space-joined, floats
        # with 17 significant digits, everything else as str
        assert serialize_config(parse_config(PRESETS["dc0_3d"])) == (
            "dim=3\ncells=48 12 12\nlengths=1 0.40000000000000002 0.40000000000000002\n"
            "d_a=1\nd_b=1\nd_c=0\ninit=cosine_bump 0.5\ndt=0.002\nt_end=6\n"
            "record_every=50\nout_dir=out/dc0_3d\nseed=1\n"
        )

    def test_round_trip_identity(self):
        cfg = parse_config(EXAMPLE)
        assert parse_config(serialize_config(cfg)) == cfg
        for name in preset_names():
            cfg = parse_config(PRESETS[name])
            assert parse_config(serialize_config(cfg)) == cfg


class TestCmdRun:
    def run_fast(self, tmp_path, sub="r1"):
        out = str(tmp_path / sub)
        cfg = parse_config(FAST.format(out=out))
        assert cmd_run(cfg) == 0
        return out

    def test_outputs_and_schema(self, tmp_path):
        out = self.run_fast(tmp_path)
        with open(os.path.join(out, "timeseries.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 11  # t=0 plus 10 records
        for line in lines[1:]:
            assert len(line.split(",")) == 20
        assert os.path.exists(os.path.join(out, "final_fields.snap"))
        assert os.path.exists(os.path.join(out, "run_meta"))

    def test_run_meta_reports_phase_timers(self, tmp_path):
        out = self.run_fast(tmp_path)
        with open(os.path.join(out, "run_meta")) as fh:
            stats = dict(line.split("=", 1) for line in fh.read().splitlines()
                         if "=" in line and not line.startswith("#"))
        timers = {key: float(stats[key])
                  for key in ("wall_time_s", "step_s", "sample_s", "write_s", "steps_per_s")}
        assert all(math.isfinite(v) and v >= 0.0 for v in timers.values())
        assert timers["steps_per_s"] > 0.0
        # stepping and sampling happen inside the run's wall time (each
        # printed to 1 ms)
        assert timers["step_s"] + timers["sample_s"] <= timers["wall_time_s"] + 0.002
        # records are sampled in blocks: at least one call, at most one per sample
        assert 1 <= int(stats["sample_calls"]) <= int(stats["samples"])

    def test_header_names_the_csv_columns(self):
        assert CSV_HEADER.split(",") == list(CSV_COLUMNS)

    def test_monotone_e_rel_column(self, tmp_path):
        out = self.run_fast(tmp_path)
        cols = read_timeseries(os.path.join(out, "timeseries.csv"))
        assert np.all(np.diff(cols["E_rel"]) <= 1e-12)

    def test_determinism_bit_identical(self, tmp_path):
        out1 = self.run_fast(tmp_path, "r1")
        out2 = self.run_fast(tmp_path, "r2")
        with open(os.path.join(out1, "timeseries.csv"), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(out2, "timeseries.csv"), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2

    def test_equilibrium_initial_data(self, tmp_path):
        a_inf, b_inf = math.sqrt(2.0), math.sqrt(2.0) - 1.0
        c_inf = 2.0 - math.sqrt(2.0)
        out = str(tmp_path / "eq")
        text = FAST.format(out=out).replace(
            "init=cosine_bump 0.4", f"init=uniform {a_inf!r} {b_inf!r} {c_inf!r}"
        )
        assert cmd_run(parse_config(text)) == 0
        cols = read_timeseries(os.path.join(out, "timeseries.csv"))
        assert np.all(cols["E_rel"] <= 1e-12)

    def test_snapshot_round_trip(self, tmp_path):
        out = self.run_fast(tmp_path)
        cfg = parse_config(FAST.format(out=out))
        grid = Grid.box(cfg.lengths, cfg.cells)
        params = ModelParams(cfg.d_a, cfg.d_b, cfg.d_c)
        solver_cfg = SolverConfig(cfg.dt, cfg.t_end, cfg.record_every)
        final = run(build_initial(cfg, grid, grid.domain), params, grid, solver_cfg).final_fields
        with open(os.path.join(out, "final_fields.snap")) as fh:
            header, *rows = fh.read().splitlines()
        assert header.split() == ["1", "24", "1"]
        values = np.array([[float(tok) for tok in row.split()] for row in rows])
        assert values.shape == (24, 3)
        for j, u in enumerate(final.species()):
            assert np.array_equal(values[:, j], u)


def synthetic_csv(path, t, e_rel, d=None, ckp=None, diffusivities=(1.0, 0.0, 1.0)):
    """Write a schema-complete CSV with consistent trivia columns, and next
    to it the run_meta of a run in 1-D on the unit interval with the given
    (d_a, d_b, d_c), by default a db0 run, whose record times are t: one
    record per step of t[1] - t[0] up to t[-1]."""
    d_a, d_b, d_c = diffusivities
    cfg = parse_config(EXAMPLE.replace(
        "d_a=1.0\nd_b=0\nd_c=1.0", f"d_a={d_a!r}\nd_b={d_b!r}\nd_c={d_c!r}").replace(
        "dt=0.001\nt_end=50\nrecord_every=100",
        f"dt={t[1] - t[0]:.17g}\nt_end={t[-1]:.17g}\nrecord_every=1"))
    assert (cfg.d_a, cfg.d_b, cfg.d_c) == diffusivities
    assert SolverConfig(cfg.dt, cfg.t_end, cfg.record_every).record_times() == list(t)
    with open(os.path.join(os.path.dirname(path), "run_meta"), "w") as fh:
        fh.write("# config\n" + serialize_config(cfg) + "# stats\n")
    n = t.size
    if d is None:
        d = np.abs(np.gradient(e_rel, t)) + 1e-16
    if ckp is None:
        ckp = 0.3 * e_rel
    zeros = np.zeros(n)
    ones = np.ones(n)
    cols = [
        t, e_rel + 1.0, e_rel, d, ones, ones, zeros, zeros, zeros,
        zeros, zeros, zeros, zeros, ckp, ones, ones, ones, ones,
        1.0 + t, 1.0 + t,
    ]
    rows = [CSV_HEADER]
    for i in range(n):
        rows.append(",".join(f"{c[i]:.17g}" for c in cols))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


class TestCmdAnalyze:
    def test_synthetic_envelope_pass(self, tmp_path, capsys):
        t = np.arange(0.0, 20.0001, 0.1)
        e = np.exp(-((1.0 + t) ** 0.9))
        path = str(tmp_path / "timeseries.csv")
        synthetic_csv(path, t, e)
        assert cmd_analyze(path, "db0", 1) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert os.path.exists(tmp_path / "report.txt")
        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["volume"] == 1.0
        assert summary["dissipation_violations"] == 0

    def test_alpha_below_target_fails_the_decay_verdict(self, tmp_path, capsys):
        # a dc0 run decaying like exp(-(1+t)**0.5): the fitted exponent is
        # below the theorem's (2 - EPSILON)/3, and every other check passes,
        # so the exit is the decay verdict's
        t = np.arange(0.0, 20.0001, 0.1)
        path = str(tmp_path / "timeseries.csv")
        synthetic_csv(path, t, np.exp(-((1.0 + t) ** 0.5)), diffusivities=(1.0, 1.0, 0.0))
        assert cmd_analyze(path, "dc0", 1) == 1
        out = capsys.readouterr().out
        assert "decay fit: alpha = 0.50, " in out
        assert "envelope check: FAIL\n" in out
        assert "overall: FAIL\n" in out
        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["fit"]["alpha"] == 0.5
        assert summary["fit"]["theoretical_alpha"] == theorem_alpha("dc0")
        assert summary["fit"]["passed"] is False
        assert summary["passed"] is False
        assert math.isfinite(summary["balance_residual"])
        assert summary["ckp_violations"] == 0
        assert summary["dissipation_violations"] == 0

    def test_alpha_at_target_passes(self, tmp_path, capsys):
        # the full mode's target 0.95 is on the fit's alpha grid, so a run
        # decaying like exp(-(1+t)**0.95) fits the target exactly and passes
        t = np.arange(0.0, 20.0001, 0.1)
        path = str(tmp_path / "timeseries.csv")
        synthetic_csv(path, t, np.exp(-((1.0 + t) ** 0.95)), diffusivities=(1.0, 1.0, 1.0))
        assert cmd_analyze(path, "full", 1) == 0
        out = capsys.readouterr().out
        assert "decay fit: alpha = 0.95, " in out
        assert "envelope check: PASS\n" in out
        assert "overall: PASS\n" in out
        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["fit"]["alpha"] == theorem_alpha("full")
        assert summary["fit"]["passed"] is True
        assert summary["passed"] is True

    def test_missing_run_meta_exits_2_before_writing(self, tmp_path, capsys):
        t = np.arange(0.0, 20.0001, 0.1)
        path = str(tmp_path / "timeseries.csv")
        synthetic_csv(path, t, np.exp(-((1.0 + t) ** 0.9)))
        os.remove(tmp_path / "run_meta")
        with pytest.raises(IoError, match="cannot read run_meta"):
            cmd_analyze(path, "db0", 1)
        assert main(["analyze", path, "--mode", "db0", "--dim", "1"]) == 2
        assert "cannot read run_meta" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "report.txt")
        assert not os.path.exists(tmp_path / "summary.json")

    def test_missing_csv_is_an_io_error(self, tmp_path):
        t = np.arange(0.0, 20.0001, 0.1)
        path = str(tmp_path / "timeseries.csv")
        synthetic_csv(path, t, np.exp(-((1.0 + t) ** 0.9)))
        os.remove(path)
        with pytest.raises(IoError, match="cannot read CSV"):
            cmd_analyze(path, "db0", 1)
        assert not os.path.exists(tmp_path / "report.txt")

    def test_ckp_violation_detected(self, tmp_path):
        t = np.arange(0.0, 20.0001, 0.1)
        e = np.exp(-(1.0 + t))
        ckp = 0.3 * e
        ckp[40] = e[40] * 2.0 + 1.0  # inject one violating row
        path = str(tmp_path / "timeseries.csv")
        synthetic_csv(path, t, e, ckp=ckp)
        rc = cmd_analyze(path, "db0", 1)
        assert rc != 0
        with open(tmp_path / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["ckp_violations"] == 1

    def test_truncated_csv_parse_error(self, tmp_path):
        t = np.arange(0.0, 5.0001, 0.1)
        path = str(tmp_path / "timeseries.csv")
        synthetic_csv(path, t, np.exp(-t))
        with open(path) as fh:
            content = fh.read().splitlines()
        content[7] = content[7].rsplit(",", 2)[0]  # drop two columns (file line 8)
        with open(path, "w") as fh:
            fh.write("\n".join(content) + "\n")
        with pytest.raises(ParseError) as err:
            read_timeseries(path)
        assert err.value.line == 8

    def test_non_finite_cell_rejected(self, tmp_path, capsys):
        t = np.arange(0.0, 20.0001, 0.1)
        e = np.exp(-((1.0 + t) ** 0.9))
        ckp = 0.3 * e
        ckp[3] = np.nan  # file line 5
        path = str(tmp_path / "timeseries.csv")
        synthetic_csv(path, t, e, ckp=ckp)
        with pytest.raises(ParseError, match="non-finite") as err:
            read_timeseries(path)
        assert err.value.line == 5
        assert main(["analyze", path, "--mode", "db0", "--dim", "1"]) == 2
        assert "overall: PASS" not in capsys.readouterr().out

    def test_bad_header_rejected(self, tmp_path):
        path = str(tmp_path / "timeseries.csv")
        with open(path, "w") as fh:
            fh.write("t,E\n0,1\n")
        with pytest.raises(ParseError):
            read_timeseries(path)

    def test_analyze_real_run_with_meta(self, tmp_path):
        out = str(tmp_path / "run")
        text = FAST.format(out=out).replace("t_end=1.0", "t_end=6.0")
        assert cmd_run(parse_config(text)) == 0
        rc = cmd_analyze(os.path.join(out, "timeseries.csv"), "dc0", 1)
        assert rc == 0
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["dissipation_violations"] == 0
        assert summary["ckp_violations"] == 0
        assert summary["fit"]["passed"]
        assert summary["volume"] == 1.0
        with open(os.path.join(out, "report.txt")) as fh:
            assert "assumed" not in fh.read()

    def test_sharp_dissipation_bound_is_not_a_violation(self, tmp_path):
        # slow diffusion on 16 cells from random data: late in the run the
        # state sits in the lowest cosine mode, where the dissipation bound
        # with the grid's discrete Poincare constant holds with equality
        # (D/rhs = 1 to rounding).  With the continuous box constant
        # (L/pi)^2 this run counted 244 violations.  The decay envelope
        # still fails here (fitted alpha 0.86 against the full mode's
        # 0.95), so the count is asserted, not the exit code.
        out = str(tmp_path / "run")
        text = (PRESETS["full_1d"].replace("cells=128", "cells=16")
                .replace("init=cosine_bump 0.5", "init=random_positive 0.5 1.0")
                .replace("seed=1", "seed=3").replace("out_dir=out/full_1d", f"out_dir={out}"))
        cfg = parse_config(text)
        assert (cfg.cells, cfg.d_a, cfg.d_b, cfg.d_c, cfg.dt, cfg.t_end, cfg.seed) == (
            (16,), 0.01, 0.01, 0.01, 1e-3, 50.0, 3)
        assert cmd_run(cfg) == 0
        cmd_analyze(os.path.join(out, "timeseries.csv"), "full", 1)
        with open(os.path.join(out, "summary.json")) as fh:
            assert json.load(fh)["dissipation_violations"] == 0

    def test_short_run_fit_is_unresolved_not_a_fitted_exponent(self, tmp_path, capsys):
        # over t in [0, 1], (1+t)**0.05 spans 1 to 1.035: the best alpha is
        # the lowest searched, which the report gives as no fit at all
        out = str(tmp_path / "run")
        assert cmd_run(parse_config(FAST.format(out=out))) == 0
        assert main(["analyze", os.path.join(out, "timeseries.csv"), "--mode", "dc0",
                     "--dim", "1"]) == 1
        report = capsys.readouterr().out
        assert "decay fit: FAIL (fit unresolved: the best exponent alpha = 0.05 is" in report
        assert "decay fit: alpha" not in report
        assert "overall: FAIL" in report
        with open(os.path.join(out, "summary.json")) as fh:
            assert "unresolved" in json.load(fh)["fit"]["error"]

    @pytest.mark.parametrize("mode, dim", [("db0", 1), ("full", 1), ("dc0", 3), ("dc0", 2)])
    def test_mode_or_dim_contradicting_the_run_exits_2(self, tmp_path, capsys, mode, dim):
        out = str(tmp_path / "run")
        assert cmd_run(parse_config(FAST.format(out=out))) == 0  # a dc0 run in 1-D
        csv = os.path.join(out, "timeseries.csv")
        with pytest.raises(InvalidArgument, match="contradict"):
            cmd_analyze(csv, mode, dim)
        assert main(["analyze", csv, "--mode", mode, "--dim", str(dim)]) == 2
        assert "contradict" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "report.txt"))

    def test_unreadable_explicit_meta_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cmd_run(parse_config(FAST.format(out=out))) == 0
        csv = os.path.join(out, "timeseries.csv")
        missing = str(tmp_path / "nosuch_meta")
        assert main(["analyze", csv, "--mode", "dc0", "--dim", "1", "--meta", missing]) == 2
        assert "nosuch_meta" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "report.txt"))

    def test_explicit_meta_without_config_section_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cmd_run(parse_config(FAST.format(out=out))) == 0
        csv = os.path.join(out, "timeseries.csv")
        # the CSV itself is readable, but it is not a run_meta
        assert main(["analyze", csv, "--mode", "dc0", "--dim", "1", "--meta", csv]) == 2
        assert "# config" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "report.txt"))

    def test_sibling_meta_without_config_section_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cmd_run(parse_config(FAST.format(out=out))) == 0
        meta = os.path.join(out, "run_meta")
        with open(meta) as fh:
            stats = fh.read().split("# stats\n", 1)[1]
        with open(meta, "w") as fh:
            fh.write(stats)
        csv = os.path.join(out, "timeseries.csv")
        with pytest.raises(ParseError, match="# config"):
            cmd_analyze(csv, "dc0", 1)
        assert main(["analyze", csv, "--mode", "dc0", "--dim", "1"]) == 2
        assert "# config" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "report.txt"))

    @pytest.mark.parametrize("dim", [0, 4])
    def test_dim_outside_one_to_three_rejected(self, tmp_path, capsys, dim):
        t = np.arange(0.0, 20.0001, 0.1)
        path = str(tmp_path / "timeseries.csv")
        synthetic_csv(path, t, np.exp(-((1.0 + t) ** 0.9)))
        with pytest.raises(InvalidArgument, match="dim"):
            cmd_analyze(path, "db0", dim)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, "--mode", "db0", "--dim", str(dim)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "report.txt")


@pytest.fixture(scope="module")
def dc0_runs(tmp_path_factory):
    """The output directories of FAST, a dc0 run in 1-D, to t_end = 6 and 4."""
    runs = {}
    for t_end in (6.0, 4.0):
        out = str(tmp_path_factory.mktemp("run"))
        text = FAST.format(out=out).replace("t_end=1.0", f"t_end={t_end}")
        assert cmd_run(parse_config(text)) == 0
        runs[t_end] = out
    return runs


class TestRecordTimes:
    """analyze reads only a CSV whose t column is its run's record times."""

    def analyze_copy(self, tmp_path, capsys, run_dir, edit, meta=None):
        """Analyze an edited copy of run_dir's CSV against the run_meta meta
        (default: run_dir's); the one stderr line, which must be the
        ParseError of a file line, and that line's number."""
        with open(os.path.join(run_dir, "timeseries.csv")) as fh:
            header, *rows = fh.read().splitlines()
        csv = str(tmp_path / "timeseries.csv")
        with open(csv, "w") as fh:
            fh.write("\n".join([header] + edit(rows)) + "\n")
        meta = os.path.join(run_dir, "run_meta") if meta is None else meta
        assert main(["analyze", csv, "--mode", "dc0", "--dim", "1", "--meta", meta]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not os.path.exists(tmp_path / "report.txt")
        assert not os.path.exists(tmp_path / "summary.json")
        (line,) = captured.err.splitlines()
        match = re.fullmatch(r"error: line (\d+): .*", line)
        assert match, line
        return line, int(match.group(1))

    @staticmethod
    def shifted(by):
        def edit(rows):
            out = []
            for row in rows:
                t, rest = row.split(",", 1)
                out.append(f"{float(t) + by:.17g},{rest}")
            return out
        return edit

    @pytest.mark.parametrize("by", [-5.0, 1e6])
    def test_shifted_times_rejected(self, tmp_path, capsys, dc0_runs, by):
        line, lineno = self.analyze_copy(tmp_path, capsys, dc0_runs[6.0], self.shifted(by))
        assert lineno == 2
        assert f"t = {by:.17g} is not the record time 0 of the run" in line

    def test_deleted_row_rejected(self, tmp_path, capsys, dc0_runs):
        line, lineno = self.analyze_copy(tmp_path, capsys, dc0_runs[6.0],
                                         lambda rows: rows[:10] + rows[11:])
        assert lineno == 12  # the row of t = 1.1 holds the next time
        assert "t = 1.1000000000000001 is not the record time 1" in line

    def test_other_runs_meta_rejected(self, tmp_path, capsys, dc0_runs):
        # the t_end = 6 run's 61 rows against the 41 record times of t_end = 4
        meta = os.path.join(dc0_runs[4.0], "run_meta")
        line, lineno = self.analyze_copy(tmp_path, capsys, dc0_runs[6.0], list, meta)
        assert lineno == 43
        assert "61 data rows, but the run in" in line and "records 41" in line


class TestBlowupPath:
    def test_blowup_recorded_in_meta_with_nonzero_exit(self, tmp_path, monkeypatch):
        from revreact import cli as cli_mod
        from revreact.errors import NumericalBlowup

        def exploding_run(*args, **kwargs):
            raise NumericalBlowup("non-finite functional at t = 0.25", t=0.25)

        monkeypatch.setattr(cli_mod, "solver_run", exploding_run)
        out = str(tmp_path / "boom")
        rc = cmd_run(parse_config(FAST.format(out=out)))
        assert rc != 0
        with open(os.path.join(out, "run_meta")) as fh:
            meta = fh.read()
        assert "status=blowup" in meta
        assert "0.25" in meta
        assert not os.path.exists(os.path.join(out, "timeseries.csv"))

    def test_overflowing_initial_data_is_a_blowup(self, tmp_path):
        # finite fields whose functionals, conserved masses or recorded norms
        # overflow at t = 0
        huge_box = (
            "dim=3\ncells=2 2 2\nlengths=1e103 1e102 1.6e102\nd_a=1\nd_b=1\nd_c=1\n"
            "init=uniform 2 2 4\ndt=0.001\nt_end=0.2\nrecord_every=100\n"
            "out_dir={out}\nseed=3"
        )
        cases = {
            "e155": FAST.replace("init=cosine_bump 0.4", "init=uniform 1e155 1e-3 1e-3"),
            "e160": FAST.replace("init=cosine_bump 0.4", "init=uniform 1e160 1e160 1e160"),
            "e308": FAST.replace("init=cosine_bump 0.4", "init=uniform 1e308 1e308 1e308"),
            "huge_box": huge_box,
            # one cell has no Poincare constraint, whatever its length
            "one_cell_box": ONE_CELL_BOX.replace("init=cosine_bump 0.4", "init=uniform 2 1 0.5"),
        }
        for name, template in cases.items():
            out = str(tmp_path / name)
            # no overflow may escape as a warning (an error under this suite)
            rc = cmd_run(parse_config(template.format(out=out)))
            assert rc == 1, name
            with open(os.path.join(out, "run_meta")) as fh:
                meta = fh.read().splitlines()
            assert "status=blowup" in meta, name
            assert "blowup_t=0" in meta, name
            assert not os.path.exists(os.path.join(out, "timeseries.csv")), name

    def test_blowup_removes_the_outputs_of_an_earlier_run(self, tmp_path, capsys):
        # FAST runs to t = 6, where analyze passes it: the stale report
        # would read overall: PASS next to status=blowup
        out = str(tmp_path / "out")
        csv = os.path.join(out, "timeseries.csv")
        passing = FAST.replace("t_end=1.0", "t_end=6.0")
        assert cmd_run(parse_config(passing.format(out=out))) == 0
        assert main(["analyze", csv, "--mode", "dc0", "--dim", "1"]) == 0
        assert "overall: PASS" in capsys.readouterr().out
        blowup = passing.replace("init=cosine_bump 0.4", "init=uniform 1e308 1e308 1e308")
        assert cmd_run(parse_config(blowup.format(out=out))) == 1
        assert "status=blowup" in (tmp_path / "out" / "run_meta").read_text().splitlines()
        for name in ("timeseries.csv", "final_fields.snap", "report.txt", "summary.json"):
            assert not os.path.exists(os.path.join(out, name))
        assert main(["analyze", csv, "--mode", "dc0", "--dim", "1"]) == 2
        assert "overall: PASS" not in capsys.readouterr().out

    def test_a_species_far_below_its_reference_runs(self, tmp_path, capsys):
        # a = 1e-20 is below the rounding of its reference: its entropy
        # density and the reaction production take their values there, not
        # NaN and inf, so the run is not a blowup
        out = tmp_path / "out"
        text = FAST.format(out=str(out)).replace("init=cosine_bump 0.4", "init=uniform 1e-20 1 1")
        assert cmd_run(parse_config(text)) == 0
        assert capsys.readouterr().err == ""
        assert "status=ok" in (out / "run_meta").read_text().splitlines()

    def test_one_cell_huge_box_runs_as_the_ode(self, tmp_path, capsys):
        text = ONE_CELL_BOX.format(out=str(tmp_path / "out"))
        rc = cmd_run(parse_config(text.replace("init=cosine_bump 0.4", "init=uniform 1 1 1")))
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert "status=ok" in (tmp_path / "out" / "run_meta").read_text().splitlines()

    def test_reaction_at_huge_masses_is_a_silent_blowup(self, tmp_path):
        # at masses 2e32 a_inf is below the spacing of doubles near m1: the
        # first reaction substep rounds a and b to 0 and the next divides
        # 0 by 0, which must end the run without a numpy warning on stderr
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(FAST.format(out=str(tmp_path / "out")).replace(
            "init=cosine_bump 0.4", "init=uniform 1e32 1e32 1e32"))
        path = [os.path.dirname(os.path.dirname(revreact.__file__)), os.environ.get("PYTHONPATH")]
        proc = subprocess.run(
            [sys.executable, "-m", "revreact.cli", "run", str(cfg)], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
            timeout=300,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        meta = (tmp_path / "out" / "run_meta").read_text().splitlines()
        assert "status=blowup" in meta
        assert "blowup_t=0.10000000000000001" in meta


class TestFloatFormat:
    def test_seventeen_digits_round_trip(self, rng):
        from revreact.cli import _fmt

        values = np.concatenate([
            rng.uniform(-1e3, 1e3, size=200),
            rng.uniform(-1e-12, 1e-12, size=200),
            np.array([0.0, 1e-300, 1e300, math.pi, 2.0 - math.sqrt(2.0)]),
        ])
        for v in values:
            assert float(_fmt(float(v))) == float(v)


class TestCmdVerify:
    def test_fresh_build_is_green(self, capsys):
        import time

        from revreact.cli import cmd_verify

        started = time.perf_counter()
        rc = cmd_verify()
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert elapsed < 300.0

    def test_inequality_ensemble_is_sampled_in_blocks(self, monkeypatch):
        # the suites sample the 1000 fields of the inequality ensemble in
        # blocks, one call per mode and block, and its rows are those of
        # the field-by-field loop, bit for bit
        from revreact import verify

        calls = []  # the records of each sample call
        real_sample = verify.sample

        def counting(states, t, *args, **kwargs):
            calls.append(np.size(t))
            return real_sample(states, t, *args, **kwargs)

        seen = {}
        real_rows = verify._inequality_rows

        def capturing(rng, grid):
            seen["state"], seen["grid"] = rng.bit_generator.state, grid
            seen["rows"] = real_rows(rng, grid)
            return seen["rows"]

        monkeypatch.setattr(verify, "sample", counting)
        monkeypatch.setattr(verify, "_inequality_rows", capturing)
        assert all(ok for _, ok, _ in verify.run_property_suites())
        # the 20 snapshots of the brute-force suite, then 34 blocks of at
        # most 30 fields in three modes (1000 single snapshots before)
        assert len(calls) <= 20 + 34 * 3 and sum(calls) == 20 + 1000
        monkeypatch.undo()
        rng = np.random.default_rng()
        rng.bit_generator.state = seen["state"]
        per_field = inequality_rows_per_field(rng, seen["grid"], verify._ENSEMBLE_MODES)
        assert per_field.tobytes() == seen["rows"].tobytes()

    def test_box_poincare_constant_fails_the_poincare_suite(self, monkeypatch):
        # the continuous constant (L_max/pi)^2 is below the discrete one: the
        # lowest mode of each grid must expose it
        import dataclasses

        from revreact import verify

        grids = verify._grids()
        monkeypatch.setattr(verify, "_grids", lambda: [
            dataclasses.replace(g, poincare_constant=box_poincare_constant(g.domain.lengths))
            for g in grids])
        name, ok, detail = verify._suite_poincare(np.random.default_rng(0))
        assert ok is False

    def test_wrong_reaction_fails_closed(self, monkeypatch, capsys, tmp_path):
        # the solver's reaction integrating over 2 dt must fail the RK4 check
        # that verify runs on it, and so the command; it must also change
        # what run computes, so verify checks the reaction run executes
        import revreact.solver
        from revreact import verify
        from revreact.cli import cmd_verify

        right = _short_run(tmp_path)
        react = revreact.solver._reaction
        monkeypatch.setattr(revreact.solver, "_reaction",
                            lambda src, u, work, dt: react(src, u, work, 2.0 * dt))
        assert not np.array_equal(_short_run(tmp_path), right)
        name, ok, _ = verify._suite_reaction_oracle(np.random.default_rng(0))
        assert ok is False
        assert cmd_verify() == 1
        assert f"FAIL  {name}:" in capsys.readouterr().out

    def test_reaction_step_off_by_1e11_fails_closed(self, monkeypatch, capsys, tmp_path):
        # a reaction over dt (1 + 1e-11) reads about 3.6e-12 against the RK4
        # oracle, below 1e-10 but above verify's 1e-12 gate, which must fail it
        import revreact.solver
        from revreact import verify
        from revreact.cli import cmd_verify

        right = _short_run(tmp_path)
        react = revreact.solver._reaction
        monkeypatch.setattr(revreact.solver, "_reaction",
                            lambda src, u, work, dt: react(src, u, work, (1.0 + 1e-11) * dt))
        assert not np.array_equal(_short_run(tmp_path), right)
        name, ok, detail = verify._suite_reaction_oracle(np.random.default_rng(0))
        assert ok is False
        assert 1e-12 < float(detail.rsplit(" ", 1)[1]) < 1e-11
        assert cmd_verify() == 1
        assert f"FAIL  {name}:" in capsys.readouterr().out

    def test_wrong_kernel_fails_closed(self, monkeypatch, capsys, tmp_path):
        # heat kernels built from eigenvalues 1e-6 too large stay symmetric,
        # stochastic and a semigroup, but the mode decay of the diffusion
        # suite must expose them, and so fail the command; they must also
        # change what run computes, so verify checks the kernels run executes
        import revreact.solver
        from revreact import verify
        from revreact.cli import cmd_verify

        right = _short_run(tmp_path)
        eigenvalues = revreact.solver.neumann_eigenvalues
        monkeypatch.setattr(revreact.solver, "neumann_eigenvalues",
                            lambda n, h: (1.0 + 1e-6) * eigenvalues(n, h))
        assert not np.array_equal(_short_run(tmp_path), right)
        name, ok, _ = verify._suite_diffusion(np.random.default_rng(0))
        assert ok is False
        assert cmd_verify() == 1
        assert f"FAIL  {name}:" in capsys.readouterr().out


def _short_run(tmp_path):
    """The final fields of FAST after ten steps."""
    cfg = parse_config(FAST.format(out=tmp_path))
    grid = Grid.box(cfg.lengths, cfg.cells)
    initial = build_initial(cfg, grid, grid.domain)
    short = SolverConfig(cfg.dt, 10 * cfg.dt, 10)
    return run(initial, ModelParams(cfg.d_a, cfg.d_b, cfg.d_c), grid, short).final_fields.stack


class TestMain:
    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "full_1d" in out and "dc0_3d" in out

    def test_run_and_analyze_preset(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "preset:uniform_ode"]) == 0
        rc = main([
            "analyze", str(tmp_path / "out/uniform_ode/timeseries.csv"),
            "--mode", "full", "--dim", "1",
        ])
        assert rc == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("dt=-1\n")
        assert main(["run", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(FAST.format(out=str(tmp_path / "out")).encode() + b"\n\xff\n")
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edits", [
        {"t_end=1.0": "t_end=inf"},
        {"init=cosine_bump 0.4": "init=random_positive 0.5 1.0", "seed=3": "seed=-3"},
        {"lengths=1.0": "lengths=1e200"},
        {"lengths=1.0": "lengths=1e-200"},
        {"lengths=1.0": "lengths=1e-158"},
        {"init=cosine_bump 0.4": "init=uniform 1 1 nan"},
        {"init=cosine_bump 0.4": "init=uniform inf 1 1"},
        {"init=cosine_bump 0.4": "init=random_positive nan 1"},
        {"init=cosine_bump 0.4": "init=random_positive 1 inf"},
        {"init=cosine_bump 0.4": "init=random_positive 1e308 1e308"},
    ])
    def test_crashing_values_exit_2(self, tmp_path, capsys, edits):
        text = FAST.format(out=str(tmp_path / "out"))
        for old, new in edits.items():
            text = text.replace(old, new)
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error: line " in err
        assert "Warning" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["presets", "nosuch"], ["run", "preset:nosuch"]])
    def test_unknown_preset_exit_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "nosuch" in err
        assert all(name in err for name in preset_names())
