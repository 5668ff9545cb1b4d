import math
import os
import subprocess
import sys

import numpy as np
import pytest

import revreact
from revreact.cli import (
    CSV_HEADER,
    cmd_analyze,
    cmd_run,
    main,
    parse_config,
    read_snapshot,
    read_timeseries,
    serialize_config,
    write_snapshot,
)
from revreact.errors import ConfigError, ParseError
from revreact.functionals import CSV_COLUMNS
from revreact.presets import PRESETS, preset_names

EXAMPLE = (
    "dim=1\ncells=128\nlengths=1.0\nd_a=1.0\nd_b=0\nd_c=1.0\n"
    "init=cosine_bump 0.5\ndt=0.001\nt_end=50\nrecord_every=100\n"
    "linsolve_tol=1e-12\nout_dir=out\nseed=7"
)

FAST = (
    "dim=1\ncells=24\nlengths=1.0\nd_a=1.0\nd_b=1.0\nd_c=0\n"
    "init=cosine_bump 0.4\ndt=0.002\nt_end=1.0\nrecord_every=50\n"
    "linsolve_tol=1e-12\nout_dir={out}\nseed=3"
)


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

    def test_legacy_linsolve_tol_accepted_and_ignored(self):
        without = "\n".join(
            line for line in EXAMPLE.splitlines() if not line.startswith("linsolve_tol")
        )
        assert parse_config(EXAMPLE) == parse_config(without)
        assert "linsolve_tol" not in serialize_config(parse_config(EXAMPLE))

    @pytest.mark.parametrize("old, new, line", [
        ("cells=128", "cells=0", 2),
        ("cells=128", "cells=1 2", 2),
        ("lengths=1.0", "lengths=-1", 3),
        ("lengths=1.0", "lengths=nan", 3),
        ("d_a=1.0", "d_a=0", 4),
        ("d_c=1.0", "d_c=inf", 6),
        ("d_c=1.0", "d_c=0", 5),
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
        snap = os.path.join(out, "final_fields.snap")
        dim, cells, lengths, fields = read_snapshot(snap)
        assert dim == 1 and cells == (24,)
        cfg = parse_config(FAST.format(out=out))
        write_snapshot(snap + ".copy", cfg, fields)
        with open(snap, "rb") as fh:
            original = fh.read()
        with open(snap + ".copy", "rb") as fh:
            rewritten = fh.read()
        assert original == rewritten


def synthetic_csv(path, t, e_rel, d=None, ckp=None):
    """Write a schema-complete CSV with consistent trivia columns."""
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
        assert os.path.exists(tmp_path / "summary.json")

    def test_missing_run_meta_reports_assumed_volume(self, tmp_path, capsys):
        import json

        t = np.arange(0.0, 20.0001, 0.1)
        path = str(tmp_path / "timeseries.csv")
        synthetic_csv(path, t, np.exp(-((1.0 + t) ** 0.9)))
        cmd_analyze(path, "db0", 1)
        assert "domain volume: 1.0 assumed" in capsys.readouterr().out
        with open(tmp_path / "report.txt") as fh:
            assert "domain volume: 1.0 assumed" in fh.read()
        with open(tmp_path / "summary.json") as fh:
            assert json.load(fh)["volume"] is None

    def test_ckp_violation_detected(self, tmp_path):
        t = np.arange(0.0, 20.0001, 0.1)
        e = np.exp(-(1.0 + t))
        ckp = 0.3 * e
        ckp[40] = e[40] * 2.0 + 1.0  # inject one violating row
        path = str(tmp_path / "timeseries.csv")
        synthetic_csv(path, t, e, ckp=ckp)
        rc = cmd_analyze(path, "db0", 1)
        assert rc != 0
        import json

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
        import json

        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["dissipation_violations"] == 0
        assert summary["ckp_violations"] == 0
        assert summary["fit"]["passed"]
        assert summary["volume"] == 1.0
        with open(os.path.join(out, "report.txt")) as fh:
            assert "assumed" not in fh.read()


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
            "e160": FAST.replace("init=cosine_bump 0.4", "init=uniform 1e160 1e160 1e160"),
            "e308": FAST.replace("init=cosine_bump 0.4", "init=uniform 1e308 1e308 1e308"),
            "huge_box": huge_box,
        }
        for name, template in cases.items():
            out = str(tmp_path / name)
            with np.errstate(over="ignore"):
                rc = cmd_run(parse_config(template.format(out=out)))
            assert rc == 1, name
            with open(os.path.join(out, "run_meta")) as fh:
                meta = fh.read().splitlines()
            assert "status=blowup" in meta, name
            assert "blowup_t=0" in meta, name
            assert not os.path.exists(os.path.join(out, "timeseries.csv")), name

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

    @pytest.mark.parametrize("edits", [
        {"t_end=1.0": "t_end=inf"},
        {"init=cosine_bump 0.4": "init=random_positive 0.5 1.0", "seed=3": "seed=-3"},
    ])
    def test_crashing_values_exit_2(self, tmp_path, capsys, edits):
        text = FAST.format(out=str(tmp_path / "out"))
        for old, new in edits.items():
            text = text.replace(old, new)
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["run", str(bad)]) == 2
        assert "error: line " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["presets", "nosuch"], ["run", "preset:nosuch"]])
    def test_unknown_preset_exit_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "nosuch" in err
        assert all(name in err for name in preset_names())
