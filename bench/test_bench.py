"""Self-test of the benchmark harness on shrunken workloads.

    python3 -m pytest -q bench/test_bench.py
"""
from dataclasses import replace

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

CLI = workloads.load_program(run.ROOT)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def tiny(name):
    """The workload on a coarse grid with few steps; analyze still passes on it."""
    workload = workloads.make(name, seed=5, with_reference=False)
    if workload.config is None:
        return workload
    cells = "16" if workload.dim == 1 else "12 3 3"
    if name == "dense_record":
        config = workloads.with_keys(workload.config, cells=cells, dt=0.02)
    else:
        config = workloads.with_keys(workload.config, cells=cells, dt=0.02, record_every=5)
    return replace(workload, config=config)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, record = run.run_workload(CLI, tiny(name), seconds=0, trace=trace, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    json.dumps({"record": record})


def _scale_value(path, row, column, factor):
    with open(path) as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, column, gate", [
    ("full_1d", "E", "depart from the reference"),
    ("dense_record", "M1", "M1 drift"),
])
def test_corrupted_csv_counts_as_failed(name, column, gate, tmp_path, monkeypatch):
    workload = tiny(name)
    if name == "full_1d":
        run.Operation(CLI, workload, str(tmp_path))()
        workload = replace(workload, reference=(tmp_path / "timeseries.csv").read_text())
    clean, _ = run.run_workload(CLI, workload, seconds=0, trace=True)
    assert clean["failed"] == 0 and clean["metrics"]["csv_identical"]["value"] == 1

    cmd_run = CLI.cmd_run

    def corrupting_run(cfg):
        rc = cmd_run(cfg)
        _scale_value(os.path.join(cfg.out_dir, "timeseries.csv"), -1, column, 1 + 1e-6)
        return rc

    monkeypatch.setattr(CLI, "cmd_run", corrupting_run)
    result, record = run.run_workload(CLI, workload, seconds=0, trace=False, setup_repeats=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert [gate in reason for reason in record["failures"][0]] == [True]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dense_record", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
