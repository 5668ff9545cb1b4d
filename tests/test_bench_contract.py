"""The names the benchmark in bench/ reaches into revreact by, and the gate
it holds the shipped presets' CSVs to.

bench/tracing.py wraps revreact functions where their callers bind them,
and bench/run.py times the stepper's kernels through the cli's builders.
A probe whose target is gone is silently left out of the benchmark's
metrics, so these tests check from here that every target still exists.
The benchmark also compares the full_1d and dc0_3d CSVs with its recorded
references; the same comparison runs here on the cached preset runs.
They read bench/ and do not change it.
"""
import os
import sys

import numpy as np
import pytest

from revreact import cli, functionals, oracle, verify

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_installs_every_probe_span():
    with tracing.Tracer() as tracer:
        missing = {probe.span for probe in tracing.PROBES} - tracer.installed
    assert not missing


def test_verify_binds_both_inequality_gates():
    # the functionals.inequality_* metrics are the spans of these two names
    # as revreact.verify binds them
    with tracing.Tracer():
        for name in ("ckp_violation", "bound_violation"):
            assert getattr(verify, name).__wrapped__ is getattr(functionals, name)


def test_verify_reaches_the_tallied_oracle():
    # oracle.homogeneous_ode_s is this span, and oracle.rk4_substeps the tally of
    # `substeps` over its calls: one per batched call, not one per state
    original = oracle.homogeneous_ode
    with tracing.Tracer() as tracer:
        assert verify.oracle.homogeneous_ode.__wrapped__ is original
        verify._suite_reaction_oracle(np.random.default_rng(0))
    calls, _, _ = tracer.totals()
    assert calls["oracle.homogeneous_ode"] == 1
    assert tracer.counts["substeps"] == 1_000


def test_kernel_probes_time_both_kernels(tmp_path):
    workload = workloads.make("full_1d", seed=1, with_reference=False)
    probes = bench_run.kernel_probes(cli, workload, str(tmp_path))
    assert set(probes) == {"solver.diffusion_apply_us", "solver.reaction_substep_us"}
    assert all(value > 0.0 for value in probes.values())


@pytest.mark.parametrize("name", ["full_1d", "dc0_3d"])
def test_preset_csv_passes_the_reference_gate(preset_run, name):
    r = preset_run(name)
    text = b"".join(cli._csv_blocks(r.trajectory.columns)).decode()
    reference = workloads.make(name, seed=1).reference
    assert workloads.check_csv(text, workloads.expected_rows(r.cfg), reference) == []
