"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the preset trajectories are executed once and shared.
"""
import math
import os
import time

import numpy as np
import pytest

from revreact import analysis, oracle
from revreact.cli import cmd_run, parse_config, read_timeseries
from revreact.functionals import bound_violation, ckp_violation, dissipation_deviation_bound
from revreact.grid import Grid, SpeciesFields, integrate, laplacian_neumann
from revreact.model import DomainSpec, ModelParams, conserved_masses, equilibrium_state
from revreact.solver import StrangStepper
from conftest import random_fields

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

STANDARD_1D = ("full_1d", "db0_1d", "dc0_1d")
ALL_PRESETS = ("full_1d", "db0_1d", "dc0_1d", "db0_2d", "dc0_2d", "dc0_3d", "uniform_ode")


def report(number, label, ok, detail):
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


class TestAcceptance:
    def test_1_equilibrium_algebra(self, rng):
        started = time.perf_counter()
        worst = 0.0
        for m1, m2 in rng.uniform(0.0, 10.0, size=(1000, 2)) + 1e-12:
            eq = equilibrium_state(m1, m2)
            scale = 1.0 + m1 + m2
            worst = max(
                worst,
                abs(eq.a_inf + eq.c_inf - m1) / scale,
                abs(eq.b_inf + eq.c_inf - m2) / scale,
                abs(eq.a_inf * eq.b_inf - eq.c_inf) / scale,
            )
        v11 = abs(equilibrium_state(1.0, 1.0).c_inf - (3.0 - SQRT5) / 2.0)
        v21 = abs(equilibrium_state(2.0, 1.0).c_inf - (2.0 - SQRT2))
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-12 and v11 <= 1e-12 and v21 <= 1e-12 and elapsed < 1.0
        report(1, "equilibrium algebra", ok,
               f"worst residual {worst:.2e}, pinned values off by ({v11:.1e}, {v21:.1e}), {elapsed:.2f}s")

    def test_2_mass_conservation(self, preset_run):
        details = []
        ok = True
        for name in STANDARD_1D:
            r = preset_run(name)
            m1 = r.column("m1")
            m2 = r.column("m2")
            drift = max(
                float(np.max(np.abs(m1 - m1[0]) / m1[0])),
                float(np.max(np.abs(m2 - m2[0]) / m2[0])),
            )
            # recorded snapshots are positivity-validated on construction;
            # re-assert on the final state
            final = r.trajectory.final_fields
            positive = all(float(np.min(u)) > 0.0 for u in (final.a, final.b, final.c))
            ok &= drift <= 1e-9 and r.wall_time <= 30.0 and positive
            details.append(f"{name}: drift {drift:.1e} in {r.wall_time:.1f}s")
        report(2, "mass conservation", ok, "; ".join(details))

    def test_3_oracle_equivalence(self, preset_run, rng):
        # PDE run from uniform data against the homogeneous RK4 oracle
        r = preset_run("uniform_ode")
        stepper = StrangStepper(r.params, r.cfg.dt, r.grid)
        u = np.stack((r.initial.a, r.initial.b, r.initial.c))
        worst_pde = 0.0
        n_blocks = int(round(r.cfg.t_end / r.cfg.dt)) // r.cfg.record_every
        for k in range(1, n_blocks + 1):
            u = stepper.advance(u, r.cfg.record_every)
            a, b, c = u
            t = k * r.cfg.record_every * r.cfg.dt
            ref = oracle.homogeneous_ode(2.0, 1.0, 0.01, t, max(1000, int(2000 * t)))
            worst_pde = max(
                worst_pde,
                float(np.max(np.abs(a - ref.a))),
                float(np.max(np.abs(b - ref.b))),
                float(np.max(np.abs(c - ref.c))),
            )
        # reaction substep against RK4 with 1e4 substeps over dt = 0.1
        from revreact.solver import reaction_substep

        dom = DomainSpec.box([1.0])
        grid1 = Grid.for_domain(dom, [1])
        worst_react = 0.0
        for _ in range(100):
            a0, b0, c0 = rng.uniform(0.05, 3.0, size=3)
            g = reaction_substep(SpeciesFields.uniform(grid1, a0, b0, c0), 0.1)
            ref = oracle.homogeneous_ode(a0, b0, c0, 0.1, 10_000)
            worst_react = max(
                worst_react,
                abs(float(g.a[0]) - ref.a),
                abs(float(g.b[0]) - ref.b),
                abs(float(g.c[0]) - ref.c),
            )
        ok = worst_pde <= 1e-6 and worst_react <= 1e-10
        report(3, "oracle equivalence", ok,
               f"PDE vs ODE sup {worst_pde:.2e} (tol 1e-6), reaction vs RK4 {worst_react:.2e} (tol 1e-10)")

    def test_4_entropy_monotonicity_and_balance(self, preset_run):
        ok = True
        details = []
        for name in ALL_PRESETS:
            r = preset_run(name)
            worst_rise = float(np.max(np.diff(r.column("e_rel"))))
            ok &= worst_rise <= 1e-12
            details.append(f"{name} max rise {worst_rise:.1e}")
        base = preset_run("full_1d")
        resid = analysis.entropy_balance_audit(
            base.times, base.column("e_rel"), base.column("dissipation")
        )
        halved = preset_run("full_1d", dt=base.cfg.dt / 2.0)
        resid_halved = analysis.entropy_balance_audit(
            halved.times, halved.column("e_rel"), halved.column("dissipation")
        )
        improvement = resid / resid_halved
        ok &= resid <= 0.01 and improvement >= 3.0
        report(4, "entropy monotonicity and balance", ok,
               f"{'; '.join(details)}; balance residual {resid:.2e} (tol 1e-2), "
               f"improvement x{improvement:.2f} (need >= 3)")

    def test_5_inequality_suites(self, preset_run, rng):
        ckp_bad = diss_bad = 0
        n_samples = 0
        for name in ALL_PRESETS:
            r = preset_run(name)
            p = r.domain.poincare_constant
            ds = r.params.diffusivities()
            for s in r.trajectory.samples:
                n_samples += 1
                if ckp_violation(s.e_rel, s.ckp_lhs, s.m1, s.m2, r.domain.volume) > 0:
                    ckp_bad += 1
                rhs = 4.0 * s.abc_defect
                for d, dev2 in zip(ds, (s.dev_a2, s.dev_b2, s.dev_c2)):
                    if d > 0.0:
                        rhs += 4.0 * d / p * dev2
                if bound_violation(s.dissipation, rhs, s.m1, s.m2, r.domain.volume) > 0:
                    diss_bad += 1
        # 1000 random positive field ensembles
        dom = DomainSpec.box([1.0])
        grid = Grid.for_domain(dom, [128])
        modes = (ModelParams(1.0, 0.0, 1.0), ModelParams(1.0, 1.0, 0.0),
                 ModelParams(1.0, 0.5, 0.8))
        from revreact.functionals import ckp_lower_bound, relative_entropy

        for i in range(1000):
            f = random_fields(rng, grid)
            m1, m2 = conserved_masses(f, grid, dom)
            eq = equilibrium_state(m1, m2)
            if ckp_violation(relative_entropy(f, eq, grid),
                             ckp_lower_bound(f, eq, grid), m1, m2, dom.volume) > 0:
                ckp_bad += 1
            lhs, rhs = dissipation_deviation_bound(f, modes[i % 3], dom, grid)
            if bound_violation(lhs, rhs, m1, m2, dom.volume) > 0:
                diss_bad += 1
        ok = ckp_bad == 0 and diss_bad == 0
        report(5, "inequality suites", ok,
               f"{n_samples} preset samples + 1000 random fields: "
               f"CKP violations {ckp_bad}, dissipation-bound violations {diss_bad}")

    def test_6_decay_envelopes(self, preset_run):
        targets = {
            "db0_1d": ("db0", 1, (1.0 - 0.01) / 6.0),
            "dc0_1d": ("dc0", 1, (2.0 - 0.01) / 3.0),
            "dc0_2d": ("dc0", 2, (2.0 - 0.01) / 3.0),
            "full_1d": ("full", 1, 0.95),
        }
        ok = True
        details = []
        total_time = 0.0
        for name, (mode, dim, threshold) in targets.items():
            r = preset_run(name)
            total_time += r.wall_time
            t = r.times
            e = r.column("e_rel")
            fit = analysis.fit_subexponential(t, e)
            rep = analysis.check_theorem_envelope(fit, mode, dim, t, e)
            assert rep.theoretical_alpha == pytest.approx(threshold, abs=1e-12)
            ok &= rep.passed
            details.append(f"{name}: alpha {fit.alpha:.2f} >= {threshold:.3f}, "
                           f"envelope {'ok' if rep.envelope_ok else 'BROKEN'}")
        ok &= total_time <= 120.0
        report(6, "decay envelopes", ok, "; ".join(details) + f"; runs took {total_time:.0f}s")

    def test_7_growth_diagnostics(self, preset_run):
        ok = True
        details = []
        r = preset_run("dc0_1d")
        diags = analysis.growth_diagnostics(r.trajectory, "dc0", 1)
        wanted = {"a_l32": 1.0 / 3.0, "c_l3": 1.0, "int_a2ac": 1.0}
        by_label = {d.label: d for d in diags}
        for label, exponent in wanted.items():
            d = by_label[label]
            ok &= math.isfinite(d.fitted_constant) and d.exponent_target == pytest.approx(exponent)
            details.append(f"dc0 {label}: K={d.fitted_constant:.3g} at t={d.max_ratio_time:g}")
        r = preset_run("db0_1d")
        d = analysis.growth_diagnostics(r.trajectory, "db0", 1)[0]
        ok &= d.label == "b_l32" and math.isfinite(d.fitted_constant)
        ok &= d.exponent_target == pytest.approx(5.0 / 6.0)
        details.append(f"db0 b_l32: K={d.fitted_constant:.3g} at t={d.max_ratio_time:g}")
        report(7, "growth diagnostics", ok, "; ".join(details))

    def test_8_discretization_properties(self, preset_run, rng):
        # operator identities on random fields
        dom = DomainSpec.box([1.0, 0.7])
        grid = Grid.for_domain(dom, [16, 12])
        worst_cons = worst_sym = worst_sd = 0.0
        for _ in range(50):
            u = rng.uniform(-1.0, 1.0, size=grid.cells)
            v = rng.uniform(-1.0, 1.0, size=grid.cells)
            lu = laplacian_neumann(u, grid)
            lv = laplacian_neumann(v, grid)
            worst_cons = max(worst_cons, abs(integrate(lu, grid)) / np.max(np.abs(lu)))
            ip = integrate(lu * v, grid)
            worst_sym = max(worst_sym, abs(ip - integrate(lv * u, grid)) / abs(ip))
            worst_sd = max(worst_sd, integrate(lu * u, grid))
        ops_ok = worst_cons <= 1e-12 and worst_sym <= 1e-12 and worst_sd <= 0.0

        # cosine eigenmode convergence order
        errors = []
        for n in (32, 64, 128):
            d1 = DomainSpec.box([1.0])
            g1 = Grid.for_domain(d1, [n])
            x = g1.axis_coordinates(0)
            u = np.cos(np.pi * x)
            errors.append(np.max(np.abs(laplacian_neumann(u, g1) + np.pi**2 * u)))
        eig_order = min(
            math.log2(errors[0] / errors[1]), math.log2(errors[1] / errors[2])
        )

        # Strang order on the standard preset
        r = preset_run("full_1d")
        def advance(dt, t_end=1.0):
            u = np.stack((r.initial.a, r.initial.b, r.initial.c))
            return StrangStepper(r.params, dt, r.grid).advance(u, int(round(t_end / dt)))

        ref = advance(0.0002)
        e1 = float(np.max(np.abs(advance(0.02) - ref)))
        e2 = float(np.max(np.abs(advance(0.01) - ref)))
        strang_order = math.log2(e1 / e2)

        ok = ops_ok and eig_order >= 1.9 and strang_order >= 1.9
        report(8, "discretization properties", ok,
               f"conservativity {worst_cons:.1e}, symmetry {worst_sym:.1e}, "
               f"max<Lu,u> {worst_sd:.1e}, eigenmode order {eig_order:.2f}, "
               f"Strang order {strang_order:.2f}")

    def test_9_determinism(self, tmp_path):
        text = (
            "dim=1\ncells=64\nlengths=1.0\nd_a=1.0\nd_b=0\nd_c=1.0\n"
            "init=cosine_bump 0.5\ndt=0.001\nt_end=2.0\nrecord_every=100\n"
            "linsolve_tol=1e-12\nout_dir={out}\nseed=11"
        )
        blobs = []
        for sub in ("first", "second"):
            out = str(tmp_path / sub)
            assert cmd_run(parse_config(text.format(out=out))) == 0
            with open(os.path.join(out, "timeseries.csv"), "rb") as fh:
                blobs.append(fh.read())
        ok = blobs[0] == blobs[1]
        report(9, "determinism", ok,
               f"two runs, {len(blobs[0])} bytes each, bit-identical: {ok}")
