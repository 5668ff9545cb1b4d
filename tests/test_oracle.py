import math

import numpy as np
import pytest

from revreact import oracle
from revreact.errors import InvalidArgument
from revreact.functionals import CSV_COLUMNS, RunningIntegrals, sample
from revreact.grid import Grid, SpeciesFields
from revreact.model import DomainSpec, ModelParams, conserved_masses, equilibrium_state

SQRT2 = math.sqrt(2.0)


class TestHomogeneousOde:
    def test_equilibrium_is_fixed(self):
        state = oracle.homogeneous_ode(SQRT2, SQRT2 - 1.0, 2.0 - SQRT2, 2.0, 2000)
        assert state.a == pytest.approx(SQRT2, rel=1e-12)
        assert state.b == pytest.approx(SQRT2 - 1.0, rel=1e-12)
        assert state.c == pytest.approx(2.0 - SQRT2, rel=1e-12)

    def test_attractor_limit(self):
        state = oracle.homogeneous_ode(2.0, 1.0, 1e-4, 40.0, 40_000)
        eq = equilibrium_state(2.0 + 1e-4, 1.0 + 1e-4)
        assert state.a == pytest.approx(eq.a_inf, abs=1e-8)
        assert state.b == pytest.approx(eq.b_inf, abs=1e-8)
        assert state.c == pytest.approx(eq.c_inf, abs=1e-8)

    def test_conserves_invariants(self, rng):
        for _ in range(20):
            a0, b0, c0 = rng.uniform(0.05, 3.0, size=3)
            state = oracle.homogeneous_ode(a0, b0, c0, 2.0, 5000)
            assert state.a + state.c == pytest.approx(a0 + c0, rel=1e-12)
            assert state.b + state.c == pytest.approx(b0 + c0, rel=1e-12)

    def test_cross_validation_with_closed_form(self, rng):
        worst = 0.0
        for _ in range(100):
            a0, b0, c0 = rng.uniform(0.05, 3.0, size=3)
            ref = oracle.homogeneous_ode(a0, b0, c0, 1.0, 10_000)
            got = oracle.reaction_closed_form(a0, b0, c0, 1.0)
            worst = max(worst, abs(got[0] - ref.a), abs(got[1] - ref.b), abs(got[2] - ref.c))
        assert worst <= 1e-10

    def test_step_too_large(self):
        with pytest.raises(InvalidArgument):
            oracle.homogeneous_ode(0.01, 0.01, 8.0, 10.0, 1)


class TestBruteForceSample:
    def test_agrees_with_functionals(self, rng):
        dom = DomainSpec.box([1.0, 0.5])
        grid = Grid.for_domain(dom, [8, 4])
        params = ModelParams(1.0, 0.0, 0.7)
        for _ in range(100):
            f = SpeciesFields(
                rng.uniform(0.2, 3.0, size=grid.cells),
                rng.uniform(0.2, 3.0, size=grid.cells),
                rng.uniform(0.2, 3.0, size=grid.cells),
            )
            m1, m2 = conserved_masses(f, grid, dom)
            eq = equilibrium_state(m1, m2)
            s_fast = sample(f, 0.0, eq, params, dom, grid)
            s_slow = oracle.brute_force_sample(f, 0.0, eq, params, dom, grid)
            for name in CSV_COLUMNS:
                x, y = s_fast[name], s_slow[name]
                assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), 1e-30)

    @pytest.mark.parametrize("with_running", [False, True])
    def test_both_samplers_key_the_csv_columns(self, with_running):
        dom = DomainSpec.box([1.0])
        grid = Grid.for_domain(dom, [8])
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 0.4)
        eq = equilibrium_state(*conserved_masses(f, grid, dom))
        args = (f, 0.5, eq, ModelParams(1.0, 0.0, 1.0), dom, grid)
        if with_running:
            s_fast = sample(*args, RunningIntegrals())
            s_slow = oracle.brute_force_sample(*args, RunningIntegrals())
        else:
            s_fast = sample(*args)
            s_slow = oracle.brute_force_sample(*args)
        assert isinstance(CSV_COLUMNS, tuple)
        assert tuple(s_fast) == CSV_COLUMNS == tuple(s_slow)
        assert s_fast["t"] == s_slow["t"] == 0.5

    def test_equilibrium_gives_zero_distances(self):
        dom = DomainSpec.box([1.0])
        grid = Grid.for_domain(dom, [8])
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        s = oracle.brute_force_sample(f, 0.0, eq, ModelParams(1.0, 1.0, 1.0), dom, grid)
        for name in ("l1_a", "l1_b", "l1_c", "ckp_lhs"):
            assert s[name] == pytest.approx(0.0, abs=1e-14)

    def test_standard_preset_initial_sample(self):
        # the standard 1D initial snapshot against the naive quadrature
        from revreact.cli import build_domain, build_initial, parse_config
        from revreact.presets import PRESETS

        cfg = parse_config(PRESETS["db0_1d"])
        dom, grid = build_domain(cfg)
        f = build_initial(cfg, grid, dom)
        params = ModelParams(cfg.d_a, cfg.d_b, cfg.d_c)
        eq = equilibrium_state(*conserved_masses(f, grid, dom))
        s_fast = sample(f, 0.0, eq, params, dom, grid)
        s_slow = oracle.brute_force_sample(f, 0.0, eq, params, dom, grid)
        for name in CSV_COLUMNS:
            x, y = s_fast[name], s_slow[name]
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), 1e-30)

    def test_uniform_gives_zero_deviations(self):
        dom = DomainSpec.box([1.0])
        grid = Grid.for_domain(dom, [8])
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 0.4)
        eq = equilibrium_state(*conserved_masses(f, grid, dom))
        s = oracle.brute_force_sample(f, 0.0, eq, ModelParams(1.0, 1.0, 1.0), dom, grid)
        assert s["dev_A2"] <= 1e-30 and s["dev_B2"] <= 1e-30 and s["dev_C2"] <= 1e-30
        # gradient energies vanish; only the reaction term contributes
        assert s["D"] == pytest.approx(
            (2.0 * 1.0 - 0.4) * math.log(2.0 * 1.0 / 0.4), rel=1e-13
        )
