import math
import warnings

import mpmath
import numpy as np
import pytest

from revreact import oracle, verify
from revreact.errors import InvalidArgument, InvalidState
from revreact.functionals import CSV_COLUMNS, RunningIntegrals, sample
from revreact.grid import Grid, SpeciesFields
from revreact.model import ModelParams, conserved_masses, equilibrium_state
from revreact.solver import reaction_substep

SQRT2 = math.sqrt(2.0)


def plain_float_rk4(a0, b0, c0, t_end, substeps):
    """The one-state RK4 loop in Python floats, the batched oracle's reference."""

    def rhs(a, b, c):
        w = c - a * b
        return w, w, -w

    h = t_end / substeps
    a, b, c = float(a0), float(b0), float(c0)
    for _ in range(substeps):
        k1 = rhs(a, b, c)
        k2 = rhs(a + 0.5 * h * k1[0], b + 0.5 * h * k1[1], c + 0.5 * h * k1[2])
        k3 = rhs(a + 0.5 * h * k2[0], b + 0.5 * h * k2[1], c + 0.5 * h * k2[2])
        k4 = rhs(a + h * k3[0], b + h * k3[1], c + h * k3[2])
        a += (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        b += (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        c += (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    return a, b, c


def exact_reaction(states, dt):
    """The reaction flow over dt of each row (a, b, c) of states, in the
    closed form c(dt) = r1 + sq G / ((r2 - c) + G), G = (c - r1) exp(-sq dt),
    evaluated in 50-digit mpmath and rounded to doubles."""
    out = np.empty_like(states)
    with mpmath.workdps(50):
        for row, (a, b, c) in zip(out, states.tolist()):
            a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
            m1, m2 = a + c, b + c
            sq = mpmath.sqrt((1 + m1 + m2) ** 2 - 4 * m1 * m2)
            r1, r2 = (1 + m1 + m2 - sq) / 2, (1 + m1 + m2 + sq) / 2
            g = (c - r1) * mpmath.exp(-sq * dt)
            c_new = r1 + sq * g / ((r2 - c) + g)
            row[:] = [float(m1 - c_new), float(m2 - c_new), float(c_new)]
    return out


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
        a0, b0, c0 = rng.uniform(0.05, 3.0, size=(20, 3)).T
        state = oracle.homogeneous_ode(a0, b0, c0, 2.0, 5000)
        assert state.a + state.c == pytest.approx(a0 + c0, rel=1e-12)
        assert state.b + state.c == pytest.approx(b0 + c0, rel=1e-12)

    def test_step_too_large(self):
        with pytest.raises(InvalidArgument):
            oracle.homogeneous_ode(0.01, 0.01, 8.0, 10.0, 1)

    def test_batch_is_bit_identical_to_plain_float_loop(self, rng):
        # eight states with components from e^-8 to e^5, one of them at each end
        states = np.exp(rng.uniform(-8.0, 5.0, size=(8, 3)))
        states[0] = np.exp([-8.0, -8.0, -8.0])
        states[1] = np.exp([5.0, -8.0, 5.0])
        batch = oracle.homogeneous_ode(*states.T, 0.05, 500)
        assert batch.a.shape == batch.b.shape == batch.c.shape == (8,)
        for i, start in enumerate(states):
            assert (batch.a[i], batch.b[i], batch.c[i]) == plain_float_rk4(*start, 0.05, 500)
        # any shape, one member per index
        grid = oracle.homogeneous_ode(*(u.reshape(2, 4) for u in states.T), 0.05, 500)
        assert np.array_equal(grid.a.ravel(), batch.a) and np.array_equal(grid.c.ravel(), batch.c)

    def test_scalar_call_returns_python_floats(self):
        state = oracle.homogeneous_ode(2.0, 1.0, 0.01, 0.5, 400)
        assert all(type(x) is float for x in (state.a, state.b, state.c, state.t))
        assert (state.a, state.b, state.c) == plain_float_rk4(2.0, 1.0, 0.01, 0.5, 400)

    @pytest.mark.parametrize("bad, error, match", [
        # leaves the orthant in its first step of h = 10
        ((0.01, 0.01, 8.0), InvalidArgument, "member 1 left the positive orthant"),
        # a * b overflows: the state turns to NaN, which must not pass
        ((1e200, 1e200, 1.0), InvalidArgument, "member 1 left the positive orthant"),
        ((1.0, 0.0, 1.0), InvalidState, "must be strictly positive, member 1 is"),
        ((1.0, 1.0, float("nan")), InvalidState, "must be strictly positive, member 1 is"),
    ])
    def test_guard_is_per_member(self, bad, error, match):
        # members 0 and 2 are equilibria, which no step size moves
        a0, b0, c0 = (np.array(u) for u in zip((1.0, 1.0, 1.0), bad, (2.0, 0.5, 1.0)))
        assert oracle.homogeneous_ode(a0[::2], b0[::2], c0[::2], 10.0, 1).c.tolist() == [1.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error, match=match):
                oracle.homogeneous_ode(a0, b0, c0, 10.0, 1)

    def test_orthant_tolerance_is_each_members_own(self):
        # one step of h = 1 takes member 1's a from 1e-12 to about -2.5e-11:
        # below its own tolerance -1e-12 * 5, above member 0's -1e-12 * 100
        a0, b0, c0 = np.array([100.0, 1e-12]), np.array([1.0, 5.0]), np.array([100.0, 1e-14])
        with pytest.raises(InvalidArgument, match="member 1 left the positive orthant"):
            oracle.homogeneous_ode(a0, b0, c0, 1.0, 1)

    def test_states_must_share_one_shape(self):
        with pytest.raises(InvalidArgument, match="one shape"):
            oracle.homogeneous_ode(np.ones(3), np.ones(3), np.ones(2), 1.0, 10)

    def test_verify_oracle_and_reaction_match_the_exact_flow(self, monkeypatch):
        # verify's states and substep count, read off its own oracle call:
        # measured 1.07e-14 for RK4 at 1000 substeps (3.55e-14 at 10000) and
        # 4.4e-16 for the reaction the solver runs
        calls, homogeneous_ode = [], oracle.homogeneous_ode

        def spy(a0, b0, c0, t_end, substeps):
            calls.append((np.stack((a0, b0, c0), axis=-1), t_end, substeps))
            return homogeneous_ode(a0, b0, c0, t_end, substeps)

        monkeypatch.setattr(oracle, "homogeneous_ode", spy)
        verify.run_property_suites()
        [(states, dt, substeps)] = calls
        assert states.shape == (100, 3)
        exact = exact_reaction(states, dt)
        ref = homogeneous_ode(*states.T, dt, substeps)
        assert np.max(np.abs(np.stack((ref.a, ref.b, ref.c), axis=-1) - exact)) <= 2e-14
        got = reaction_substep(SpeciesFields(*states.T), dt)
        assert np.max(np.abs(got.stack.T - exact)) <= 1e-15


class TestBruteForceSample:
    def test_agrees_with_functionals(self, rng):
        grid = Grid.box([1.0, 0.5], [8, 4])
        params = ModelParams(1.0, 0.0, 0.7)
        for _ in range(100):
            f = SpeciesFields(
                rng.uniform(0.2, 3.0, size=grid.cells),
                rng.uniform(0.2, 3.0, size=grid.cells),
                rng.uniform(0.2, 3.0, size=grid.cells),
            )
            eq = equilibrium_state(*conserved_masses(f, grid))
            s_fast = sample(f, 0.0, eq, params, grid)
            s_slow = oracle.brute_force_sample(f, 0.0, eq, params, grid)
            for name in CSV_COLUMNS:
                x, y = s_fast[name], s_slow[name]
                assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), 1e-30)

    @pytest.mark.parametrize("diffusivities", [(1.0, 0.5, 0.8), (1.0, 0.0, 0.7),
                                               (1.0, 1.0, 0.0)], ids=["full", "db0", "dc0"])
    def test_agrees_with_functionals_in_three_dimensions(self, rng, diffusivities):
        # the stacked sample reduces over axes 1-3 of its (3, *cells) stack,
        # one more than a single field: every axis must still count once
        grid = Grid.box([1.0, 0.6, 0.45], [6, 4, 3])
        params = ModelParams(*diffusivities)
        running_fast, running_slow = RunningIntegrals(), RunningIntegrals()
        for t in (0.0, 0.5, 1.0):
            f = SpeciesFields(*(rng.uniform(0.2, 3.0, size=grid.cells) for _ in range(3)))
            eq = equilibrium_state(*conserved_masses(f, grid))
            s_fast = sample(f, t, eq, params, grid, running_fast)
            s_slow = oracle.brute_force_sample(f, t, eq, params, grid, running_slow)
            for name in CSV_COLUMNS:
                x, y = s_fast[name], s_slow[name]
                assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), 1e-30), name

    def test_running_integrals_are_not_the_rule_under_test(self, rng, monkeypatch):
        # with RunningIntegrals.update patched to a left Riemann sum, sample
        # follows it and the oracle keeps the trapezoid rule: they disagree
        def left_riemann(self, t, fa, fb):
            dt = 0.0 if self.t_prev is None else t - self.t_prev
            self.int_a2ac += dt * self.fa_prev
            self.int_b2bc += dt * self.fb_prev
            self.t_prev, self.fa_prev, self.fb_prev = t, fa, fb

        grid = Grid.box([1.0], [8])
        params = ModelParams(1.0, 0.0, 1.0)
        monkeypatch.setattr(RunningIntegrals, "update", left_riemann)
        running_fast, running_slow = RunningIntegrals(), RunningIntegrals()
        for t in (0.0, 0.5, 1.0):
            f = SpeciesFields(*(rng.uniform(0.2, 3.0, size=grid.cells) for _ in range(3)))
            eq = equilibrium_state(*conserved_masses(f, grid))
            s_fast = sample(f, t, eq, params, grid, running_fast)
            s_slow = oracle.brute_force_sample(f, t, eq, params, grid, running_slow)
        for name in ("int_a2ac", "int_b2bc"):
            assert abs(s_fast[name] - s_slow[name]) > 1e-3 * s_slow[name], name

    @pytest.mark.parametrize("with_running", [False, True])
    def test_both_samplers_key_the_csv_columns(self, with_running):
        grid = Grid.box([1.0], [8])
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 0.4)
        eq = equilibrium_state(*conserved_masses(f, grid))
        args = (f, 0.5, eq, ModelParams(1.0, 0.0, 1.0), grid)
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
        grid = Grid.box([1.0], [8])
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        s = oracle.brute_force_sample(f, 0.0, eq, ModelParams(1.0, 1.0, 1.0), grid)
        for name in ("l1_a", "l1_b", "l1_c", "ckp_lhs"):
            assert s[name] == pytest.approx(0.0, abs=1e-14)

    def test_standard_preset_initial_sample(self):
        # the standard 1D initial snapshot against the naive quadrature
        from revreact.cli import build_initial, parse_config
        from revreact.presets import PRESETS

        cfg = parse_config(PRESETS["db0_1d"])
        f = build_initial(cfg)
        eq = equilibrium_state(*conserved_masses(f, cfg.grid))
        s_fast = sample(f, 0.0, eq, cfg.params, cfg.grid)
        s_slow = oracle.brute_force_sample(f, 0.0, eq, cfg.params, cfg.grid)
        for name in CSV_COLUMNS:
            x, y = s_fast[name], s_slow[name]
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y), 1e-30)

    def test_uniform_gives_zero_deviations(self):
        grid = Grid.box([1.0], [8])
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 0.4)
        eq = equilibrium_state(*conserved_masses(f, grid))
        s = oracle.brute_force_sample(f, 0.0, eq, ModelParams(1.0, 1.0, 1.0), grid)
        assert s["dev_A2"] <= 1e-30 and s["dev_B2"] <= 1e-30 and s["dev_C2"] <= 1e-30
        # gradient energies vanish; only the reaction term contributes
        assert s["D"] == pytest.approx(
            (2.0 * 1.0 - 0.4) * math.log(2.0 * 1.0 / 0.4), rel=1e-13
        )
