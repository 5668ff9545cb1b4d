import math

import numpy as np
import pytest

from revreact.errors import InvalidArgument, LinSolveFailure, NumericalBlowup
from revreact.grid import Grid, SpeciesFields, integrate
from revreact.model import DomainSpec, ModelParams, equilibrium_state
from revreact.oracle import diffusion_substep
from revreact.solver import (
    KERNEL_MAX_CELLS,
    DiffusionSemigroup,
    SolverConfig,
    StrangStepper,
    heat_kernels,
    neumann_eigenvalues,
    reaction_substep,
    run,
)
from revreact import oracle

SQRT2 = math.sqrt(2.0)


def setup_1d(n=64, L=1.0):
    dom = DomainSpec.box([L])
    return dom, Grid.for_domain(dom, [n])


def discrete_lambda(k, n, h):
    return (4.0 / (h * h)) * math.sin(0.5 * math.pi * k / n) ** 2


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            SolverConfig(dt=1.0, t_end=0.5)
        with pytest.raises(InvalidArgument):
            SolverConfig(dt=0.1, t_end=1.0, record_every=0)

    def test_non_finite_times_rejected(self):
        for dt, t_end in ((1e-3, math.inf), (math.nan, 1.0), (1e-3, math.nan)):
            with pytest.raises(InvalidArgument):
                SolverConfig(dt=dt, t_end=t_end, record_every=10)

    def test_partial_record_interval_rejected(self):
        # 350 steps do not fill whole blocks of 100: the tail would go unrecorded
        with pytest.raises(InvalidArgument, match="record intervals"):
            SolverConfig(dt=1e-3, t_end=0.35, record_every=100)
        with pytest.raises(InvalidArgument, match="record intervals"):
            SolverConfig(dt=1e-3, t_end=0.3504, record_every=50)
        assert SolverConfig(dt=1e-3, t_end=0.35, record_every=50).n_steps == 350
        assert SolverConfig(dt=1e-3, t_end=50.0, record_every=100).n_steps == 50_000


class TestDiffusionSubstep:
    def test_constant_fixed_point(self):
        dom, grid = setup_1d()
        u = np.full(64, 2.0)
        v = diffusion_substep(u, 1.0, 0.1, grid)
        assert v == pytest.approx(u, rel=1e-12)

    def test_degenerate_identity(self):
        dom, grid = setup_1d()
        u = np.linspace(1.0, 2.0, 64)
        v = diffusion_substep(u, 0.0, 0.1, grid)
        assert np.array_equal(v, u)

    def test_eigenmode_decay_factor(self):
        # backward Euler damps the discrete mode by 1/(1 + dt d lambda_h)
        n, L, d, dt, k = 64, 1.0, 0.7, 0.05, 3
        dom, grid = setup_1d(n, L)
        x = grid.axis_coordinates(0)
        mode = np.cos(k * np.pi * x / L)
        u = 1.0 + 0.1 * mode
        lam = discrete_lambda(k, n, L / n)
        expected = 1.0 + 0.1 / (1.0 + dt * d * lam) * mode
        v = diffusion_substep(u, d, dt, grid, tol=1e-13)
        assert np.max(np.abs(v - expected)) <= 1e-10

    def test_conserves_mass_and_positivity(self, rng):
        dom, grid = setup_1d(48)
        u = rng.uniform(0.05, 2.0, size=48)
        v = diffusion_substep(u, 2.0, 0.5, grid)
        assert integrate(v, grid) == pytest.approx(integrate(u, grid), rel=1e-11)
        assert np.all(v > 0.0)

    def test_iteration_cap(self):
        dom, grid = setup_1d(32)
        u = 1.0 + 0.5 * np.cos(np.pi * grid.axis_coordinates(0))
        with pytest.raises(LinSolveFailure):
            diffusion_substep(u, 5.0, 0.1, grid, tol=1e-13, max_iter=1)


class TestSemigroup:
    def test_matches_backward_euler_at_second_order(self):
        # exp(-z) vs 1/(1+z) differ by z^2/2 + O(z^3) per mode
        dom, grid = setup_1d(32)
        u = 1.0 + 0.3 * np.cos(2 * np.pi * grid.axis_coordinates(0))
        lam = discrete_lambda(2, 32, 1.0 / 32)
        gaps = []
        for dt in (1e-5, 5e-6):
            be = diffusion_substep(u, 1.0, dt, grid, tol=1e-13)
            sg = DiffusionSemigroup(grid, 1.0, dt).apply(u)
            gaps.append(np.max(np.abs(be - sg)))
            assert gaps[-1] == pytest.approx(0.3 * (dt * lam) ** 2 / 2.0, rel=0.01)
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.02)

    def test_eigenvalue_table(self):
        lam = neumann_eigenvalues(16, 0.125)
        assert lam[0] == 0.0
        assert lam[1] == pytest.approx(discrete_lambda(1, 16, 0.125), rel=1e-13)

    def test_conservation_and_positivity(self, rng):
        dom = DomainSpec.box([1.0, 0.5])
        grid = Grid.for_domain(dom, [16, 8])
        op = DiffusionSemigroup(grid, 1.5, 0.01)
        u = rng.uniform(0.05, 2.0, size=grid.cells)
        v = op.apply(u)
        assert integrate(v, grid) == pytest.approx(integrate(u, grid), rel=1e-13)
        assert np.all(v > 0.0)


class TestThreeDimensional:
    def test_eigenvalues_add_across_axes(self):
        # a separable cosine mode decays by exp(-tau d (lx + ly + lz)), with
        # every axis a kernel axis or the first one a transform axis
        lengths = [1.0, 0.5, 0.25]
        d, tau = 0.7, 0.05
        for cells in ([8, 4, 2], [KERNEL_MAX_CELLS + 8, 4, 2]):
            grid = Grid.for_domain(DomainSpec.box(lengths), cells)
            x, y, z = grid.mesh()
            mode = np.cos(3 * np.pi * x) * np.cos(np.pi * y / 0.5) * np.cos(np.pi * z / 0.25)
            lam = sum(discrete_lambda(k, n, L / n) for k, n, L in zip((3, 1, 1), cells, lengths))
            v = DiffusionSemigroup(grid, d, tau).apply(1.0 + 0.1 * mode)
            expected = 1.0 + 0.1 * math.exp(-tau * d * lam) * mode
            assert np.max(np.abs(v - expected)) <= 1e-13, cells

    def test_semigroup_matches_cg_step_in_3d(self, rng):
        dom = DomainSpec.box([1.0, 0.5, 0.25])
        grid = Grid.for_domain(dom, [8, 4, 4])
        u = rng.uniform(0.5, 1.5, size=grid.cells)
        be = diffusion_substep(u, 1.0, 1e-5, grid, tol=1e-13)
        sg = DiffusionSemigroup(grid, 1.0, 1e-5).apply(u)
        # both approximate the same flow; they agree to O((dt*lambda)^2)
        assert np.max(np.abs(be - sg)) <= 1e-4
        assert integrate(sg, grid) == pytest.approx(integrate(u, grid), rel=1e-12)


class TestReactionSubstep:
    def test_local_equilibrium_fixed_point(self):
        dom, grid = setup_1d(4)
        f = SpeciesFields.uniform(grid, SQRT2, SQRT2 - 1.0, 2.0 - SQRT2)
        for dt in (1e-3, 0.1, 10.0):
            g = reaction_substep(f, dt)
            assert np.max(np.abs(g.c - f.c)) <= 1e-14

    def test_riccati_attractor(self):
        dom, grid = setup_1d(1)
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 1e-4)
        g = reaction_substep(f, 200.0)
        eq = equilibrium_state(2.0 + 1e-4, 1.0 + 1e-4)
        assert float(g.c[0]) == pytest.approx(eq.c_inf, rel=1e-12)
        assert float(g.a[0]) == pytest.approx(eq.a_inf, rel=1e-12)

    def test_exact_pointwise_conservation(self, rng):
        dom, grid = setup_1d(64)
        f = SpeciesFields(
            rng.uniform(0.1, 4.0, size=64),
            rng.uniform(0.1, 4.0, size=64),
            rng.uniform(0.1, 4.0, size=64),
        )
        g = reaction_substep(f, 0.37)
        assert np.max(np.abs((g.a + g.c) - (f.a + f.c)) / (f.a + f.c)) <= 5e-16
        assert np.max(np.abs((g.b + g.c) - (f.b + f.c)) / (f.b + f.c)) <= 5e-16

    def test_positivity_random(self, rng):
        dom, grid = setup_1d(64)
        for dt in (1e-3, 1.0, 50.0):
            f = SpeciesFields(
                rng.uniform(1e-4, 5.0, size=64),
                rng.uniform(1e-4, 5.0, size=64),
                rng.uniform(1e-4, 5.0, size=64),
            )
            g = reaction_substep(f, dt)
            assert np.all(g.a > 0) and np.all(g.b > 0) and np.all(g.c > 0)

    def test_extreme_time_steps(self, rng):
        # dt spanning twelve orders: conservation and positivity never break,
        # huge dt lands on the pointwise equilibrium r1
        dom, grid = setup_1d(16)
        f = SpeciesFields(
            rng.uniform(1e-3, 8.0, size=16),
            rng.uniform(1e-3, 8.0, size=16),
            rng.uniform(1e-3, 8.0, size=16),
        )
        from revreact.model import riccati_roots

        for dt in (1e-9, 1e-3, 1.0, 1e3):
            g = reaction_substep(f, dt)
            assert np.all(g.a > 0) and np.all(g.b > 0) and np.all(g.c > 0)
            assert np.max(np.abs((g.a + g.c) - (f.a + f.c))) <= 1e-14 * np.max(f.a + f.c)
        r1, _, _ = riccati_roots(f.a + f.c, f.b + f.c)
        g = reaction_substep(f, 1e3)
        assert np.max(np.abs(g.c - r1)) <= 1e-12

    def test_matches_rk4_oracle(self, rng):
        dom, grid = setup_1d(1)
        worst = 0.0
        for _ in range(100):
            a0, b0, c0 = rng.uniform(0.05, 3.0, size=3)
            f = SpeciesFields.uniform(grid, a0, b0, c0)
            g = reaction_substep(f, 0.1)
            ref = oracle.homogeneous_ode(a0, b0, c0, 0.1, 10_000)
            worst = max(
                worst,
                abs(float(g.a[0]) - ref.a),
                abs(float(g.b[0]) - ref.b),
                abs(float(g.c[0]) - ref.c),
            )
        assert worst <= 1e-10


def strang_once(f, params, dt, grid):
    """One Strang step of the fields f."""
    u = np.stack((f.a, f.b, f.c))
    return SpeciesFields(*StrangStepper(params, dt, grid).advance(u, 1))


def spectral_flow(u, d, tau, grid):
    """exp(tau d L) u by the cosine eigenbasis of the whole grid, each mode
    damped by the exponential of its summed eigenvalue."""
    bases, lams = [], []
    for n, h in zip(grid.cells, grid.spacings):
        k, i = np.arange(n)[:, None], np.arange(n)[None, :]
        # the phase k (2i+1) / (2n), reduced mod 2 exactly in integers
        basis = np.cos(np.pi * ((k * (2 * i + 1)) % (4 * n)) / (2 * n)) * math.sqrt(2.0 / n)
        basis[0] /= SQRT2
        bases.append(basis)
        lams.append([discrete_lambda(kk, n, h) for kk in range(n)])
    coeff = u
    for ax, basis in enumerate(bases):
        coeff = np.moveaxis(np.tensordot(basis, coeff, axes=([1], [ax])), 0, ax)
    coeff = coeff * np.exp(-tau * d * sum(np.ix_(*lams)))
    for ax, basis in enumerate(bases):
        coeff = np.moveaxis(np.tensordot(basis.T, coeff, axes=([1], [ax])), 0, ax)
    return coeff


class TestAxisOperators:
    def test_kernels_symmetric_doubly_stochastic(self):
        for n, rate in ((1, -1.0), (12, -0.0125), (128, -1e-5), (KERNEL_MAX_CELLS, -0.01)):
            k = heat_kernels(n, 1.0 / n, [rate])[0]
            assert np.array_equal(k, k.T)
            assert np.max(np.abs(k.sum(axis=0) - 1.0)) <= 1e-14
            assert k.min() >= -1e-15

    @pytest.mark.parametrize("lengths, cells", [([1.0], [300]), ([1.0, 0.3], [300, 6])])
    def test_long_axis_matches_spectral_reference(self, rng, lengths, cells):
        assert cells[0] > KERNEL_MAX_CELLS and all(n <= KERNEL_MAX_CELLS for n in cells[1:])
        grid = Grid.for_domain(DomainSpec.box(lengths), cells)
        u = rng.uniform(0.5, 1.5, size=(2, *grid.cells))
        ds = (0.3, 1.0)
        v = DiffusionSemigroup(grid, ds, 2e-4).apply(u)
        for k, d in enumerate(ds):
            ref = spectral_flow(u[k], d, 2e-4, grid)
            assert np.max(np.abs(v[k] - ref)) <= 1e-13
            assert abs(v[k].sum() - u[k].sum()) <= 1e-13 * u[k].sum()

    def test_dc0_3d_grid_steps_without_transforms(self, rng, monkeypatch):
        import scipy.fft

        grid = Grid.for_domain(DomainSpec.box([1.0, 0.4, 0.4]), [48, 12, 12])
        assert max(grid.cells) <= KERNEL_MAX_CELLS
        stepper = StrangStepper(ModelParams(1.0, 1.0, 0.0), 2e-3, grid)

        def forbidden(*args, **kwargs):
            raise AssertionError("cosine transform called on a kernel-only grid")

        for name in ("dct", "idct", "dctn", "idctn"):
            monkeypatch.setattr(scipy.fft, name, forbidden)
        u = rng.uniform(0.5, 1.5, size=(3, *grid.cells))
        v = stepper.advance(u, 3)
        assert np.all(np.isfinite(v)) and not np.array_equal(v, u)


class TestStackedSemigroup:
    @pytest.mark.parametrize("lengths, cells", [([1.0], [64]), ([1.0, 0.5, 0.25], [12, 6, 4])])
    def test_stack_equals_per_species_bit_for_bit(self, rng, lengths, cells):
        grid = Grid.for_domain(DomainSpec.box(lengths), cells)
        u = rng.uniform(0.5, 1.5, size=(3, *grid.cells))
        ds = (1.0, 0.5, 0.0)
        stacked = DiffusionSemigroup(grid, ds, 0.01).apply(u)
        for k, d in enumerate(ds):
            assert np.array_equal(stacked[k], DiffusionSemigroup(grid, d, 0.01).apply(u[k]))

    def test_zero_diffusivity_entry_unchanged(self, rng):
        dom, grid = setup_1d(32)
        u = rng.uniform(0.5, 1.5, size=(3, 32))
        v = DiffusionSemigroup(grid, (1.0, 0.0, 2.0), 0.1).apply(u)
        assert np.array_equal(v[1], u[1])
        assert not np.array_equal(v[0], u[0]) and not np.array_equal(v[2], u[2])

    def test_stack_length_must_match_diffusivities(self):
        dom, grid = setup_1d(32)
        with pytest.raises(ValueError):
            DiffusionSemigroup(grid, 1.0, 0.1).apply(np.ones((3, 32)))

    def test_advance_leaves_input_unmodified(self, rng):
        dom, grid = setup_1d(32)
        u = rng.uniform(0.5, 1.5, size=(3, 32))
        kept = u.copy()
        v = StrangStepper(ModelParams(1.0, 0.0, 1.0), 0.01, grid).advance(u, 3)
        assert np.array_equal(u, kept)
        assert v.shape == u.shape and not np.array_equal(v, u)


class TestStrangStep:
    def test_uniform_fields_reduce_to_reaction(self):
        dom, grid = setup_1d(32)
        params = ModelParams(1.0, 0.5, 0.8)
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 0.3)
        full = strang_once(f, params, 0.05, grid)
        react = reaction_substep(f, 0.05)
        assert np.max(np.abs(full.a - react.a)) <= 1e-13
        assert np.max(np.abs(full.c - react.c)) <= 1e-13

    def test_equilibrium_fixed_point(self):
        dom, grid = setup_1d(32)
        params = ModelParams(1.0, 0.0, 1.0)
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        g = strang_once(f, params, 0.05, grid)
        for u, v in ((f.a, g.a), (f.b, g.b), (f.c, g.c)):
            assert np.max(np.abs(u - v)) <= 1e-12


class TestRun2D:
    def test_genuinely_two_dimensional_run(self):
        # cross modes in both axes: conservation, monotonicity and the
        # inequality suite must hold sample by sample
        from revreact.functionals import bound_violation, ckp_violation
        from revreact.model import conserved_masses

        dom = DomainSpec.box([1.0, 0.45])
        grid = Grid.for_domain(dom, [32, 12])
        params = ModelParams(1.0, 0.0, 1.0)
        cfg = SolverConfig(dt=2e-3, t_end=3.0, record_every=50)
        x, y = grid.mesh()
        bump = (1.0 + 0.3 * np.cos(2 * np.pi * x)) * (1.0 + 0.2 * np.cos(np.pi * y / 0.45))
        a = SQRT2 * bump
        b = (SQRT2 - 1.0) * (2.0 - bump)
        f0 = SpeciesFields(a, b, a * b)
        traj = run(f0, params, grid, dom, cfg)
        m1 = np.array([s["M1"] for s in traj.samples])
        e_rel = np.array([s["E_rel"] for s in traj.samples])
        assert np.max(np.abs(m1 - m1[0]) / m1[0]) <= 1e-9
        assert np.all(np.diff(e_rel) <= 1e-12)
        p = dom.poincare_constant
        for s in traj.samples:
            assert ckp_violation(s["E_rel"], s["ckp_lhs"], s["M1"], s["M2"], dom.volume) == 0.0
            rhs = 4.0 * s["abc_defect"]
            for d, dev2 in zip(params.diffusivities(), (s["dev_A2"], s["dev_B2"], s["dev_C2"])):
                if d > 0.0:
                    rhs += 4.0 * d / p * dev2
            assert bound_violation(s["D"], rhs, s["M1"], s["M2"], dom.volume) == 0.0


class TestRun:
    def make_run(self, t_end=1.0, record_every=10):
        dom, grid = setup_1d(32)
        params = ModelParams(1.0, 1.0, 0.0)
        cfg = SolverConfig(dt=1e-3, t_end=t_end, record_every=record_every)
        x = grid.axis_coordinates(0)
        a = SQRT2 * (1.0 + 0.4 * np.cos(2 * np.pi * x))
        b = (SQRT2 - 1.0) * (1.0 - 0.4 * np.cos(2 * np.pi * x))
        f0 = SpeciesFields(a, b, a * b)
        return dom, grid, params, cfg, f0

    def test_times_and_samples(self):
        dom, grid, params, cfg, f0 = self.make_run()
        traj = run(f0, params, grid, dom, cfg)
        t = np.array([s["t"] for s in traj.samples])
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0)
        assert len(traj.samples) == 101
        assert traj.final_fields is not None

    def test_mass_conservation_and_monotonicity(self):
        dom, grid, params, cfg, f0 = self.make_run(t_end=2.0, record_every=20)
        traj = run(f0, params, grid, dom, cfg)
        m1 = np.array([s["M1"] for s in traj.samples])
        m2 = np.array([s["M2"] for s in traj.samples])
        assert np.max(np.abs(m1 - m1[0]) / m1[0]) <= 1e-9
        assert np.max(np.abs(m2 - m2[0]) / m2[0]) <= 1e-9
        e_rel = np.array([s["E_rel"] for s in traj.samples])
        assert np.all(np.diff(e_rel) <= 1e-12)

    def test_equilibrium_run_stays_flat(self):
        dom, grid = setup_1d(16)
        params = ModelParams(1.0, 0.5, 0.5)
        cfg = SolverConfig(dt=1e-2, t_end=1.0, record_every=10)
        eq = equilibrium_state(2.0, 1.0)
        f0 = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        traj = run(f0, params, grid, dom, cfg)
        for s in traj.samples:
            assert s["E_rel"] <= 1e-12
            assert s["D"] <= 1e-12

    def test_blowup_reported_with_time(self, monkeypatch):
        from revreact import solver as solver_mod

        dom, grid, params, cfg, f0 = self.make_run()
        real_sample = solver_mod.functionals.sample

        def poisoned(fields, t, *args, **kwargs):
            s = real_sample(fields, t, *args, **kwargs)
            if t > 0.05:
                s["E"] = float("inf")
            return s

        monkeypatch.setattr(solver_mod.functionals, "sample", poisoned)
        with pytest.raises(NumericalBlowup) as exc_info:
            run(f0, params, grid, dom, cfg)
        assert exc_info.value.t is not None and exc_info.value.t > 0.05
