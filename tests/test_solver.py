import math

import mpmath
import numpy as np
import pytest

from revreact.cli import parse_config
from revreact.errors import InvalidArgument, NumericalBlowup
from revreact.functionals import CSV_COLUMNS, RunningIntegrals, sample
from revreact.grid import (Grid, SpeciesFields, integrate, neumann_eigenvalues,
                           positive_stacks)
from revreact.model import ModelParams, conserved_masses, equilibrium_state
from revreact.presets import PRESETS
from revreact.solver import (
    KERNEL_MAX_CELLS,
    DiffusionSemigroup,
    SolverConfig,
    StrangStepper,
    heat_kernels,
    reaction_substep,
    run,
)
from revreact import oracle
from conftest import (backward_euler, box_poincare_constant, exact_flow, random_fields,
                      riccati_roots)

SQRT2 = math.sqrt(2.0)


def setup_1d(n=64, L=1.0):
    return Grid.box([L], [n])


def discrete_lambda(k, n, h):
    return (4.0 / (h * h)) * math.sin(0.5 * math.pi * k / n) ** 2


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            SolverConfig(dt=1.0, t_end=0.5, record_every=1)
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
    # the diffusion substep of the Strang step is the exact semigroup
    def test_constant_fixed_point(self):
        grid = setup_1d()
        u = np.full(64, 2.0)
        v = DiffusionSemigroup(grid, 1.0, 0.1).apply(u)
        assert v == pytest.approx(u, rel=1e-12)

    def test_degenerate_identity(self):
        grid = setup_1d()
        u = np.linspace(1.0, 2.0, 64)
        v = DiffusionSemigroup(grid, 0.0, 0.1).apply(u)
        assert np.array_equal(v, u)

    def test_eigenmode_decay_factor(self):
        # the flow damps the discrete mode by exp(-dt d lambda_h)
        n, L, d, dt, k = 64, 1.0, 0.7, 0.05, 3
        grid = setup_1d(n, L)
        x = grid.axis_coordinates(0)
        mode = np.cos(k * np.pi * x / L)
        u = 1.0 + 0.1 * mode
        lam = discrete_lambda(k, n, L / n)
        expected = 1.0 + 0.1 * math.exp(-dt * d * lam) * mode
        v = DiffusionSemigroup(grid, d, dt).apply(u)
        assert np.max(np.abs(v - expected)) <= 1e-10

    def test_conserves_mass_and_positivity(self, rng):
        grid = setup_1d(48)
        u = rng.uniform(0.05, 2.0, size=48)
        v = DiffusionSemigroup(grid, 2.0, 0.5).apply(u)
        assert integrate(v, grid) == pytest.approx(integrate(u, grid), rel=1e-11)
        assert np.all(v > 0.0)


class TestSemigroup:
    def test_matches_backward_euler_at_second_order(self):
        # exp(-z) vs 1/(1+z) differ by z^2/2 + O(z^3) per mode
        grid = setup_1d(32)
        u = 1.0 + 0.3 * np.cos(2 * np.pi * grid.axis_coordinates(0))
        lam = discrete_lambda(2, 32, 1.0 / 32)
        gaps = []
        for dt in (1e-5, 5e-6):
            be = backward_euler(u, 1.0, dt, grid)
            sg = DiffusionSemigroup(grid, 1.0, dt).apply(u)
            gaps.append(np.max(np.abs(be - sg)))
            assert gaps[-1] == pytest.approx(0.3 * (dt * lam) ** 2 / 2.0, rel=0.01)
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.02)

    def test_matches_exact_flow_in_1d(self, rng):
        # 64 kernel-axis cells against expm of the assembled stencil, on
        # random fields and on a constant field, which the flow fixes; at
        # d = 0 the flow is the identity, bit for bit
        grid = setup_1d(64)
        const = np.full(64, 2.0)
        for d, tau in ((1.0, 1e-5), (1.0, 5e-6), (0.3, 1e-3), (2.0, 1e-2)):
            op = DiffusionSemigroup(grid, d, tau)
            for u in (rng.uniform(0.5, 1.5, size=64), rng.uniform(0.05, 2.0, size=64), const):
                assert np.max(np.abs(op.apply(u) - exact_flow(u, d, tau, grid))) <= 1e-12
            assert op.apply(const) == pytest.approx(const, rel=1e-12)
            u = rng.uniform(0.5, 1.5, size=64)
            assert np.array_equal(DiffusionSemigroup(grid, 0.0, tau).apply(u), u)

    def test_eigenvalue_table(self):
        lam = neumann_eigenvalues(16, 0.125)
        assert lam[0] == 0.0
        assert lam[1] == pytest.approx(discrete_lambda(1, 16, 0.125), rel=1e-13)

    def test_conservation_and_positivity(self, rng):
        grid = Grid.box([1.0, 0.5], [16, 8])
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
            grid = Grid.box(lengths, cells)
            x, y, z = np.ix_(*map(grid.axis_coordinates, range(3)))
            mode = np.cos(3 * np.pi * x) * np.cos(np.pi * y / 0.5) * np.cos(np.pi * z / 0.25)
            lam = sum(discrete_lambda(k, n, L / n) for k, n, L in zip((3, 1, 1), cells, lengths))
            v = DiffusionSemigroup(grid, d, tau).apply(1.0 + 0.1 * mode)
            expected = 1.0 + 0.1 * math.exp(-tau * d * lam) * mode
            assert np.max(np.abs(v - expected)) <= 1e-13, cells

    def test_matches_exact_flow_in_3d(self, rng):
        grid = Grid.box([1.0, 0.5, 0.25], [8, 4, 4])
        const = np.full(grid.cells, 2.0)
        for tau in (1e-5, 1e-3, 0.1):
            op = DiffusionSemigroup(grid, 1.0, tau)
            for u in (rng.uniform(0.5, 1.5, size=grid.cells), const):
                v = op.apply(u)
                assert np.max(np.abs(v - exact_flow(u, 1.0, tau, grid))) <= 1e-12
                assert integrate(v, grid) == pytest.approx(integrate(u, grid), rel=1e-12)


class TestReactionSubstep:
    def test_local_equilibrium_fixed_point(self):
        grid = setup_1d(4)
        f = SpeciesFields.uniform(grid, SQRT2, SQRT2 - 1.0, 2.0 - SQRT2)
        for dt in (1e-3, 0.1, 10.0):
            g = reaction_substep(f, dt)
            assert np.max(np.abs(g.c - f.c)) <= 1e-14

    def test_riccati_attractor(self):
        grid = setup_1d(1)
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 1e-4)
        g = reaction_substep(f, 200.0)
        eq = equilibrium_state(2.0 + 1e-4, 1.0 + 1e-4)
        assert float(g.c[0]) == pytest.approx(eq.c_inf, rel=1e-12)
        assert float(g.a[0]) == pytest.approx(eq.a_inf, rel=1e-12)

    def test_exact_pointwise_conservation(self, rng):
        grid = setup_1d(64)
        f = SpeciesFields(
            rng.uniform(0.1, 4.0, size=64),
            rng.uniform(0.1, 4.0, size=64),
            rng.uniform(0.1, 4.0, size=64),
        )
        g = reaction_substep(f, 0.37)
        assert np.max(np.abs((g.a + g.c) - (f.a + f.c)) / (f.a + f.c)) <= 5e-16
        assert np.max(np.abs((g.b + g.c) - (f.b + f.c)) / (f.b + f.c)) <= 5e-16

    def test_positivity_random(self, rng):
        grid = setup_1d(64)
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
        grid = setup_1d(16)
        f = SpeciesFields(
            rng.uniform(1e-3, 8.0, size=16),
            rng.uniform(1e-3, 8.0, size=16),
            rng.uniform(1e-3, 8.0, size=16),
        )
        for dt in (1e-9, 1e-3, 1.0, 1e3):
            g = reaction_substep(f, dt)
            assert np.all(g.a > 0) and np.all(g.b > 0) and np.all(g.c > 0)
            assert np.max(np.abs((g.a + g.c) - (f.a + f.c))) <= 1e-14 * np.max(f.a + f.c)
        r1, _, _ = riccati_roots(f.a + f.c, f.b + f.c)
        g = reaction_substep(f, 1e3)
        assert np.max(np.abs(g.c - r1)) <= 1e-12

    def test_equals_the_allocating_closed_form_bit_for_bit(self, rng):
        # the in-place calls round as riccati_roots and the closed form do
        a, b, c = rng.uniform(0.05, 4.0, size=(3, 8, 16))
        for dt in (1e-3, 0.37, 50.0):
            m1, m2 = a + c, b + c
            r1, r2, sq = riccati_roots(m1, m2)
            g = (c - r1) * np.exp(-sq * dt)
            c_new = r1 + sq * g / ((r2 - c) + g)
            got = reaction_substep(SpeciesFields(a, b, c), dt)
            assert np.array_equal(got.stack, np.stack((m1 - c_new, m2 - c_new, c_new)))

    def test_matches_mpmath_on_a_wide_ensemble(self):
        # 1500 states log-uniform on [1e-6, 1e4]^3 and 1500 within a
        # relative 1e-6 of their equilibrium c = ab, against the closed form
        # in 40-digit arithmetic from the same doubles.  The largest relative
        # error of a, b or c comes from the cancellation in a = m1 - c_new
        # (b = m2 - c_new); the gate is the 2.63e-12 measured here with the
        # discriminant 1 + 2 (m1 + m2) + (m1 - m2)**2, and the substep's
        # (1 + m1 - m2)**2 + 4 m2 reads 2.26e-12
        gen = np.random.default_rng(20240626)
        wide = 10.0 ** gen.uniform(-6.0, 4.0, size=(3, 1500))
        a, b = 10.0 ** gen.uniform(-6.0, 4.0, size=(2, 1500))
        near = np.stack((a, b, a * b * (1.0 + gen.uniform(-1e-6, 1e-6, size=1500))))
        states = np.concatenate((wide, near), axis=1)
        worst = 0.0
        with mpmath.workdps(40):
            for dt in (1e-3, 2e-3, 0.5):
                got = reaction_substep(SpeciesFields(*states), dt).stack
                for state, new in zip(states.T.tolist(), got.T.tolist()):
                    a, b, c = map(mpmath.mpf, state)
                    m1, m2 = a + c, b + c
                    sq = mpmath.sqrt((1 + m1 - m2) ** 2 + 4 * m2)
                    r2 = (1 + m1 + m2 + sq) / 2
                    r1 = m1 * m2 / r2
                    g = (c - r1) * mpmath.exp(-sq * dt)
                    c_new = r1 + sq * g / ((r2 - c) + g)
                    for x, want in zip(new, (m1 - c_new, m2 - c_new, c_new)):
                        worst = max(worst, float(abs(x - want) / want))
        assert worst <= 2.63e-12

    def test_matches_rk4_oracle(self, rng):
        # 100 states as one (100,)-shaped field, over a short and a long step;
        # on verify's states RK4 is 1.07e-14 off the exact flow at 1000
        # substeps over 0.1, and 1.87e-14 at 3000 over 1.0 (2.35e-14 at 10000,
        # where rounding outgrows truncation, and 2.14e-13 at 1000)
        states = rng.uniform(0.05, 3.0, size=(100, 3))
        for dt, substeps in ((0.1, 1_000), (1.0, 3_000)):
            ref = oracle.homogeneous_ode(*states.T, dt, substeps)
            g = reaction_substep(SpeciesFields(*states.T), dt)
            assert np.max(np.abs(np.stack(g.species()) - np.stack((ref.a, ref.b, ref.c)))) <= 1e-10


def strang_once(f, params, dt, grid):
    """One Strang step of the fields f."""
    u = np.stack((f.a, f.b, f.c))
    return SpeciesFields(*next(StrangStepper(params, dt, grid).records(u, 1)))


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


def reference_g(n, h, rate):
    """g(m) = (e_0/2 + sum_{k>=1} e_k cos(k pi m / n)) / n of heat_kernels,
    m = 0..2n-1 with g(2n - m) = g(m), in 30-digit arithmetic from the
    floats h and rate, as the pair of float arrays hi + lo."""
    with mpmath.workdps(30):
        e = [mpmath.exp(rate * 4 / mpmath.mpf(h) ** 2 * mpmath.sinpi(mpmath.mpf(k) / (2 * n)) ** 2)
             for k in range(n)]
        e[0] /= 2
        cos = [mpmath.cospi(mpmath.mpf(j) / n) for j in range(2 * n)]
        g = [mpmath.fdot(e, [cos[k * m % (2 * n)] for k in range(n)]) / n for m in range(n + 1)]
        g += g[-2:0:-1]
        hi = [float(x) for x in g]
        return np.array(hi), np.array([float(x - y) for x, y in zip(g, hi)])


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
        grid = Grid.box(lengths, cells)
        u = rng.uniform(0.5, 1.5, size=(2, *grid.cells))
        ds = (0.3, 1.0)
        v = DiffusionSemigroup(grid, ds, 2e-4).apply(u)
        for k, d in enumerate(ds):
            ref = spectral_flow(u[k], d, 2e-4, grid)
            assert np.max(np.abs(v[k] - ref)) <= 1e-13
            assert abs(v[k].sum() - u[k].sum()) <= 1e-13 * u[k].sum()

    def test_dc0_3d_grid_steps_without_transforms(self, rng, monkeypatch):
        grid = Grid.box([1.0, 0.4, 0.4], [48, 12, 12])
        assert max(grid.cells) <= KERNEL_MAX_CELLS
        stepper = StrangStepper(ModelParams(1.0, 1.0, 0.0), 2e-3, grid)

        def forbidden(*args, **kwargs):
            raise AssertionError("FFT called on a kernel-only grid")

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, forbidden)
        u = rng.uniform(0.5, 1.5, size=(3, *grid.cells))
        v = next(stepper.records(u, 3))
        assert np.all(np.isfinite(v)) and not np.array_equal(v, u)
        # the patch reaches the transforms of a long axis
        long_axis = Grid.box([1.0], [KERNEL_MAX_CELLS + 1])
        with pytest.raises(AssertionError, match="FFT called"):
            DiffusionSemigroup(long_axis, 1.0, 2e-3).apply(np.ones(long_axis.cells))

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 48, 127, 128, 192])
    def test_kernels_match_mpmath_reference(self, n):
        # every rate a preset's half or full step builds a kernel for, a
        # near-identity and a fully mixing one, on an axis of unit length;
        # measured over these: entry error 2.4e-16, row sums 1 +- 8.9e-16,
        # min entry -7.6e-17, inside verify's gates of 2e-15 and -2e-16.
        # g as a DCT-I of e reads 2.6e-16, 1.2e-15 and -2.2e-16, and
        # cosines taken as np.cos(np.pi * j / n) row sums 1 +- 1.6e-14
        rates = sorted({-tau * d for cfg in map(parse_config, PRESETS.values())
                        for tau in (0.5 * cfg.dt, cfg.dt) for d in (cfg.d_a, cfg.d_b, cfg.d_c)
                        if d > 0.0}) + [-1e-9, -1.0]
        h = 1.0 / n
        kernels = heat_kernels(n, h, rates)
        i = np.arange(n)
        a, b = abs(i[:, None] - i).ravel(), (i[:, None] + i + 1).ravel()
        for k, rate in zip(kernels, rates):
            hi, lo = reference_g(n, h, rate)
            # k - (g(|i - j|) + g(i + j + 1)), g = hi + lo, exactly rounded
            terms = np.stack((k.ravel(), -hi[a], -hi[b], -lo[a], -lo[b]), axis=1).tolist()
            assert max(abs(math.fsum(t)) for t in terms) <= 3e-16, rate
            assert np.max(np.abs(k.sum(axis=-1) - 1.0)) <= 1.1e-15, rate
            assert k.min() >= -1e-16, rate

    @pytest.mark.parametrize("lengths, cells", [([1.0], [193]), ([1.0], [256]),
                                                ([0.3, 1.0, 0.2], [4, 256, 3])])
    @pytest.mark.parametrize("tau", [1e-6, 2e-4, 1e-2])
    def test_long_axis_matches_dense_kernels(self, rng, lengths, cells, tau):
        # the FFT of the even extension against the heat kernel of the axis
        # as if it were short; measured up to 3.4e-15
        grid = Grid.box(lengths, cells)
        assert max(grid.cells) > KERNEL_MAX_CELLS
        u = rng.uniform(0.5, 1.5, size=(2, *grid.cells))
        ds = (0.3, 1.0)
        v = DiffusionSemigroup(grid, ds, tau).apply(u)
        for k, d in enumerate(ds):
            ref = u[k]
            for ax, (n, h) in enumerate(zip(grid.cells, grid.spacings)):
                kernel = heat_kernels(n, h, [-tau * d])[0]
                ref = np.moveaxis(np.tensordot(kernel, ref, axes=([1], [ax])), 0, ax)
            assert np.max(np.abs(v[k] - ref)) <= 1e-14


class TestStackedSemigroup:
    @pytest.mark.parametrize("lengths, cells", [([1.0], [64]), ([1.0, 0.5, 0.25], [12, 6, 4])])
    def test_stack_equals_per_species_bit_for_bit(self, rng, lengths, cells):
        grid = Grid.box(lengths, cells)
        u = rng.uniform(0.5, 1.5, size=(3, *grid.cells))
        ds = (1.0, 0.5, 0.0)
        stacked = DiffusionSemigroup(grid, ds, 0.01).apply(u)
        for k, d in enumerate(ds):
            assert np.array_equal(stacked[k], DiffusionSemigroup(grid, d, 0.01).apply(u[k]))

    @pytest.mark.parametrize("n", [16, 48, 128, 192])
    def test_shared_rate_rows_agree_with_their_one_row_flows_in_1d(self, rng, n):
        # a shared kernel multiplies all rows of a 1-D stack as one matrix
        # product, and a row alone as a matrix-vector product, which BLAS
        # sums in another order: the two agree to rounding, not bit for bit;
        # measured up to 1.7e-15 on these fields of order 1 (2.4e-15 over
        # more lengths, rates and draws)
        grid = setup_1d(n)
        for ds in ((1.0, 1.0, 1.0), (1.0, 0.0, 1.0)):
            for tau in (5e-6, 1e-3, 0.1):
                u = rng.uniform(0.5, 1.5, size=(3, n))
                stacked = DiffusionSemigroup(grid, ds, tau).apply(u)
                for k, d in enumerate(ds):
                    alone = DiffusionSemigroup(grid, d, tau).apply(u[k])
                    assert np.max(np.abs(stacked[k] - alone)) <= 3e-15, (ds, tau)

    @pytest.mark.parametrize("lengths, cells", [([1.0, 0.5, 0.25], [12, 6, 4]),
                                                ([1.0, 0.45], [64, 24]),
                                                ([1.0, 0.4, 0.4], [48, 12, 12])])
    def test_shared_rate_stack_equals_per_species_bit_for_bit_in_nd(self, rng, lengths, cells):
        # on the last axis the stack's rows and each entry's rows are both
        # matrix products, which OpenBLAS sums alike on axes of 4, 12 and
        # 24 cells (not on every length: on 33 cells they differ)
        grid = Grid.box(lengths, cells)
        for ds in ((1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)):
            u = rng.uniform(0.5, 1.5, size=(3, *grid.cells))
            stacked = DiffusionSemigroup(grid, ds, 0.01).apply(u)
            for k, d in enumerate(ds):
                assert np.array_equal(stacked[k], DiffusionSemigroup(grid, d, 0.01).apply(u[k]))

    def test_zero_diffusivity_entry_unchanged(self, rng):
        grid = setup_1d(32)
        u = rng.uniform(0.5, 1.5, size=(3, 32))
        v = DiffusionSemigroup(grid, (1.0, 0.0, 2.0), 0.1).apply(u)
        assert np.array_equal(v[1], u[1])
        assert not np.array_equal(v[0], u[0]) and not np.array_equal(v[2], u[2])

    def test_moving_entries_must_be_evenly_spaced(self):
        # the moving entries are one basic slice; every set of three rows is
        grid = setup_1d(32)
        with pytest.raises(InvalidArgument, match="evenly spaced"):
            DiffusionSemigroup(grid, (1.0, 1.0, 0.0, 1.0), 0.1)
        for d in ((1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0)):
            DiffusionSemigroup(grid, d, 0.1)

    def test_stack_length_must_match_diffusivities(self):
        grid = setup_1d(32)
        with pytest.raises(ValueError):
            DiffusionSemigroup(grid, 1.0, 0.1).apply(np.ones((3, 32)))

    def test_advance_leaves_input_unmodified(self, rng):
        grid = setup_1d(32)
        u = rng.uniform(0.5, 1.5, size=(3, 32))
        kept = u.copy()
        v = next(StrangStepper(ModelParams(1.0, 0.0, 1.0), 0.01, grid).records(u, 3))
        assert np.array_equal(u, kept)
        assert v.shape == u.shape and not np.array_equal(v, u)


def preset_stepper(name):
    """The stepper and grid of a shipped preset."""
    from revreact.cli import parse_config
    from revreact.presets import PRESETS

    cfg = parse_config(PRESETS[name])
    return StrangStepper(cfg.params, cfg.dt, cfg.grid), cfg.grid


def composed_steps(stepper, u, k):
    """k Strang steps as the step-by-step composition of the allocating
    entry points: D(h/2) R [D(h) R]^(k-1) D(h/2)."""
    def react(v):
        return reaction_substep(SpeciesFields.from_stack(v), stepper.dt).stack

    v = react(stepper.half.apply(u))
    for _ in range(k - 1):
        v = react(stepper.full.apply(v))
    return stepper.half.apply(v)


class TestAdvance:
    @pytest.mark.parametrize("name", ["db0_1d", "dc0_2d", "dc0_3d", "full_1d", "long_axis"])
    def test_equals_step_by_step_composition_bit_for_bit(self, rng, name):
        # db0_1d moves the rows [0, 2], a strided slice; long_axis takes the
        # cosine-transform branch on its first axis
        if name == "long_axis":
            grid = Grid.box([1.0, 0.3], [KERNEL_MAX_CELLS + 108, 6])
            stepper = StrangStepper(ModelParams(1.0, 0.0, 0.7), 1e-3, grid)
        else:
            stepper, grid = preset_stepper(name)
        u = rng.uniform(0.5, 1.5, size=(3, *grid.cells))
        for k in (1, 3):
            assert np.array_equal(next(stepper.records(u, k)), composed_steps(stepper, u, k)), k

    def test_results_are_not_aliased(self, rng):
        stepper, grid = preset_stepper("dc0_2d")
        u = rng.uniform(0.5, 1.5, size=(3, *grid.cells))
        first = next(stepper.records(u, 3))
        kept = first.copy()
        second = next(stepper.records(first, 3))
        assert np.array_equal(first, kept)
        # a reused stepper and a new one give the same results
        assert np.array_equal(next(stepper.records(u, 3)), kept)
        assert np.array_equal(next(stepper.records(first, 3)), second)
        assert np.array_equal(next(preset_stepper("dc0_2d")[0].records(u, 3)), kept)

    @pytest.mark.parametrize("lengths, cells", [([1.0], [32]), ([1.0, 0.5, 0.25], [8, 4, 4])])
    def test_rejects_a_stack_of_another_shape(self, rng, lengths, cells):
        # a stack of one, or one whose last axis would broadcast, must not
        # be written into the three rows of the state
        grid = Grid.box(lengths, cells)
        stepper = StrangStepper(ModelParams(1.0, 0.0, 1.0), 0.01, grid)
        for shape in ((1, *cells), (3, *cells[:-1], 1), (4, *cells), tuple(cells)):
            u = rng.uniform(0.5, 1.5, size=shape)
            kept = u.copy()
            with pytest.raises(ValueError):
                next(stepper.records(u, 2))
            assert np.array_equal(u, kept)

    def test_memory_on_the_dc0_3d_grid(self, rng):
        # the work arrays of one call peak within 12 fields, the allocating
        # step's peak, and none of them outlives the call
        import tracemalloc

        stepper, grid = preset_stepper("dc0_3d")
        u = rng.uniform(0.5, 1.5, size=(3, *grid.cells))
        field_bytes = u[0].nbytes
        next(stepper.records(u, 2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            v = next(stepper.records(u, 50))
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 12 * field_bytes
        assert v.nbytes <= after - before <= v.nbytes + 1024


class TestStepCalls:
    # the calls a records iterator binds for one full step: its diffusion,
    # then the 24 of the reaction
    @pytest.mark.parametrize("name", ["full_1d", "db0_1d", "dc0_1d"])
    def test_one_2d_product_and_24_reaction_calls_per_step(self, rng, name):
        stepper, grid = preset_stepper(name)
        assert stepper.step_calls == 0
        u = rng.uniform(0.5, 1.5, size=(3, *grid.cells))
        next(stepper.records(u, 2))
        assert stepper.step_calls == 1 + 24
        shape = stepper.full.work_shape
        diffusion = stepper.full.calls(np.empty(shape), np.empty(shape), np.empty((2, *shape)))
        assert [call.func for call in diffusion] == [np.dot]
        assert [x.ndim for x in diffusion[0].args] == [2, 2, 2]

    def test_distinct_rates_keep_the_per_species_stacked_product(self, rng):
        stepper, grid = preset_stepper("uniform_ode")
        next(stepper.records(rng.uniform(0.5, 1.5, size=(3, *grid.cells)), 2))
        assert stepper.step_calls == 1 + 24
        shape = stepper.full.work_shape
        diffusion = stepper.full.calls(np.empty(shape), np.empty(shape), np.empty((2, *shape)))
        assert [call.func for call in diffusion] == [np.matmul]
        assert diffusion[0].args[1].shape == (3, *grid.cells, *grid.cells)


def placed_copy(u, offset):
    """A copy of u whose data starts offset bytes past a 64-byte boundary,
    as a view into a larger buffer."""
    buffer = np.empty(u.size + 16)
    start = (-buffer.ctypes.data % 64 + offset) // 8
    v = buffer[start:start + u.size].reshape(u.shape)
    v[...] = u
    assert v.ctypes.data % 64 == offset
    return v


class TestAlignment:
    # every array a step's calls read or write starts on a 64-byte boundary,
    # where matmul and the reaction's ufuncs run at full speed
    @pytest.mark.parametrize("n", [1, 12, 48, 128, 192])
    def test_heat_kernels_start_on_64_bytes(self, n):
        for rates in ([-0.01], [-0.01, -0.02]):
            kernels = heat_kernels(n, 1.0 / n, rates)
            assert kernels.ctypes.data % 64 == 0 and kernels.flags.c_contiguous

    @pytest.mark.parametrize("lengths, cells, d", [
        ([1.0], [128], (0.01, 0.01, 0.01)),
        ([1.0], [48], (1.0, 0.0, 1.0)),
        ([1.0, 0.5], [48, 12], (1.0, 1.0, 0.0)),
        ([1.0, 0.4, 0.4], [48, 12, 12], (1.0, 1.0, 0.0)),
        ([1.0, 0.5, 0.25], [12, 6, 4], (1.0, 0.5, 0.25)),
    ])
    def test_kernels_and_state_start_on_64_bytes(self, rng, lengths, cells, d):
        grid = Grid.box(lengths, cells)
        stepper = StrangStepper(ModelParams(*d), 1e-3, grid)
        for semigroup in (stepper.half, stepper.full, DiffusionSemigroup(grid, d, 0.1)):
            assert all(kernel.ctypes.data % 64 == 0 for _, kernel, _ in semigroup.axes)
        u = rng.uniform(0.5, 1.5, size=(3, *grid.cells))
        states = stepper.records(placed_copy(u, 8), 2)
        assert next(states).ctypes.data % 64 == 0
        assert next(states).ctypes.data % 64 == 0

    @pytest.mark.parametrize("name", ["db0_1d", "dc0_3d", "full_1d"])
    def test_results_do_not_depend_on_input_placement(self, rng, name):
        stepper, grid = preset_stepper(name)
        u = rng.uniform(0.5, 1.5, size=(3, *grid.cells))
        aligned, shifted = placed_copy(u, 0), placed_copy(u, 8)
        assert np.array_equal(next(stepper.records(aligned, 3)),
                              next(stepper.records(shifted, 3)))
        for semigroup in (stepper.half, stepper.full):
            assert np.array_equal(semigroup.apply(aligned), semigroup.apply(shifted))
        assert np.array_equal(
            reaction_substep(SpeciesFields.from_stack(aligned), stepper.dt).stack,
            reaction_substep(SpeciesFields.from_stack(shifted), stepper.dt).stack)


class TestStrangStep:
    def test_uniform_fields_reduce_to_reaction(self):
        grid = setup_1d(32)
        params = ModelParams(1.0, 0.5, 0.8)
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 0.3)
        full = strang_once(f, params, 0.05, grid)
        react = reaction_substep(f, 0.05)
        assert np.max(np.abs(full.a - react.a)) <= 1e-13
        assert np.max(np.abs(full.c - react.c)) <= 1e-13

    def test_equilibrium_fixed_point(self):
        grid = setup_1d(32)
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
        from revreact.functionals import bound_violation, ckp_violation, dissipation_bound_rhs

        grid = Grid.box([1.0, 0.45], [32, 12])
        params = ModelParams(1.0, 0.0, 1.0)
        cfg = SolverConfig(dt=2e-3, t_end=3.0, record_every=50)
        x, y = np.ix_(*map(grid.axis_coordinates, range(2)))
        bump = (1.0 + 0.3 * np.cos(2 * np.pi * x)) * (1.0 + 0.2 * np.cos(np.pi * y / 0.45))
        a = SQRT2 * bump
        b = (SQRT2 - 1.0) * (2.0 - bump)
        f0 = SpeciesFields(a, b, a * b)
        traj = run(f0, params, grid, cfg)
        cols = traj.columns
        m1 = cols["M1"]
        assert np.max(np.abs(m1 - m1[0]) / m1[0]) <= 1e-9
        assert np.all(np.diff(cols["E_rel"]) <= 1e-12)
        masses = (cols["M1"], cols["M2"], grid.volume)
        assert np.all(ckp_violation(cols["E_rel"], cols["ckp_lhs"], *masses) == 0.0)
        rhs = dissipation_bound_rhs((cols["dev_A2"], cols["dev_B2"], cols["dev_C2"]),
                                    cols["abc_defect"], params,
                                    box_poincare_constant(grid.lengths))
        assert np.all(bound_violation(cols["D"], rhs, *masses) == 0.0)


#: the CSV columns that swap when a and b do; b_lN2 has no a twin
AB_TWINS = {"M1": "M2", "l1_a": "l1_b", "dev_A2": "dev_B2", "a_l32": "b_l32",
            "int_a2ac": "int_b2bc"}
AB_TWINS.update({v: k for k, v in AB_TWINS.items()})


class TestSpeciesSymmetry:
    # A + B <-> C is symmetric in a and b: swapping a and b together with
    # d_a and d_b swaps the run.  db0 has no swapped twin (d_a stays positive)
    @pytest.mark.parametrize("cells, lengths", [
        ([128], [1.0]), ([24, 16], [1.0, 0.7]), ([12, 6, 6], [1.0, 0.5, 0.5])],
        ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("d", [(1.0, 0.5, 0.0), (0.3, 0.7, 0.2)], ids=["dc0", "full"])
    def test_swapping_a_and_b_swaps_the_run(self, rng, cells, lengths, d):
        # the two runs differ only by rounding: measured over seven seeds, at
        # most 2.9e-15 relative on the final fields and, on every column,
        # 2.5e-15 of |x| + |x(0)|, a floor that covers the dev_*2 and l1_*
        # values decayed to 1e-13, whose relative difference reaches 1.5e-10
        grid = Grid.box(lengths, cells)
        cfg = SolverConfig(dt=1e-3, t_end=2.0, record_every=100)
        f = random_fields(rng, grid)
        x = run(f, ModelParams(*d), grid, cfg)
        y = run(SpeciesFields(f.b, f.a, f.c), ModelParams(d[1], d[0], d[2]), grid, cfg)
        fx, fy = x.final_fields.stack, y.final_fields.stack[[1, 0, 2]]
        assert np.max(np.abs(fx - fy) / fx) <= 1e-14
        for name in CSV_COLUMNS:
            if name == "b_lN2":
                continue
            xs = x.columns[name]
            ys = y.columns[AB_TWINS.get(name, name)]
            assert np.all(np.abs(xs - ys) <= 1e-14 * (np.abs(xs) + abs(xs[0]))), name


class TestRun:
    def make_run(self, t_end=1.0, record_every=10):
        grid = setup_1d(32)
        params = ModelParams(1.0, 1.0, 0.0)
        cfg = SolverConfig(dt=1e-3, t_end=t_end, record_every=record_every)
        x = grid.axis_coordinates(0)
        a = SQRT2 * (1.0 + 0.4 * np.cos(2 * np.pi * x))
        b = (SQRT2 - 1.0) * (1.0 - 0.4 * np.cos(2 * np.pi * x))
        f0 = SpeciesFields(a, b, a * b)
        return grid, params, cfg, f0

    def test_times_and_samples(self):
        grid, params, cfg, f0 = self.make_run()
        traj = run(f0, params, grid, cfg)
        t = traj.columns["t"]
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0)
        assert len(t) == 101
        assert traj.final_fields is not None

    def test_mass_conservation_and_monotonicity(self):
        grid, params, cfg, f0 = self.make_run(t_end=2.0, record_every=20)
        traj = run(f0, params, grid, cfg)
        m1 = traj.columns["M1"]
        m2 = traj.columns["M2"]
        assert np.max(np.abs(m1 - m1[0]) / m1[0]) <= 1e-9
        assert np.max(np.abs(m2 - m2[0]) / m2[0]) <= 1e-9
        e_rel = traj.columns["E_rel"]
        assert np.all(np.diff(e_rel) <= 1e-12)

    def test_equilibrium_run_stays_flat(self):
        grid = setup_1d(16)
        params = ModelParams(1.0, 0.5, 0.5)
        cfg = SolverConfig(dt=1e-2, t_end=1.0, record_every=10)
        eq = equilibrium_state(2.0, 1.0)
        f0 = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        traj = run(f0, params, grid, cfg)
        for e_rel, diss in zip(traj.columns["E_rel"], traj.columns["D"]):
            assert e_rel <= 1e-12
            assert diss <= 1e-12

    @pytest.mark.parametrize("block_bytes, blocks", [
        (None, 5), (4 * 3 * 8 * 32, 51), (256 * 3 * 8 * 32, 1)], ids=["default", "four", "whole"])
    def test_blocks_equal_the_record_by_record_composition(self, monkeypatch, block_bytes,
                                                           blocks):
        # 201 records: a multiple neither of the 42 records per block of the
        # 32-cell grid nor of 4, so the last block is short; or one block of
        # the whole run, clipped from 256 records to 201
        from revreact import solver as solver_mod

        if block_bytes is not None:
            monkeypatch.setattr(solver_mod, "BLOCK_BYTES", block_bytes)
        grid, params, cfg, f0 = self.make_run(t_end=0.4, record_every=2)
        traj = run(f0, params, grid, cfg)
        n_records = len(traj.columns["t"])
        assert n_records == 201
        assert -(-n_records // solver_mod.block_records(grid)) == blocks
        stepper = StrangStepper(params, cfg.dt, grid)
        eq = equilibrium_state(*conserved_masses(f0, grid))
        running = RunningIntegrals()
        u = f0.stack
        for i in range(n_records):
            if i:
                u = next(stepper.records(u, cfg.record_every))
            s = sample(SpeciesFields.from_stack(u), i * cfg.record_every * cfg.dt, eq, params,
                       grid, running)
            for name in CSV_COLUMNS:
                assert traj.columns[name][i].tobytes() == np.float64(s[name]).tobytes(), (i, name)
        assert np.array_equal(traj.final_fields.stack, u)
        # the final fields hold their own state, not a row of the block
        # buffer the run reused
        owner = traj.final_fields.stack
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == u.nbytes

    @pytest.mark.parametrize("block_bytes, blocks, iterators", [
        (None, 3, 1), (3 * 8 * 32, 101, 101)], ids=["blocks", "one_record"])
    def test_one_records_iterator_per_run_unless_a_block_holds_one_record(
            self, monkeypatch, block_bytes, blocks, iterators):
        # make_run's 101 records fill 3 blocks of 42 on its 32 cells: one
        # iterator continues through all of them and is freed before the
        # last block is sampled; with a block of one record each block binds
        # its own, freed before the block is sampled
        import weakref

        from revreact import solver as solver_mod

        if block_bytes is not None:
            monkeypatch.setattr(solver_mod, "BLOCK_BYTES", block_bytes)
        grid, params, cfg, f0 = self.make_run()
        last_t = cfg.record_times()[-1]
        real_records = StrangStepper.records
        real_sample = solver_mod.functionals.sample
        made, alive = [], []

        def watched_records(stepper, u, n_steps):
            states = real_records(stepper, u, n_steps)
            made.append(weakref.ref(states))
            return states

        def watched_sample(states, t, *args, **kwargs):
            alive.append((t[-1] == last_t, sum(ref() is not None for ref in made)))
            return real_sample(states, t, *args, **kwargs)

        monkeypatch.setattr(StrangStepper, "records", watched_records)
        monkeypatch.setattr(solver_mod.functionals, "sample", watched_sample)
        run(f0, params, grid, cfg)
        assert len(made) == iterators
        assert len(alive) == blocks
        assert alive[-1] == (True, 0)
        assert all(n == (iterators == 1) for _, n in alive[:-1])

    @pytest.mark.parametrize("bad, step_fails", [
        ("sample", False), ("sample", True), ("state", False), ("state", True), (None, True),
        ("block_start", False)])
    def test_blowup_inside_a_block_reports_the_earliest_failure(self, monkeypatch, bad,
                                                                 step_fails):
        # make_run's 101 records fill a block of 85 and one of 16: record 40
        # is bad, and the step to record 60, in the same block, leaves a NaN;
        # record 85, bad in the block_start case, is row 0 of the second
        # block, so no record of that block comes before it
        from revreact import solver as solver_mod

        monkeypatch.setattr(solver_mod, "BLOCK_BYTES", 85 * 3 * 8 * 32)
        grid, params, cfg, f0 = self.make_run()
        assert solver_mod.block_records(grid) > 60
        t_bad, t_step, t_start = (i * cfg.record_every * cfg.dt for i in (40, 60, 85))
        real_sample = solver_mod.functionals.sample
        real_records = StrangStepper.records
        made = []

        def poisoned_sample(states, t, *args, **kwargs):
            s = real_sample(states, t, *args, **kwargs)
            if bad == "sample":
                s["D"] = np.where(s["t"] == t_bad, np.nan, s["D"])
            return s

        def poisoned_records(stepper, u, n_steps):
            for state in real_records(stepper, u, n_steps):
                made.append(state)
                if step_fails and len(made) == 60:
                    state = state.copy()
                    state[1, 5] = np.nan
                if bad == "state" and len(made) == 40 or bad == "block_start" and len(made) == 85:
                    state = state.copy()
                    state[1, 5] = -1.0
                yield state

        monkeypatch.setattr(solver_mod.functionals, "sample", poisoned_sample)
        monkeypatch.setattr(StrangStepper, "records", poisoned_records)
        with pytest.raises(NumericalBlowup) as exc_info:
            run(f0, params, grid, cfg)
        expected = {"sample": f"non-finite functional at t = {t_bad}",
                    "state": f"field b must be strictly positive at t = {t_bad}",
                    "block_start": f"field b must be strictly positive at t = {t_start}",
                    None: f"field b contains non-finite entries at t = {t_step}"}[bad]
        assert exc_info.value.t == {"block_start": t_start, None: t_step}.get(bad, t_bad)
        assert str(exc_info.value) == expected

    def test_floating_point_settings_are_left_as_found(self):
        # run ignores numpy's floating-point errors only while it runs, both
        # when it returns and when it raises at t = 0 (masses 1e308 overflow)
        # or later (a and b round to 0 at masses 1e32)
        grid, params, cfg, f0 = self.make_run(t_end=0.1)
        settings = {"divide": "raise", "over": "warn", "under": "ignore", "invalid": "print"}
        with np.errstate(**settings):
            run(f0, params, grid, cfg)
            assert np.geterr() == settings
            for huge, t in ((1e308, 0.0), (1e32, 0.01)):
                with pytest.raises(NumericalBlowup) as exc_info:
                    run(SpeciesFields.uniform(grid, huge, huge, huge), params, grid, cfg)
                assert exc_info.value.t == t
                assert np.geterr() == settings

    def test_an_overflowing_first_integrand_is_a_blowup_at_t0(self):
        # a * a overflows where a peaks above 1.34e154, and at t = 0 only in
        # the integrand of int_a2ac: the first record's trapezoid of width 0
        # turns it into a NaN there, so the run ends at the first record
        grid, params, cfg, _ = self.make_run(t_end=0.1)
        a = 8e153 * (1.0 + 0.9 * np.cos(2 * np.pi * grid.axis_coordinates(0)))
        f0 = SpeciesFields(a, np.full_like(a, 1e-3), np.full_like(a, 1e-3))
        with pytest.raises(NumericalBlowup) as exc_info:
            run(f0, params, grid, cfg)
        assert exc_info.value.t == 0.0
        assert str(exc_info.value) == "non-finite functional at t = 0.0"

    @pytest.mark.parametrize("init, start", [
        # c_inf underflows to 0: the check of the reference's components
        ((1e-170, 1e-170, 1e-170), "equilibrium (2e-170, 2e-170, 0.0) is not finite"),
        # the masses overflow: an InvalidState from the reference's algebra
        ((1e308, 1e308, 1e308), "masses must be finite and nonnegative"),
    ])
    def test_a_blowup_at_t0_words_t_alike_on_every_path(self, init, start):
        grid, params, cfg, _ = self.make_run(t_end=0.1)
        with pytest.raises(NumericalBlowup) as exc_info:
            run(SpeciesFields.uniform(grid, *init), params, grid, cfg)
        assert exc_info.value.t == 0.0
        assert str(exc_info.value).startswith(start)
        assert str(exc_info.value).endswith(" at t = 0.0")

    def test_blowup_reported_with_time(self, monkeypatch):
        from revreact import solver as solver_mod

        grid, params, cfg, f0 = self.make_run()
        real_sample = solver_mod.functionals.sample

        def poisoned(states, t, *args, **kwargs):
            s = real_sample(states, t, *args, **kwargs)
            s["E"] = np.where(s["t"] > 0.05, np.inf, s["E"])
            return s

        monkeypatch.setattr(solver_mod.functionals, "sample", poisoned)
        with pytest.raises(NumericalBlowup) as exc_info:
            run(f0, params, grid, cfg)
        assert exc_info.value.t is not None and exc_info.value.t > 0.05


class TestFailurePremise:
    """run finds every failure from the values it records, with numpy's
    floating-point errors ignored.  That rests on two facts, checked here
    on seeded states of extreme magnitude, where numpy's traps on division
    by zero, overflow and invalid values fire: steps that trap leave a
    record state that fails the positivity rule, and a sample that traps
    on a record leaves a non-finite value in its row.
    The converse of the second fact need not hold, and run needs it not:
    ckp_lhs is Python float arithmetic, which overflows without a trap,
    and the running integrals carry a non-finite value to later rows."""

    TRAPS = {"divide": "raise", "over": "raise", "invalid": "raise", "under": "ignore"}

    @staticmethod
    def extreme(rng, shape, n_cells, low, high, spread):
        """Positive states of shape (..., 3, *cells): each state at a scale
        of 10**low to 10**high, each species within spread decades of it
        and each cell within three decades of its species."""
        lead = shape[:len(shape) - n_cells - 1]
        scale = 10.0 ** (rng.uniform(low, high, size=lead + (1,))
                         + rng.uniform(-spread, spread, size=lead + (3,)))
        return scale.reshape(lead + (3,) + (1,) * n_cells) * 10.0 ** rng.uniform(
            -3.0, 3.0, size=shape)

    @pytest.mark.parametrize("cells, lengths", [
        ((24,), (1.0,)), ((KERNEL_MAX_CELLS + 8,), (3.0,)), ((6, 5), (1.0, 0.5)),
        ((4, 3, 3), (2.0, 1.0, 1.0))], ids=["1d", "1d_long", "2d", "3d"])
    @pytest.mark.parametrize("d", [(1.0, 1.0, 0.0), (1.0, 0.0, 1.0), (0.3, 0.7, 0.2)],
                             ids=["dc0", "db0", "full"])
    def test_a_trap_leaves_a_value_the_run_rejects(self, cells, lengths, d):
        rng = np.random.default_rng(7)
        grid = Grid.box(lengths, cells)
        params = ModelParams(*d)
        seen = {"trapped": 0, "valid": 0}
        for dt in (1e-3, 0.3):
            stepper = StrangStepper(params, dt, grid)
            for _ in range(15):
                u = self.extreme(rng, (3,) + cells, len(cells), -20.0, 30.0, 130.0)
                k = int(rng.integers(1, 4))
                with np.errstate(all="ignore"):
                    valid = bool(positive_stacks(next(stepper.records(u, k))))
                try:
                    with np.errstate(**self.TRAPS):
                        next(stepper.records(u, k))
                except FloatingPointError:
                    assert not valid, (dt, k)
                    seen["trapped"] += 1
                seen["valid"] += valid
        assert min(seen.values()) > 0, seen

        seen = {"trapped": 0, "finite": 0}
        times = np.arange(4) * 0.1
        for _ in range(6):
            block = self.extreme(rng, (4, 3) + cells, len(cells), -5.0, 150.0, 3.0)
            eq = equilibrium_state(*(10.0 ** rng.uniform(-3.0, 3.0, size=2)).tolist())
            with np.errstate(all="ignore"):
                s = sample(block, times, eq, params, grid, RunningIntegrals())
            finite = np.isfinite(list(s.values())).all(axis=0)
            for i in range(len(block)):
                try:
                    with np.errstate(**self.TRAPS):
                        sample(block[i:i + 1], times[i:i + 1], eq, params, grid,
                               RunningIntegrals())
                except FloatingPointError:
                    assert not finite[i], i
                    seen["trapped"] += 1
            seen["finite"] += int(finite.sum())
        assert min(seen.values()) > 0, seen
