import math

import numpy as np
import pytest

from revreact.errors import DegenerateEquilibrium
from revreact.functionals import (
    CKP_PREFACTOR,
    RunningIntegrals,
    bound_violation,
    ckp_lower_bound,
    ckp_violation,
    dissipation,
    dissipation_bound_rhs,
    dissipation_deviation_bound,
    entropy,
    reaction_production,
    relative_entropy,
    sample,
)
from revreact.grid import Grid, SpeciesFields
from revreact.model import DomainSpec, ModelParams, conserved_masses, equilibrium_state

SQRT2 = math.sqrt(2.0)


def unit_setup(n=64, L=1.0):
    dom = DomainSpec.box([L])
    return dom, Grid.for_domain(dom, [n])


def random_fields(rng, grid, lo=0.2, hi=3.0):
    return SpeciesFields(
        rng.uniform(lo, hi, size=grid.cells),
        rng.uniform(lo, hi, size=grid.cells),
        rng.uniform(lo, hi, size=grid.cells),
    )


class TestEntropy:
    def test_all_ones_is_zero(self):
        dom, grid = unit_setup(8)
        f = SpeciesFields.uniform(grid, 1.0, 1.0, 1.0)
        assert entropy(f, grid) == 0.0

    def test_two_one_one(self):
        dom, grid = unit_setup(16)
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 1.0)
        assert entropy(f, grid) == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-13)

    def test_nonnegative_random(self, rng):
        dom, grid = unit_setup(32)
        for _ in range(50):
            assert entropy(random_fields(rng, grid, 0.05, 5.0), grid) >= 0.0


class TestRelativeEntropy:
    def test_zero_at_equilibrium(self):
        dom, grid = unit_setup(8)
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        assert relative_entropy(f, eq, grid) == pytest.approx(0.0, abs=1e-15)

    def test_entropy_difference_identity(self):
        # masses of uniform (2,1,1) are (3,2); relative entropy equals the
        # entropy gap to the equilibrium taken as a uniform field
        dom, grid = unit_setup(32)
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 1.0)
        eq = equilibrium_state(3.0, 2.0)
        f_eq = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        gap = entropy(f, grid) - entropy(f_eq, grid)
        assert relative_entropy(f, eq, grid) == pytest.approx(gap, rel=1e-12)

    def test_identity_on_random_mass_matched_fields(self, rng):
        dom, grid = unit_setup(48)
        for _ in range(20):
            f = random_fields(rng, grid)
            m1, m2 = conserved_masses(f, grid, dom)
            eq = equilibrium_state(m1, m2)
            f_eq = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
            gap = entropy(f, grid) - entropy(f_eq, grid)
            assert relative_entropy(f, eq, grid) == pytest.approx(gap, rel=1e-12)

    def test_nonnegative_random(self, rng):
        dom, grid = unit_setup(32)
        eq = equilibrium_state(2.0, 1.5)
        for _ in range(50):
            assert relative_entropy(random_fields(rng, grid), eq, grid) >= 0.0

    def test_degenerate_equilibrium_rejected(self):
        dom, grid = unit_setup(4)
        f = SpeciesFields.uniform(grid, 1.0, 1.0, 1.0)
        eq = equilibrium_state(0.0, 5.0)
        with pytest.raises(DegenerateEquilibrium):
            relative_entropy(f, eq, grid)


class TestDissipation:
    def test_zero_at_homogeneous_equilibrium(self):
        dom, grid = unit_setup(16)
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        params = ModelParams(1.0, 0.0, 1.0)
        assert dissipation(f, params, grid) == 0.0

    def test_uniform_reaction_only(self):
        # a = b = 1, c = e: reaction term (1-e) ln(1/e) = e - 1
        dom, grid = unit_setup(16)
        f = SpeciesFields.uniform(grid, 1.0, 1.0, math.e)
        for params in (ModelParams(1.0, 0.0, 1.0), ModelParams(2.0, 3.0, 0.0)):
            assert dissipation(f, params, grid) == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_pointwise_reaction_sign(self, rng):
        a = rng.uniform(0.01, 5.0, size=1000)
        b = rng.uniform(0.01, 5.0, size=1000)
        c = rng.uniform(0.01, 5.0, size=1000)
        assert np.all(reaction_production(a, b, c) >= 0.0)

    def test_nonnegative_random(self, rng):
        dom, grid = unit_setup(32)
        params = ModelParams(0.7, 1.2, 0.0)
        for _ in range(30):
            assert dissipation(random_fields(rng, grid), params, grid) >= 0.0


class TestCkp:
    def test_prefactor_value(self):
        assert CKP_PREFACTOR == pytest.approx(
            (3.0 + 2.0 * SQRT2) / (9.0 + 2.0 * SQRT2), rel=1e-15
        )
        assert CKP_PREFACTOR == pytest.approx(0.4927474349, abs=1e-9)

    def test_zero_at_equilibrium(self):
        dom, grid = unit_setup(8)
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        assert ckp_lower_bound(f, eq, grid) == pytest.approx(0.0, abs=1e-28)

    def test_bounded_by_relative_entropy(self, rng):
        dom, grid = unit_setup(64)
        for _ in range(200):
            f = random_fields(rng, grid, 0.1, 4.0)
            m1, m2 = conserved_masses(f, grid, dom)
            eq = equilibrium_state(m1, m2)
            e_rel = relative_entropy(f, eq, grid)
            ckp = ckp_lower_bound(f, eq, grid)
            assert ckp_violation(e_rel, ckp, m1, m2, dom.volume) == 0.0


class TestDissipationBound:
    def test_equilibrium_is_zero_pair(self):
        dom, grid = unit_setup(16)
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        lhs, rhs = dissipation_deviation_bound(f, ModelParams(1.0, 0.0, 1.0), dom, grid)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_uniform_fields_reduce_to_algebraic_inequality(self, rng):
        # uniform data: lhs is the reaction term, rhs is 4||AB-C||^2, and the
        # inequality is (x-y)(ln x - ln y) >= 4 (sqrt x - sqrt y)^2 cellwise
        dom, grid = unit_setup(8)
        params = ModelParams(1.0, 1.0, 1.0)
        for _ in range(100):
            a0, b0, c0 = rng.uniform(0.05, 4.0, size=3)
            f = SpeciesFields.uniform(grid, a0, b0, c0)
            lhs, rhs = dissipation_deviation_bound(f, params, dom, grid)
            x, y = a0 * b0, c0
            assert lhs == pytest.approx((x - y) * (math.log(x) - math.log(y)), rel=1e-12, abs=1e-25)
            assert rhs == pytest.approx(4.0 * (math.sqrt(x) - math.sqrt(y)) ** 2, rel=1e-12, abs=1e-25)
            assert lhs >= rhs - 1e-14

    def test_algebraic_inequality_scalar(self, rng):
        x = rng.uniform(1e-6, 1e3, size=2000)
        y = rng.uniform(1e-6, 1e3, size=2000)
        lhs = (x - y) * (np.log(x) - np.log(y))
        rhs = 4.0 * (np.sqrt(x) - np.sqrt(y)) ** 2
        assert np.all(lhs >= rhs - 1e-12 * np.maximum(lhs, 1.0))

    def test_random_fields_hold_bound(self, rng):
        dom, grid = unit_setup(128)
        modes = [ModelParams(1.0, 0.0, 1.0), ModelParams(1.0, 1.0, 0.0), ModelParams(1.0, 0.5, 0.8)]
        for i in range(150):
            f = random_fields(rng, grid)
            m1, m2 = conserved_masses(f, grid, dom)
            lhs, rhs = dissipation_deviation_bound(f, modes[i % 3], dom, grid)
            assert bound_violation(lhs, rhs, m1, m2, dom.volume) == 0.0

    def test_recorded_columns_give_the_same_rhs(self, rng):
        # analyze rebuilds rhs from the CSV columns; it must equal the
        # snapshot's rhs exactly, per sample and over an array of samples
        dom, grid = unit_setup(64)
        params = ModelParams(1.0, 0.0, 0.7)
        samples, rhs_direct = [], []
        for _ in range(5):
            f = random_fields(rng, grid)
            eq = equilibrium_state(*conserved_masses(f, grid, dom))
            samples.append(sample(f, 0.0, eq, params, dom, grid))
            rhs_direct.append(dissipation_deviation_bound(f, params, dom, grid)[1])
        P = dom.poincare_constant
        for s, rhs in zip(samples, rhs_direct):
            dev2 = (s.dev_a2, s.dev_b2, s.dev_c2)
            assert dissipation_bound_rhs(dev2, s.abc_defect, params.diffusivities(), P) == rhs
        columns = [np.array([getattr(s, k) for s in samples]) for k in ("dev_a2", "dev_b2", "dev_c2")]
        defects = np.array([s.abc_defect for s in samples])
        assert np.array_equal(
            dissipation_bound_rhs(columns, defects, params.diffusivities(), P), rhs_direct)

    def test_degenerate_mode_drops_deviation_term(self):
        # d_b = 0: perturbing only b leaves the rhs gradient part unchanged
        dom, grid = unit_setup(32)
        x = grid.axis_coordinates(0)
        base = SpeciesFields.uniform(grid, 1.0, 1.0, 1.0)
        bumped = SpeciesFields(base.a, 1.0 + 0.2 * np.cos(2 * np.pi * x), base.c)
        params = ModelParams(1.0, 0.0, 1.0)
        _, rhs_base = dissipation_deviation_bound(base, params, dom, grid)
        _, rhs_bump = dissipation_deviation_bound(bumped, params, dom, grid)
        # only the abc defect moves; the deviation sum has no delta_B term
        defect_base = 4.0 * sum(
            s.abc_defect
            for s in [sample(base, 0.0, equilibrium_state(2, 2), params, dom, grid)]
        )
        defect_bump = 4.0 * sum(
            s.abc_defect
            for s in [sample(bumped, 0.0, equilibrium_state(2, 2), params, dom, grid)]
        )
        assert rhs_bump - rhs_base == pytest.approx(defect_bump - defect_base, rel=1e-10)


class TestSample:
    def test_equilibrium_sample_vanishes(self):
        dom, grid = unit_setup(16)
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        s = sample(f, 0.0, eq, ModelParams(1.0, 0.0, 1.0), dom, grid)
        for value in (s.e_rel, s.dissipation, s.l1_dist_a, s.l1_dist_b, s.l1_dist_c,
                      s.dev_a2, s.dev_b2, s.dev_c2, s.ckp_lhs):
            assert value == pytest.approx(0.0, abs=1e-14)

    def test_uniform_sample_norms(self):
        dom = DomainSpec.box([2.0])
        grid = Grid.for_domain(dom, [10])
        f = SpeciesFields.uniform(grid, 2.0, 1.5, 0.5)
        eq = equilibrium_state(*conserved_masses(f, grid, dom))
        s = sample(f, 0.0, eq, ModelParams(1.0, 1.0, 1.0), dom, grid)
        # deviations of constant fields vanish up to the rounding of the mean
        for dev in (s.dev_a2, s.dev_b2, s.dev_c2):
            assert dev <= 1e-30
        assert s.diag_norms["b_l32"] == pytest.approx(1.5 * 2.0 ** (1 / 1.5), rel=1e-13)
        assert s.diag_norms["c_l3"] == pytest.approx(0.5 * 2.0 ** (1 / 3.0), rel=1e-13)
        assert s.m1 == pytest.approx(2.5, rel=1e-14)

    def test_running_integrals_trapezoid(self):
        dom, grid = unit_setup(4)
        f = SpeciesFields.uniform(grid, 1.0, 1.0, 1.0)
        eq = equilibrium_state(2.0, 2.0)
        params = ModelParams(1.0, 1.0, 1.0)
        running = RunningIntegrals()
        for t in (0.0, 0.5, 1.0):
            s = sample(f, t, eq, params, dom, grid, running)
        # constant integrand a^2 + ac = 2 on |Omega| = 1: integral = 2t
        assert s.diag_norms["int_a2ac"] == pytest.approx(2.0, rel=1e-13)
        assert s.diag_norms["int_b2bc"] == pytest.approx(2.0, rel=1e-13)


class TestViolationsFailClosed:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_a_violation(self, bad):
        good = (0.5, 0.1, 1.0, 1.0, 1.0)
        for i in range(5):
            args = list(good)
            args[i] = bad
            assert ckp_violation(*args) > 0.0
            assert bound_violation(*args) > 0.0

    def test_finite_inputs_unchanged(self):
        assert ckp_violation(0.5, 0.1, 1.0, 1.0, 1.0) == 0.0
        assert ckp_violation(0.1, 0.5, 1.0, 1.0, 1.0) == pytest.approx(0.4, rel=1e-8)
        assert bound_violation(0.5, 0.1, 1.0, 1.0, 1.0) == 0.0
        assert bound_violation(0.1, 0.5, 1.0, 1.0, 1.0) == pytest.approx(0.4, rel=1e-8)
