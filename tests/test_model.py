import math

import numpy as np
import pytest

from revreact.errors import InvalidArgument, InvalidState
from revreact.grid import Grid, SpeciesFields
from revreact.model import ModelParams, conserved_masses, equilibrium_state
from conftest import riccati_roots

SQRT5 = math.sqrt(5.0)
SQRT2 = math.sqrt(2.0)


class TestModelParams:
    def test_modes(self):
        assert ModelParams(1.0, 0.0, 1.0).mode == "db0"
        assert ModelParams(1.0, 1.0, 0.0).mode == "dc0"
        assert ModelParams(1.0, 0.5, 0.8).mode == "full"

    @pytest.mark.parametrize("d", [(1.0, 0.5, 0.8), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)])
    def test_diffusing_rows_are_the_species_with_positive_d(self, d):
        params = ModelParams(*d)
        rows = np.arange(3)[params.diffusing]
        assert rows.tolist() == [i for i in range(3) if d[i] > 0.0]
        # a basic slice: the rows of a stack are a view, not a copy
        stack = np.ones((3, 4))
        assert np.shares_memory(stack[params.diffusing], stack)
        assert params.diffusivities()[params.diffusing] == tuple(x for x in d if x > 0.0)

    def test_rejects_double_degeneracy_and_zero_da(self):
        with pytest.raises(InvalidArgument):
            ModelParams(1.0, 0.0, 0.0)
        with pytest.raises(InvalidArgument):
            ModelParams(0.0, 1.0, 1.0)


class TestEquilibrium:
    def test_equal_masses(self):
        eq = equilibrium_state(1.0, 1.0)
        assert eq.c_inf == pytest.approx((3.0 - SQRT5) / 2.0, rel=1e-12)
        assert eq.a_inf == pytest.approx((SQRT5 - 1.0) / 2.0, rel=1e-12)
        assert eq.b_inf == pytest.approx((SQRT5 - 1.0) / 2.0, rel=1e-12)

    def test_two_one(self):
        eq = equilibrium_state(2.0, 1.0)
        assert eq.c_inf == pytest.approx(2.0 - SQRT2, rel=1e-12)
        assert eq.a_inf == pytest.approx(SQRT2, rel=1e-12)
        assert eq.b_inf == pytest.approx(SQRT2 - 1.0, rel=1e-12)
        assert eq.a_inf * eq.b_inf == pytest.approx(eq.c_inf, rel=1e-12)

    def test_zero_mass_branch(self):
        eq = equilibrium_state(0.0, 5.0)
        assert (eq.a_inf, eq.b_inf, eq.c_inf) == (0.0, 5.0, 0.0)

    def test_negative_mass_rejected(self):
        with pytest.raises(InvalidState, match="masses must be finite and nonnegative"):
            equilibrium_state(-0.1, 1.0)

    def test_random_identities(self, rng):
        masses = rng.uniform(0.0, 10.0, size=(1000, 2)) + 1e-9
        for m1, m2 in masses:
            eq = equilibrium_state(m1, m2)
            scale = 1.0 + m1 + m2
            assert abs(eq.a_inf + eq.c_inf - m1) <= 1e-12 * scale
            assert abs(eq.b_inf + eq.c_inf - m2) <= 1e-12 * scale
            assert abs(eq.a_inf * eq.b_inf - eq.c_inf) <= 1e-12 * scale
            assert min(eq.a_inf, eq.b_inf, eq.c_inf) >= 0.0

    @pytest.mark.parametrize("m1, m2", [(2e16, 2e16), (2e32, 2e32), (3e20, 7e24), (7e24, 3e20)])
    def test_large_masses_match_high_precision_reference(self, m1, m2):
        # a_inf = M1 - c_inf cancels: at 2e32 the difference read 0.0
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = 50
            d1, d2 = Decimal(m1), Decimal(m2)
            sq = (1 + 2 * (d1 + d2) + (d1 - d2) ** 2).sqrt()
            c = (1 + d1 + d2 - sq) / 2
            exact = (d1 - c, d2 - c, c)
        eq = equilibrium_state(m1, m2)
        for got, want in zip((eq.a_inf, eq.b_inf, eq.c_inf), exact):
            assert abs(Decimal(got) - want) <= Decimal("1e-14") * want

    @pytest.mark.parametrize("m1, m2", [(9.6e153, 2e-3), (2e-3, 1.2e154), (1e154, 1e154),
                                        (4e307, 4e307)])
    def test_a_component_whose_numerator_overflows_is_finite(self, m1, m2):
        # M1 * 2*(r2 - M2), M2 * 2*(r2 - M1) and 2*M1*M2 pass the largest
        # double although a_inf, b_inf and c_inf do not; at 4e307, 2*(M1 + M2)
        # is just below it
        eq = equilibrium_state(m1, m2)
        a, b, c = eq.a_inf, eq.b_inf, eq.c_inf
        assert all(math.isfinite(x) and x > 0.0 for x in (a, b, c))
        assert a + c == pytest.approx(m1, rel=1e-15)
        assert b + c == pytest.approx(m2, rel=1e-15)
        assert a * b == pytest.approx(c, rel=1e-15)

    @pytest.mark.parametrize("m1, m2", [(5e307, 5e307), (1e308, 0.0), (2e154, 1.0)])
    def test_masses_that_overflow_the_algebra_raise(self, m1, m2):
        # 2 * (M1 + M2) overflows in the first two, which math.sqrt takes
        # without raising, and (M1 - M2)**2 in the third
        with pytest.raises(InvalidState, match="overflow the equilibrium algebra"):
            equilibrium_state(m1, m2)

    def test_finite_products_are_formed_before_they_are_divided(self, rng):
        # dividing first everywhere would move the last bit of a_inf for about
        # a third of these masses, and with it every recorded E_rel
        from revreact.model import _twice_gap

        for m1, m2 in rng.uniform(0.0, 10.0, size=(200, 2)):
            eq = equilibrium_state(m1, m2)
            sq = math.sqrt(1.0 + 2.0 * (m1 + m2) + (m1 - m2) ** 2)
            twice_r2 = 1.0 + m1 + m2 + sq
            assert eq.a_inf == m1 * _twice_gap(m1, m2, sq) / twice_r2
            assert eq.b_inf == m2 * _twice_gap(m2, m1, sq) / twice_r2
            assert eq.c_inf == 2.0 * m1 * m2 / twice_r2

    def test_discriminant_identity_positive(self, rng):
        for m1, m2 in rng.uniform(0.0, 10.0, size=(200, 2)):
            direct = (1.0 + m1 + m2) ** 2 - 4.0 * m1 * m2
            expanded = 1.0 + 2.0 * (m1 + m2) + (m1 - m2) ** 2
            assert direct == pytest.approx(expanded, rel=1e-12)
            assert expanded > 0.0

    def test_riccati_root_ordering(self, rng):
        m1 = rng.uniform(1e-3, 10.0, size=500)
        m2 = rng.uniform(1e-3, 10.0, size=500)
        r1, r2, _ = riccati_roots(m1, m2)
        assert np.all(r1 <= np.minimum(m1, m2))
        assert np.all(np.minimum(m1, m2) < r2)


class TestConservedMasses:
    def test_uniform_constant_fields(self):
        grid = Grid.box([2.0], [8])
        f = SpeciesFields.uniform(grid, 1.0, 0.7, 1.0)
        m1, m2 = conserved_masses(f, grid)
        assert m1 == pytest.approx(2.0, rel=1e-14)
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 0.5)
        m1, m2 = conserved_masses(f, grid)
        assert (m1, m2) == (pytest.approx(2.5, rel=1e-14), pytest.approx(1.5, rel=1e-14))

    def test_cosine_mode_integrates_out(self):
        # a = 1 + 0.5 cos(pi x / L), c = 1 - 0.5 cos(pi x / L): midpoint sums
        # cancel the mode pairwise, so M1 = 2 up to rounding
        L = 3.0
        grid = Grid.box([L], [256])
        x = grid.axis_coordinates(0)
        a = 1.0 + 0.5 * np.cos(np.pi * x / L)
        c = 1.0 - 0.5 * np.cos(np.pi * x / L)
        b = np.ones_like(a)
        m1, m2 = conserved_masses(SpeciesFields(a, b, c), grid)
        assert m1 == pytest.approx(2.0, abs=1e-13)

