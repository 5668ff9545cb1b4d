import decimal
import math

import mpmath
import numpy as np
import pytest

from revreact.functionals import (
    CKP_PREFACTOR,
    CSV_COLUMNS,
    RunningIntegrals,
    _kl_density,
    bound_violation,
    ckp_violation,
    dissipation_bound_rhs,
    reaction_production,
    sample,
)
from revreact.errors import InvalidArgument
from revreact.grid import Grid, SpeciesFields
from revreact.model import ModelParams, conserved_masses, equilibrium_state
from revreact.oracle import brute_force_sample
from conftest import box_poincare_constant

SQRT2 = math.sqrt(2.0)


def unit_setup(n=64, L=1.0):
    return Grid.box([L], [n])


def random_fields(rng, grid, lo=0.2, hi=3.0):
    return SpeciesFields(
        rng.uniform(lo, hi, size=grid.cells),
        rng.uniform(lo, hi, size=grid.cells),
        rng.uniform(lo, hi, size=grid.cells),
    )


def self_sample(f, params, grid):
    """The sample of f against the equilibrium of its own masses."""
    return sample(f, 0.0, equilibrium_state(*conserved_masses(f, grid)), params, grid)


#: diffusivities of the samples whose D is not under test
ANY_PARAMS = ModelParams(1.0, 1.0, 1.0)


def bound_sides(s, params, grid):
    """(D, dissipation_bound_rhs) of one sample."""
    dev2 = (s["dev_A2"], s["dev_B2"], s["dev_C2"])
    return s["D"], dissipation_bound_rhs(dev2, s["abc_defect"], params,
                                         box_poincare_constant(grid.domain.lengths))


class TestEntropy:
    def test_all_ones_is_zero(self):
        grid = unit_setup(8)
        f = SpeciesFields.uniform(grid, 1.0, 1.0, 1.0)
        assert self_sample(f, ANY_PARAMS, grid)["E"] == 0.0

    def test_two_one_one(self):
        grid = unit_setup(16)
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 1.0)
        e = self_sample(f, ANY_PARAMS, grid)["E"]
        assert e == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-13)

    def test_nonnegative_random(self, rng):
        grid = unit_setup(32)
        for _ in range(50):
            f = random_fields(rng, grid, 0.05, 5.0)
            assert self_sample(f, ANY_PARAMS, grid)["E"] >= 0.0


class TestRelativeEntropy:
    def test_zero_at_equilibrium(self):
        grid = unit_setup(8)
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        assert sample(f, 0.0, eq, ANY_PARAMS, grid)["E_rel"] == pytest.approx(0.0, abs=1e-15)

    def test_entropy_difference_identity(self):
        # masses of uniform (2,1,1) are (3,2); relative entropy equals the
        # entropy gap to the equilibrium taken as a uniform field
        grid = unit_setup(32)
        f = SpeciesFields.uniform(grid, 2.0, 1.0, 1.0)
        eq = equilibrium_state(3.0, 2.0)
        f_eq = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        gap = self_sample(f, ANY_PARAMS, grid)["E"] - self_sample(f_eq, ANY_PARAMS, grid)["E"]
        assert sample(f, 0.0, eq, ANY_PARAMS, grid)["E_rel"] == pytest.approx(gap, rel=1e-12)

    def test_identity_on_random_mass_matched_fields(self, rng):
        grid = unit_setup(48)
        for _ in range(20):
            f = random_fields(rng, grid)
            m1, m2 = conserved_masses(f, grid)
            eq = equilibrium_state(m1, m2)
            f_eq = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
            gap = self_sample(f, ANY_PARAMS, grid)["E"] - self_sample(f_eq, ANY_PARAMS, grid)["E"]
            assert sample(f, 0.0, eq, ANY_PARAMS, grid)["E_rel"] == pytest.approx(gap, rel=1e-12)

    def test_nonnegative_random(self, rng):
        grid = unit_setup(32)
        eq = equilibrium_state(2.0, 1.5)
        for _ in range(50):
            f = random_fields(rng, grid)
            assert sample(f, 0.0, eq, ANY_PARAMS, grid)["E_rel"] >= 0.0

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-4, 1e-6, 1e-8])
    def test_near_equilibrium_against_decimal_reference(self, rng, eps):
        # fields within a relative eps of equilibrium: E_rel ~ eps^2 is what
        # remains of u ln(u/r) - u + r after cancelling to order eps, so its
        # relative error grows like 1/eps; measured worst 7e-17/eps
        grid = unit_setup(64)
        base = equilibrium_state(2.0, 1.0)
        for _ in range(5):
            f = SpeciesFields(*(r * (1.0 + eps * rng.uniform(-1.0, 1.0, size=grid.cells))
                                for r in (base.a_inf, base.b_inf, base.c_inf)))
            eq = equilibrium_state(*conserved_masses(f, grid))
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                exact = decimal.Decimal(0)
                for u, r in zip(f.species(), (eq.a_inf, eq.b_inf, eq.c_inf)):
                    r = decimal.Decimal(r)
                    for x in map(decimal.Decimal, u.ravel().tolist()):
                        exact += x * (x / r).ln() - x + r
                exact = float(exact * decimal.Decimal(grid.cell_volume))
            got = sample(f, 0.0, eq, ANY_PARAMS, grid)["E_rel"]
            assert got >= 0.0
            assert abs(got - exact) <= 1e-15 / eps * exact


class TestKlDensity:
    @pytest.mark.parametrize("ref", [1.0, SQRT2 - 1.0, 3.7e5, 2.2e-7])
    def test_nonnegative_near_and_far_from_the_reference(self, ref):
        # u = ref*(1+delta) for |delta| from 1e-20 to 1 (u = 0 excluded)
        mags = np.logspace(-20.0, 0.0, 200_001)
        delta = np.concatenate((mags, -mags[:-1]))
        assert np.all(_kl_density(ref * (1.0 + delta), ref) >= 0.0)


class TestDissipation:
    def test_zero_at_homogeneous_equilibrium(self):
        # a * b == c exactly in floating point: no reaction, no gradients
        grid = unit_setup(16)
        params = ModelParams(1.0, 0.0, 1.0)
        f = SpeciesFields.uniform(grid, 2.0, 0.5, 1.0)
        assert self_sample(f, params, grid)["D"] == 0.0
        # the computed equilibrium of masses (2, 1) misses a * b == c by a
        # rounding error, whose production is at rounding level and not negative
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        assert 0.0 <= self_sample(f, params, grid)["D"] <= 1e-30

    def test_uniform_reaction_only(self):
        # a = b = 1, c = e: reaction term (1-e) ln(1/e) = e - 1
        grid = unit_setup(16)
        f = SpeciesFields.uniform(grid, 1.0, 1.0, math.e)
        for params in (ModelParams(1.0, 0.0, 1.0), ModelParams(2.0, 3.0, 0.0)):
            assert self_sample(f, params, grid)["D"] == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_pointwise_reaction_sign(self, rng):
        a = rng.uniform(0.01, 5.0, size=1000)
        b = rng.uniform(0.01, 5.0, size=1000)
        c = rng.uniform(0.01, 5.0, size=1000)
        assert np.all(reaction_production(a, b, c) >= 0.0)

    def test_nonnegative_random(self, rng):
        grid = unit_setup(32)
        params = ModelParams(0.7, 1.2, 0.0)
        for _ in range(30):
            f = random_fields(rng, grid)
            assert self_sample(f, params, grid)["D"] >= 0.0


class TestCkp:
    def test_prefactor_value(self):
        assert CKP_PREFACTOR == pytest.approx(
            (3.0 + 2.0 * SQRT2) / (9.0 + 2.0 * SQRT2), rel=1e-15
        )
        assert CKP_PREFACTOR == pytest.approx(0.4927474349, abs=1e-9)

    def test_zero_at_equilibrium(self):
        grid = unit_setup(8)
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        s = sample(f, 0.0, eq, ModelParams(1.0, 1.0, 1.0), grid)
        assert s["ckp_lhs"] == pytest.approx(0.0, abs=1e-28)

    def test_bounded_by_relative_entropy(self, rng):
        grid = unit_setup(64)
        params = ModelParams(1.0, 1.0, 1.0)
        samples = [self_sample(random_fields(rng, grid, 0.1, 4.0), params, grid)
                   for _ in range(200)]
        e_rel, ckp, m1, m2 = (np.array([s[k] for s in samples])
                              for k in ("E_rel", "ckp_lhs", "M1", "M2"))
        assert np.all(ckp_violation(e_rel, ckp, m1, m2, grid.domain.volume) == 0.0)

    def test_finite_past_an_overflowing_square(self):
        # l1_a is about 2e154, so l1_a**2 overflows, but l1_a**2 / (2 M1) is
        # finite: that term is divided first, and the others, whose squares
        # are finite, come out as they always did
        grid = Grid.box([4.0], [4])
        f = SpeciesFields(np.array([1.3e154, 1e-3, 1e-3, 1e-3]), np.full(4, 1e-3),
                          np.full(4, 1e-3))
        s = self_sample(f, ANY_PARAMS, grid)
        m1, m2, l1a, l1b, l1c = (s[k] for k in ("M1", "M2", "l1_a", "l1_b", "l1_c"))
        assert 1.9e154 < l1a < 2.1e154 and l1a * l1a == math.inf
        assert s["ckp_lhs"] == CKP_PREFACTOR * grid.domain.volume * (
            l1a * (l1a / (2.0 * m1)) + l1b * l1b / (2.0 * m2) + l1c * l1c / (m1 + m2))
        assert math.isfinite(s["ckp_lhs"])


class TestDissipationBound:
    def test_equilibrium_is_zero_pair(self):
        grid = unit_setup(16)
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        params = ModelParams(1.0, 0.0, 1.0)
        lhs, rhs = bound_sides(sample(f, 0.0, eq, params, grid), params, grid)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_uniform_fields_reduce_to_algebraic_inequality(self, rng):
        # uniform data: lhs is the reaction term, rhs is 4||AB-C||^2, and the
        # inequality is (x-y)(ln x - ln y) >= 4 (sqrt x - sqrt y)^2 cellwise
        grid = unit_setup(8)
        params = ModelParams(1.0, 1.0, 1.0)
        for _ in range(100):
            a0, b0, c0 = rng.uniform(0.05, 4.0, size=3)
            f = SpeciesFields.uniform(grid, a0, b0, c0)
            lhs, rhs = bound_sides(self_sample(f, params, grid), params, grid)
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
        grid = unit_setup(128)
        modes = [ModelParams(1.0, 0.0, 1.0), ModelParams(1.0, 1.0, 0.0), ModelParams(1.0, 0.5, 0.8)]
        for i in range(150):
            s = self_sample(random_fields(rng, grid), modes[i % 3], grid)
            lhs, rhs = bound_sides(s, modes[i % 3], grid)
            assert bound_violation(lhs, rhs, s["M1"], s["M2"], grid.domain.volume) == 0.0

    def test_rhs_array_call_equals_per_sample_calls(self, rng):
        # analyze and verify evaluate the rhs over columns of samples
        dev2, defect = rng.uniform(0.0, 2.0, size=(3, 40)), rng.uniform(0.0, 2.0, size=40)
        for params in (ModelParams(1.0, 0.0, 0.7), ModelParams(1.0, 0.5, 0.0),
                       ModelParams(0.3, 0.5, 0.8)):
            per_sample = [dissipation_bound_rhs(dev2[:, i], defect[i], params, 0.1)
                          for i in range(40)]
            assert np.array_equal(dissipation_bound_rhs(dev2, defect, params, 0.1), per_sample)

    def test_degenerate_mode_drops_deviation_term(self):
        # d_b = 0: perturbing only b leaves the rhs gradient part unchanged
        grid = unit_setup(32)
        x = grid.axis_coordinates(0)
        base = SpeciesFields.uniform(grid, 1.0, 1.0, 1.0)
        bumped = SpeciesFields(base.a, 1.0 + 0.2 * np.cos(2 * np.pi * x), base.c)
        params = ModelParams(1.0, 0.0, 1.0)
        s_base, s_bump = (sample(f, 0.0, equilibrium_state(2, 2), params, grid)
                          for f in (base, bumped))
        _, rhs_base = bound_sides(s_base, params, grid)
        _, rhs_bump = bound_sides(s_bump, params, grid)
        # only the abc defect moves; the deviation sum has no delta_B term
        defect_gap = 4.0 * (s_bump["abc_defect"] - s_base["abc_defect"])
        assert rhs_bump - rhs_base == pytest.approx(defect_gap, rel=1e-10)


class TestSample:
    def test_equilibrium_sample_vanishes(self):
        grid = unit_setup(16)
        eq = equilibrium_state(2.0, 1.0)
        f = SpeciesFields.uniform(grid, eq.a_inf, eq.b_inf, eq.c_inf)
        s = sample(f, 0.0, eq, ModelParams(1.0, 0.0, 1.0), grid)
        for name in ("E_rel", "D", "l1_a", "l1_b", "l1_c",
                     "dev_A2", "dev_B2", "dev_C2", "ckp_lhs"):
            assert s[name] == pytest.approx(0.0, abs=1e-14)

    def test_uniform_sample_norms(self):
        grid = unit_setup(10, L=2.0)
        f = SpeciesFields.uniform(grid, 2.0, 1.5, 0.5)
        eq = equilibrium_state(*conserved_masses(f, grid))
        s = sample(f, 0.0, eq, ModelParams(1.0, 1.0, 1.0), grid)
        # deviations of constant fields vanish up to the rounding of the mean
        for name in ("dev_A2", "dev_B2", "dev_C2"):
            assert s[name] <= 1e-30
        assert s["b_l32"] == pytest.approx(1.5 * 2.0 ** (1 / 1.5), rel=1e-13)
        assert s["c_l3"] == pytest.approx(0.5 * 2.0 ** (1 / 3.0), rel=1e-13)
        assert s["M1"] == pytest.approx(2.5, rel=1e-14)

    def test_ckp_lhs_takes_the_volume_of_the_box(self, rng):
        # the cells of this box multiply to a volume that differs from
        # |Omega| = 0.45 in the last bit; ckp_lhs uses |Omega| itself.  The
        # last bit does not reach every product, so several fields are drawn
        grid = Grid.box([1.0, 0.45], [64, 24])
        for _ in range(20):
            s = self_sample(random_fields(rng, grid), ModelParams(1.0, 1.0, 1.0), grid)
            m1, m2 = s["M1"], s["M2"]
            assert s["ckp_lhs"] == CKP_PREFACTOR * grid.domain.volume * (
                s["l1_a"] * s["l1_a"] / (2.0 * m1)
                + s["l1_b"] * s["l1_b"] / (2.0 * m2)
                + s["l1_c"] * s["l1_c"] / (m1 + m2)
            )

    def test_running_integrals_trapezoid(self):
        grid = unit_setup(4)
        f = SpeciesFields.uniform(grid, 1.0, 1.0, 1.0)
        eq = equilibrium_state(2.0, 2.0)
        params = ModelParams(1.0, 1.0, 1.0)
        running = RunningIntegrals()
        for t in (0.0, 0.5, 1.0):
            s = sample(f, t, eq, params, grid, running)
        # constant integrand a^2 + ac = 2 on |Omega| = 1: integral = 2t
        assert s["int_a2ac"] == pytest.approx(2.0, rel=1e-13)
        assert s["int_b2bc"] == pytest.approx(2.0, rel=1e-13)


class TestBlockSample:
    # run samples a block of record states in one call: each record must
    # come out as it does on its own, a block of one
    @pytest.mark.parametrize("cells, lengths", [
        ([128], [1.0]), ([24, 16], [1.0, 0.7]), ([12, 6, 6], [1.0, 0.5, 0.5])],
        ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("d", [(1.0, 0.5, 0.8), (1.0, 0.0, 0.7), (1.0, 1.0, 0.0)],
                             ids=["full", "db0", "dc0"])
    def test_block_equals_each_record_alone_bit_for_bit(self, rng, cells, lengths, d):
        # b_lN2 is the L1 norm of b in 1-D and 2-D and reuses the L^(3/2)
        # norm in 3-D, so the three grids cover both of its branches
        grid = Grid.box(lengths, cells)
        params = ModelParams(*d)
        u = rng.uniform(0.2, 3.0, size=(16, 3, *grid.cells))
        t = np.cumsum(rng.uniform(0.01, 0.1, size=len(u)))
        eq = equilibrium_state(*conserved_masses(SpeciesFields.from_stack(u[0]), grid))
        block_running, alone_running = RunningIntegrals(), RunningIntegrals()
        block = sample(u, t, eq, params, grid, block_running)
        assert tuple(block) == CSV_COLUMNS
        for i in range(len(u)):
            alone = sample(SpeciesFields.from_stack(u[i]), t[i], eq, params, grid, alone_running)
            for name in CSV_COLUMNS:
                assert block[name].shape == t.shape and isinstance(alone[name], float)
                assert block[name][i].tobytes() == np.float64(alone[name]).tobytes(), (i, name)
            # each Lp root is Python's pow of one value; np.power rounds
            # differently on about 5% of values
            for name, row, p in (("a_l32", 0, 1.5), ("b_l32", 1, 1.5), ("c_l3", 2, 3.0),
                                 ("b_lN2", 1, max(1.0, len(cells) / 2.0))):
                s = float(grid.cell_volume * np.sum(np.abs(u[i, row]) ** p))
                assert alone[name] == s ** (1.0 / p), (i, name)
        assert block_running == alone_running

    @pytest.mark.parametrize("cells, lengths", [
        ([128], [1.0]), ([24, 16], [1.0, 0.7]), ([12, 6, 6], [1.0, 0.5, 0.5])],
        ids=["1d", "2d", "3d"])
    @pytest.mark.parametrize("d", [(1.0, 0.5, 0.8), (1.0, 0.0, 0.7), (1.0, 1.0, 0.0)],
                             ids=["full", "db0", "dc0"])
    def test_per_member_references_equal_each_record_alone(self, rng, cells, lengths, d):
        # an ensemble: each member against the equilibrium of its own
        # masses, as verify samples its random fields
        grid = Grid.box(lengths, cells)
        params = ModelParams(*d)
        u = rng.uniform(0.2, 3.0, size=(9, 3, *grid.cells))
        t = np.zeros(len(u))
        eqs = [equilibrium_state(*m) for m in conserved_masses(u, grid).tolist()]
        block = sample(u, t, eqs, params, grid)
        assert tuple(block) == CSV_COLUMNS
        for i in range(len(u)):
            alone = sample(SpeciesFields.from_stack(u[i]), 0.0, eqs[i], params, grid)
            for name in CSV_COLUMNS:
                assert block[name].shape == t.shape
                assert block[name][i].tobytes() == np.float64(alone[name]).tobytes(), (i, name)
        # the references matter: one shared reference changes E_rel and ckp_lhs
        shared = sample(u, t, eqs[0], params, grid)
        for name in ("E_rel", "l1_a", "ckp_lhs"):
            assert shared[name][0] == block[name][0]
            assert not np.array_equal(shared[name][1:], block[name][1:]), name

    def test_reference_sequence_of_another_length_is_an_error(self, rng, monkeypatch, capsys):
        grid = unit_setup(16)
        u = rng.uniform(0.2, 3.0, size=(4, 3, *grid.cells))
        eqs = [equilibrium_state(*m) for m in conserved_masses(u, grid).tolist()]
        for refs in (eqs[:3], eqs + eqs[:1], eqs[:1], []):
            with pytest.raises(InvalidArgument, match=f"{len(refs)} equilibrium references "
                                                      "for 4 records"):
                sample(u, np.zeros(4), refs, ANY_PARAMS, grid)
        # a RevReactError: the CLI reports it with exit code 2
        from revreact import cli

        monkeypatch.setattr(cli, "cmd_verify",
                            lambda: sample(u, np.zeros(4), eqs[:3], ANY_PARAMS, grid))
        assert cli.main(["verify"]) == 2
        assert capsys.readouterr().err == "error: 3 equilibrium references for 4 records\n"

    def test_empty_block_gives_empty_columns(self):
        grid = unit_setup(16)
        eq = equilibrium_state(1.5, 1.2)
        running = RunningIntegrals()
        for refs in (eq, []):
            cols = sample(np.empty((0, 3, 16)), np.empty(0), refs, ANY_PARAMS, grid, running)
            assert tuple(cols) == CSV_COLUMNS
            assert all(col.shape == (0,) and col.dtype == float for col in cols.values())
        assert running == RunningIntegrals()


class TestSpeciesFarBelowItsReference:
    # a species below about 1e-16 of its reference rounds x = (u - ref)/ref
    # in the entropy densities, and w/c in the reaction production, to -1;
    # at a = 1e-15, w/c keeps about one digit of ab/c, which put D 2.3e-5
    # off before ln(ab/c) was taken as a sum of logarithms there
    @pytest.mark.parametrize("a", [1e-15, 1e-17, 1e-20, 1e-300])
    @pytest.mark.parametrize("d", [(1.0, 0.5, 0.8), (1.0, 0.0, 0.7), (1.0, 1.0, 0.0)],
                             ids=["full", "db0", "dc0"])
    def test_sample_matches_the_brute_force_sampler(self, a, d):
        grid = unit_setup(16)
        params = ModelParams(*d)
        f = SpeciesFields.uniform(grid, a, 1.0, 1.0)
        eq = equilibrium_state(*conserved_masses(f, grid))
        got = sample(f, 0.0, eq, params, grid)
        want = brute_force_sample(f, 0.0, eq, params, grid)
        for name in CSV_COLUMNS:
            assert math.isfinite(got[name]), name
            assert got[name] == pytest.approx(want[name], rel=1e-12, abs=1e-300), name

    def test_only_the_rounded_cells_change(self, rng):
        # every other cell keeps the log1p form bit for bit
        a = rng.uniform(0.2, 3.0, size=64)
        b, c = rng.uniform(0.2, 3.0, size=(2, 64))
        a[[3, 17, 40]] = 1e-17, 1e-20, 1e-300
        density = _kl_density(a, 1.5)
        production = reaction_production(a, b, c)
        keep = np.ones(64, bool)
        keep[[3, 17, 40]] = False
        x = (a - 1.5) / 1.5
        w = a * b - c
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.array_equal(density[keep], (1.5 * ((1 + x) * np.log1p(x) - x))[keep])
            assert np.array_equal(production[keep], (w * np.log1p(w / c))[keep])
        assert np.array_equal(density[~keep], [1.5, 1.5, 1.5])
        assert np.allclose(production[~keep], (w * np.log(a * b / c))[~keep],
                           rtol=1e-14, atol=0.0)

    def test_reaction_production_against_mpmath(self):
        # 6000 draws of a, b and c from 10^U(-20, 20) and 10^U(-150, 150)
        # with ab and w/c finite: this one reads 4.8e-15, the worst of 13
        # such samples 3.5e-14, where ln a + ln b - ln c cancels just below
        # the cut; with log1p(w/c) down to w/c = -1 this one read 2.3e-2
        rng = np.random.default_rng(0)
        spans = np.tile([20.0, 150.0], 6000)[:, None]
        a, b, c = 10.0 ** rng.uniform(-spans, spans, size=(12000, 3)).T
        with np.errstate(over="ignore", under="ignore"):
            keep = np.isfinite(a * b) & (a * b > 0.0) & np.isfinite((a * b - c) / c)
        a, b, c = a[keep][:6000], b[keep][:6000], c[keep][:6000]
        assert len(a) == 6000 and np.min(a * b / c) < 1e-100
        got = reaction_production(a, b, c)
        worst = 0.0
        with mpmath.workdps(50):
            for x, y, z, g in zip(a.tolist(), b.tolist(), c.tolist(), got.tolist()):
                x, y, z = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(z)
                want = (x * y - z) * mpmath.log(x * y / z)
                worst = max(worst, float(abs(g - want) / want))
        assert worst <= 4e-14

    def test_overflow_still_fails_closed(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(_kl_density(np.array([np.inf]), 1.0)).all()
            assert np.isinf(reaction_production(np.array([1e200]), np.array([1e200]), 1.0)).all()


class TestViolationsFailClosed:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_a_violation(self, bad):
        good = (0.5, 0.1, 1.0, 1.0, 1.0)
        for i in range(5):
            args = list(good)
            args[i] = bad
            assert ckp_violation(*args) > 0.0
            assert bound_violation(*args) > 0.0

    def test_array_call_equals_per_sample_calls(self, rng):
        rows = rng.uniform(0.0, 2.0, size=(40, 5))
        rows[:, 4] = 1.0
        rows[3, 0] = rows[7, 1] = rows[11, 2] = math.nan
        rows[5, 1] = rows[13, 3] = math.inf
        rows[17, 0] = -math.inf
        for gate in (ckp_violation, bound_violation):
            scalar = [gate(*map(float, row)) for row in rows]
            array = gate(*rows[:, :4].T, 1.0)
            assert isinstance(scalar[0], float) and array.shape == (40,)
            assert np.array_equal(array, scalar)
            assert np.all(np.isinf(array[[3, 5, 7, 11, 13, 17]]))
            assert np.count_nonzero(array) > 6

    def test_finite_inputs_unchanged(self):
        assert ckp_violation(0.5, 0.1, 1.0, 1.0, 1.0) == 0.0
        assert ckp_violation(0.1, 0.5, 1.0, 1.0, 1.0) == pytest.approx(0.4, rel=1e-8)
        assert bound_violation(0.5, 0.1, 1.0, 1.0, 1.0) == 0.0
        assert bound_violation(0.1, 0.5, 1.0, 1.0, 1.0) == pytest.approx(0.4, rel=1e-8)
