import math

import numpy as np
import pytest

from revreact.errors import InvalidArgument, InvalidState
from revreact.grid import (
    Grid,
    SpeciesFields,
    deviation_l2,
    dirichlet_energy,
    integrate,
    lp_norm,
)
from conftest import box_poincare_constant, laplacian_neumann


def unit_grid(n, L=1.0):
    return Grid.box([L], [n])


class TestGrid:
    def test_box_invariants(self):
        grid = Grid.box([2.0, 0.5, 0.25], [4, 2, 1])
        assert grid.cells == (4, 2, 1)
        assert grid.lengths == (2.0, 0.5, 0.25)
        assert grid.volume == pytest.approx(0.25, rel=1e-15)

    def test_rejects_bad_dimension_and_lengths(self):
        with pytest.raises(InvalidArgument, match="dimension"):
            Grid.box([1.0, 1.0, 1.0, 1.0], [4, 4, 4, 4])
        for lengths in ([1.0, -2.0], [1.0, math.inf]):
            with pytest.raises(InvalidArgument, match="lengths must be positive"):
                Grid.box(lengths, [4, 4])
        # finite lengths whose volume overflows, and lengths whose volume
        # underflows to 0
        for lengths in ([1e150, 1e150, 1e150], [1e-150, 1e-150, 1e-150]):
            with pytest.raises(InvalidArgument, match="lengths"):
                Grid.box(lengths, [2, 2, 2])
        # a box whose continuous Poincare constant overflows is a valid box;
        # the grid's range check rejects it on an axis of several cells
        with pytest.raises(InvalidArgument, match="lengths .* Poincare"):
            Grid.box([1e200], [8])

    def test_rejects_bad_cells(self):
        with pytest.raises(InvalidArgument, match="need 2 cell counts, got 1"):
            Grid.box([1.0, 0.5], [8])
        for cells in ([8, 0], [8, -3]):
            with pytest.raises(InvalidArgument, match="cells per axis must be positive"):
                Grid.box([1.0, 0.5], cells)
        # the lengths are checked before the cells
        with pytest.raises(InvalidArgument, match="lengths must be positive"):
            Grid.box([-1.0], [0])
        with pytest.raises(InvalidArgument, match="dimension"):
            Grid.box([1.0] * 4, [8])

    def test_cell_volume_matches_domain(self):
        grid = Grid.box([1.0, 0.45], [64, 24])
        assert grid.cell_volume * math.prod(grid.cells) == pytest.approx(
            grid.volume, rel=1e-12)

    def test_spacings(self):
        grid = Grid.box([2.0, 1.0], [8, 5])
        assert grid.spacings == (0.25, 0.2)

    @pytest.mark.parametrize("lengths, cells", [
        ([1e-158], [8]),  # h * h subnormal: 4/h^2 overflows
        ([1e-160], [1000]),  # h * h underflows to 0
        ([2e-108] * 3, [2, 2, 2]),  # the cell volume underflows to 0
    ])
    def test_rejects_unresolvable_spacing(self, lengths, cells):
        with pytest.raises(InvalidArgument, match="lengths"):
            Grid.box(lengths, cells)


class TestSpeciesFields:
    def test_rejects_nonpositive(self):
        grid = unit_grid(4)
        with pytest.raises(InvalidState, match="must be strictly positive"):
            SpeciesFields(np.array([1.0, 1.0, 0.0, 1.0]), np.ones(4), np.ones(4))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidState, match="contains non-finite entries"):
            SpeciesFields(np.array([1.0, np.inf]), np.ones(2), np.ones(2))

    @pytest.mark.parametrize("bad, message", [(np.nan, "contains non-finite entries"),
                                              (0.0, "must be strictly positive")])
    @pytest.mark.parametrize("species", ["a", "b", "c"])
    def test_stack_check_names_the_offending_species(self, species, bad, message):
        fields = {name: np.ones((3, 2)) for name in "abc"}
        fields[species][1, 0] = bad
        with pytest.raises(InvalidState, match=f"field {species} {message}"):
            SpeciesFields(**fields)
        with pytest.raises(InvalidState, match=f"field {species} {message}"):
            SpeciesFields.from_stack(np.stack([fields[name] for name in "abc"]))

    def test_first_offending_species_is_named(self):
        # b holds a zero and c a NaN: b is checked first, as a, b, c were
        # checked one at a time
        with pytest.raises(InvalidState, match="field b must be strictly positive"):
            SpeciesFields(np.ones(3), np.array([1.0, 0.0, 1.0]), np.array([np.nan, 1.0, 1.0]))
        with pytest.raises(InvalidState, match="field a contains non-finite entries"):
            SpeciesFields(np.array([1.0, -np.inf, 1.0]), np.zeros(3), np.ones(3))

    def test_rows_of_the_stack_are_the_species(self):
        a, b, c = np.full(4, 1.0), np.full(4, 2.0), np.full(4, 3.0)
        f = SpeciesFields(a, b, c)
        assert f.stack.shape == (3, 4)
        assert np.array_equal(f.a, a) and np.array_equal(f.b, b) and np.array_equal(f.c, c)
        assert all(np.shares_memory(u, f.stack) for u in f.species())
        u = np.stack((a, b, c))
        g = SpeciesFields.from_stack(u)
        assert np.shares_memory(g.stack, u) and u.flags.writeable
        with pytest.raises(InvalidArgument, match="shape"):
            SpeciesFields.from_stack(np.ones((2, 4)))
        with pytest.raises(InvalidArgument, match="one grid shape"):
            SpeciesFields(a, b, np.ones(3))

    def test_validated_fields_cannot_change(self):
        from dataclasses import FrozenInstanceError

        grid = unit_grid(4)
        f = SpeciesFields.uniform(grid, 1.0, 1.0, 1.0)
        with pytest.raises(FrozenInstanceError):
            f.a = np.array([1.0, -1.0, 1.0, 1.0])
        for u in (f.a, f.b, f.c):
            with pytest.raises(ValueError):
                u[0] = np.nan
        assert np.all(f.a == 1.0) and np.all(f.b == 1.0) and np.all(f.c == 1.0)


class TestLaplacian:
    def test_constant_is_harmonic(self):
        grid = unit_grid(16)
        out = laplacian_neumann(np.full(16, 3.7), grid)
        assert np.all(out == 0.0)

    def test_hand_evaluated_three_cells(self):
        grid = Grid.box([3.0], [3])  # h = 1
        out = laplacian_neumann(np.array([1.0, 2.0, 4.0]), grid)
        assert out == pytest.approx([1.0, 1.0, -2.0], abs=1e-15)
        assert integrate(out, grid) == pytest.approx(0.0, abs=1e-14)

    def test_cosine_eigenmode_second_order(self):
        # discrete Laplacian of the sampled Neumann eigenmode approaches
        # -(pi/L)^2 u at second order in h
        L = 1.0
        errors = []
        for n in (32, 64, 128):
            grid = unit_grid(n, L)
            x = grid.axis_coordinates(0)
            u = np.cos(np.pi * x / L)
            err = laplacian_neumann(u, grid) + (np.pi / L) ** 2 * u
            errors.append(np.max(np.abs(err)))
        order1 = math.log2(errors[0] / errors[1])
        order2 = math.log2(errors[1] / errors[2])
        assert order1 >= 1.9 and order2 >= 1.9

    def test_conservativity_random(self, rng):
        for cells, lengths in (([64], [1.0]), ([12, 18], [1.0, 0.7])):
            grid = Grid.box(lengths, cells)
            for _ in range(20):
                u = rng.uniform(-1.0, 1.0, size=grid.cells)
                lap = laplacian_neumann(u, grid)
                scale = np.max(np.abs(lap)) + 1e-300
                assert abs(integrate(lap, grid)) <= 1e-13 * scale

    def test_symmetry_and_semidefiniteness(self, rng):
        grid = Grid.box([1.0, 0.7], [12, 18])
        for _ in range(20):
            u = rng.uniform(-1.0, 1.0, size=grid.cells)
            v = rng.uniform(-1.0, 1.0, size=grid.cells)
            lu = laplacian_neumann(u, grid)
            lv = laplacian_neumann(v, grid)
            uv = integrate(lu * v, grid)
            vu = integrate(lv * u, grid)
            assert uv == pytest.approx(vu, rel=1e-12, abs=1e-13)
            assert integrate(lu * u, grid) <= 0.0


class TestQuadrature:
    def test_integrate_constants(self):
        grid = unit_grid(10, L=2.0)
        assert integrate(np.ones(10), grid) == pytest.approx(2.0, rel=1e-14)
        assert integrate(np.full(10, 3.0), grid) == pytest.approx(6.0, rel=1e-14)

    def test_integrate_cosine_mode_vanishes(self):
        grid = unit_grid(64, L=1.0)
        x = grid.axis_coordinates(0)
        assert integrate(np.cos(np.pi * x), grid) == pytest.approx(0.0, abs=1e-14)

    def test_lp_norm_constants(self):
        grid = unit_grid(8, L=2.0)
        u = np.full(8, 3.0)
        for p in (1.0, 1.5, 2.0, 4.0):
            norm = lp_norm(u, p, grid)
            assert norm == pytest.approx(3.0 * 2.0 ** (1.0 / p), rel=1e-13)

    def test_lp_norm_two_cells(self):
        grid = unit_grid(2, L=1.0)  # cell volume 0.5
        val = lp_norm(np.array([3.0, 4.0]), 2.0, grid)
        assert val == pytest.approx(math.sqrt(12.5), rel=1e-14)


class TestEnergies:
    def test_constant_energies_vanish(self):
        grid = unit_grid(9)
        u = np.full(9, 2.5)
        assert dirichlet_energy(np.sqrt(u), grid) == 0.0
        assert deviation_l2(u, grid) == 0.0

    def test_single_face(self):
        grid = Grid.box([2.0], [2])  # h = 1, face area 1
        assert dirichlet_energy(np.sqrt([1.0, 4.0]), grid) == pytest.approx(1.0, rel=1e-14)

    def test_cosine_mode_dirichlet_energy(self):
        # u = (1 + 0.1 cos(pi x/L))^2 has sqrt-energy 0.01 (pi/L)^2 L/2
        L = 1.0
        grid = unit_grid(256, L)
        x = grid.axis_coordinates(0)
        u = (1.0 + 0.1 * np.cos(np.pi * x / L)) ** 2
        exact = 0.01 * (np.pi / L) ** 2 * (L / 2.0)
        assert dirichlet_energy(np.sqrt(u), grid) == pytest.approx(exact, rel=0.01)

    def test_deviation_two_cells(self):
        grid = unit_grid(2, L=1.0)  # cell volume 0.5
        assert deviation_l2(np.array([0.0, 2.0]), grid) == pytest.approx(1.0, rel=1e-14)

    def test_deviation_pythagoras(self, rng):
        grid = unit_grid(40, L=1.3)
        for _ in range(20):
            u = rng.uniform(-2.0, 2.0, size=40)
            dev2 = deviation_l2(u, grid) ** 2
            mean = integrate(u, grid) / grid.volume
            direct = lp_norm(u, 2, grid) ** 2 - mean**2 * grid.volume
            assert dev2 == pytest.approx(direct, rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("cells, lengths", [
        ([16], [1.0]), ([128], [1.0]), ([24, 16], [1.0, 0.7]), ([8, 30], [1.0, 0.7]),
        ([6, 4, 3], [1.0, 0.6, 0.45]), ([1, 5], [3.0, 1.0]),
    ])
    def test_lowest_mode_attains_the_discrete_poincare_constant(self, cells, lengths):
        grid = Grid.box(lengths, cells)
        ratios = []
        for ax, n in enumerate(cells):
            if n > 1:
                shape = [n if i == ax else 1 for i in range(len(cells))]
                mode = np.cos(np.pi * grid.axis_coordinates(ax) / lengths[ax]).reshape(shape)
                u = np.broadcast_to(mode, grid.cells)
                ratios.append(deviation_l2(u, grid) ** 2
                              / (grid.poincare_constant * dirichlet_energy(u, grid)))
        assert max(ratios) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [8, 16, 64, 128])
    def test_discrete_constant_exceeds_the_box_constant(self, n):
        # by the factor (x / sin x)^2 = 1 + pi^2/(12 n^2) + O(n^-4), x = pi/(2n)
        grid = unit_grid(n)
        excess = grid.poincare_constant / box_poincare_constant(grid.lengths) - 1.0
        assert excess == pytest.approx(math.pi ** 2 / (12 * n * n), rel=0.02)

    def test_single_cell_grid_has_no_poincare_constraint(self):
        grid = Grid.box([1.0, 2.0], [1, 1])
        assert grid.poincare_constant == math.inf

    def test_discrete_poincare_random(self, rng):
        for cells, lengths in (([64], [1.0]), ([16, 12], [1.0, 0.6])):
            grid = Grid.box(lengths, cells)
            for _ in range(100):
                u = rng.uniform(0.0, 1.0, size=grid.cells)
                dev2 = deviation_l2(u, grid) ** 2
                assert dev2 <= box_poincare_constant(lengths) * dirichlet_energy(u, grid)


REDUCTIONS = {
    "integrate": integrate,
    "lp_norm 1": lambda u, grid: lp_norm(u, 1.0, grid),
    "lp_norm 3/2": lambda u, grid: lp_norm(u, 1.5, grid),
    "lp_norm 3": lambda u, grid: lp_norm(u, 3.0, grid),
    "dirichlet_energy": dirichlet_energy,
    "deviation_l2": deviation_l2,
}


@pytest.mark.parametrize("cells, lengths", [
    ([16], [1.0]), ([6, 5], [1.0, 0.7]), ([4, 3, 5], [1.0, 0.6, 0.45]),
])
def test_a_block_reduces_each_field_as_it_reduces_alone(cells, lengths, rng):
    # the reductions that sample runs for every CSV column: a (B, 3, *cells)
    # block of states gives the value of each field alone, bit for bit,
    # and a single field gives a Python float
    grid = Grid.box(lengths, cells)
    block = rng.uniform(0.2, 3.0, size=(4, 3) + grid.cells)
    for name, reduce in REDUCTIONS.items():
        values = reduce(block, grid)
        assert isinstance(values, np.ndarray) and values.shape == (4, 3), name
        alone = [[reduce(field, grid) for field in stack] for stack in block]
        assert all(type(value) is float for row in alone for value in row), name
        assert values.tolist() == alone, name
