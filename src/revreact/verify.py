"""Self-contained property suites behind the `verify` command.

Each suite returns (name, passed, detail).  Randomness is seeded, so the
command is deterministic.
"""
from __future__ import annotations

import numpy as np

from . import oracle
from .errors import InvalidState
from .functionals import (
    CSV_COLUMNS,
    bound_violation,
    ckp_violation,
    dissipation_bound_rhs,
    sample,
)
from .grid import (
    Grid,
    SpeciesFields,
    deviation_l2,
    dirichlet_energy,
    integrate,
    positive_stacks,
)
from .model import ModelParams, conserved_masses, equilibrium_state
from .solver import StrangStepper, block_records, reaction_substep

__all__ = ["run_property_suites"]


def _suite_equilibrium(rng):
    m = rng.uniform(0.0, 10.0, size=(1000, 2)) + 1e-12
    worst = 0.0
    for m1, m2 in m:
        eq = equilibrium_state(m1, m2)
        scale = 1.0 + m1 + m2
        worst = max(
            worst,
            abs(eq.a_inf + eq.c_inf - m1) / scale,
            abs(eq.b_inf + eq.c_inf - m2) / scale,
            abs(eq.a_inf * eq.b_inf - eq.c_inf) / scale,
        )
    ok = worst <= 1e-12
    return ("equilibrium algebra (1000 random masses)", ok, f"worst residual {worst:.2e}")


def _grids():
    return [
        Grid.box([1.0], [64]),
        Grid.box([1.0, 0.7], [24, 16]),
    ]


def _axis_mode(grid, ax, k):
    """The cosine mode cos(k pi x / L) along axis ax, sampled at the cell
    centers and constant along the other axes."""
    shape = [1] * len(grid.cells)
    shape[ax] = grid.cells[ax]
    mode = np.cos(k * np.pi * grid.axis_coordinates(ax) / grid.domain.lengths[ax])
    return np.broadcast_to(mode.reshape(shape), grid.cells)


def _suite_diffusion(rng):
    """The heat kernels of the half and full diffusion steps, as a Strang
    stepper of the presets' step builds them, and the decay of cosine
    modes under the full step against the Rayleigh quotient of the
    Dirichlet form that sample records.  Draws nothing from rng."""
    dt = 1e-3
    grids = _grids() + [Grid.box([1.0, 0.8, 0.6], [8, 6, 5])]
    sym = rows = low = square = decay = 0.0
    for grid in grids:
        for params in (ModelParams(1.0, 0.0, 1.0), ModelParams(1.0, 0.5, 0.8)):
            d = np.array(params.diffusivities())
            stepper = StrangStepper(params, dt, grid)
            for ax, n in enumerate(grid.cells):
                half, full = (sg.axes[ax][1].reshape(-1, n, n)
                              for sg in (stepper.half, stepper.full))
                for kernel in (half, full):
                    sym = max(sym, float(np.max(np.abs(kernel - kernel.swapaxes(1, 2)))))
                    rows = max(rows, float(np.max(np.abs(kernel.sum(axis=-1) - 1.0))))
                    low = min(low, float(np.min(kernel)))
                square = max(square, float(np.max(np.abs(half @ half - full))))
                for mode in {1, 2, n // 2, n - 1}:
                    m = _axis_mode(grid, ax, mode)
                    lam = dirichlet_energy(m, grid) / integrate(m * m, grid)
                    got = stepper.full.apply(np.broadcast_to(m, (3,) + grid.cells))
                    want = np.multiply.outer(np.exp(-dt * lam * d), m)
                    decay = max(decay, float(np.max(np.abs(got - want))))
    # measured: sym 0, row sums 3.3e-16, min entry -3.3e-17, K(t)^2 - K(2t)
    # 3.3e-16, mode decay 6.1e-15; eigenvalues 1e-9 too large read a mode
    # decay of 3.7e-10, kernels without their g(i + j + 1) term row sums 0.43
    ok = sym == 0.0 and rows <= 2e-15 and low >= -2e-16 and square <= 2e-15 and decay <= 5e-14
    return (
        "heat kernels of the Strang step (symmetric, stochastic, semigroup, mode decay)",
        ok,
        f"sym {sym:.1e}, row sums 1 +- {rows:.1e}, min entry {low:.1e}, "
        f"K(t)^2 - K(2t) {square:.1e}, mode decay {decay:.1e}",
    )


def _axis_modes(grid):
    """The lowest nonconstant Neumann mode cos(pi x / L) along each axis of
    at least 2 cells, sampled at the cell centers; the one along the slowest
    axis attains the discrete Poincare constant."""
    for ax, n in enumerate(grid.cells):
        if n > 1:
            yield _axis_mode(grid, ax, 1)


def _poincare_ratio(u, grid):
    """deviation_l2(u)**2 / (P * dirichlet_energy(u)), 0 for a constant u."""
    energy = dirichlet_energy(u, grid)
    dev = deviation_l2(u, grid)
    return dev * dev / (grid.poincare_constant * energy) if energy > 0 else 0.0


def _suite_poincare(rng):
    worst = -np.inf
    sharp = []
    for grid in _grids():
        for _ in range(200):
            u = rng.uniform(0.0, 1.0, size=grid.cells)
            worst = max(worst, _poincare_ratio(u, grid))
        sharp.append(max(_poincare_ratio(u, grid) for u in _axis_modes(grid)))
    # every ratio is at most 1, and the lowest mode of each grid attains it
    ok = max(worst, *sharp) <= 1.0 + 1e-12 and min(sharp) >= 1.0 - 1e-12
    return (
        "discrete Poincare-Wirtinger (random fields, lowest mode of each grid)",
        ok,
        f"worst random ratio {worst:.4f}, lowest-mode ratios 1 "
        + ", 1 ".join(f"{r - 1.0:+.1e}" for r in sharp),
    )


def _suite_reaction_oracle(rng):
    states = rng.uniform(0.05, 3.0, size=(100, 3))
    # RK4 against the closed form in 50-digit mpmath, on these states: off by
    # 2.95e-12 at 100 substeps, 3.69e-14 at 300, 1.07e-14 at 1000, 2.09e-14
    # at 3000 and 3.55e-14 at 10000, where rounding outweighs truncation.
    # reaction_substep is 4.4e-16 off, so the max diff is the oracle's own
    # error; a reaction over dt (1 + 1e-11) reads 3.6e-12 and fails the gate.
    ref = oracle.homogeneous_ode(*states.T, 0.1, 1_000)
    got = reaction_substep(SpeciesFields(*states.T), 0.1)
    worst = float(np.max(np.abs(np.stack(got.species()) - np.stack((ref.a, ref.b, ref.c)))))
    ok = worst <= 1e-12
    return ("reaction substep vs RK4 oracle (100 states)", ok, f"max diff {worst:.2e}")


def _suite_brute_force(rng):
    grid = Grid.box([1.0], [32])
    params = ModelParams(1.0, 0.5, 0.0)
    worst = 0.0
    for _ in range(20):
        f = SpeciesFields(*(rng.uniform(0.2, 3.0, size=grid.cells) for _ in range(3)))
        eq = equilibrium_state(*conserved_masses(f, grid))
        s1 = sample(f, 0.0, eq, params, grid)
        s2 = oracle.brute_force_sample(f, 0.0, eq, params, grid)
        for name in CSV_COLUMNS:
            x, y = s1[name], s2[name]
            worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1e-30))
    ok = worst <= 1e-12
    return ("brute-force sampler vs functionals (20 fields)", ok, f"worst rel diff {worst:.1e}")


#: the diffusivities of the inequality ensemble: field i takes mode i % 3
_ENSEMBLE_MODES = (ModelParams(1.0, 0.5, 0.8), ModelParams(1.0, 0.0, 1.0),
                   ModelParams(1.0, 1.0, 0.0))

def _inequality_rows(rng, grid):
    """One row (E_rel, ckp_lhs, D, rhs, M1, M2) for each of 1000 random
    fields, each against the equilibrium of its own masses, with rhs the
    dissipation bound of its mode.

    The fields are drawn in blocks of 3 * block_records(grid) (30 on 128
    cells), so that each mode's sample call takes as many states as one of
    run's blocks.  Each block comes from one uniform call, which fills in C
    order: each field, and so each row, is the one a loop drawing a, b and
    c field by field gives, bit for bit.  Each block starts at mode 0, is
    checked by positive_stacks, takes its masses from one conserved_masses
    call and samples the members of each mode with one sample call, one
    reference per member.
    """
    rows = np.empty((1000, 6))
    size = len(_ENSEMBLE_MODES) * block_records(grid)
    for start in range(0, len(rows), size):
        block = rows[start:start + size]
        u = rng.uniform(0.2, 3.0, size=(len(block), 3) + grid.cells)
        if not positive_stacks(u, 1).all():
            raise InvalidState("a random field of the inequality ensemble is not positive")
        eqs = [equilibrium_state(m1, m2) for m1, m2 in conserved_masses(u, grid).tolist()]
        for k, params in enumerate(_ENSEMBLE_MODES):
            members = slice(k, None, len(_ENSEMBLE_MODES))
            s = sample(u[members], np.zeros(len(eqs[members])), eqs[members], params, grid)
            rhs = dissipation_bound_rhs((s["dev_A2"], s["dev_B2"], s["dev_C2"]),
                                        s["abc_defect"], params, grid.poincare_constant)
            block[members] = np.stack(
                (s["E_rel"], s["ckp_lhs"], s["D"], rhs, s["M1"], s["M2"]), axis=1)
    return rows


def _suite_inequalities(rng):
    grid = Grid.box([1.0], [128])
    e_rel, ckp_lhs, diss, rhs, m1, m2 = _inequality_rows(rng, grid).T
    volume = grid.domain.volume
    ckp_bad = int(np.count_nonzero(ckp_violation(e_rel, ckp_lhs, m1, m2, volume)))
    diss_bad = int(np.count_nonzero(bound_violation(diss, rhs, m1, m2, volume)))
    ok = ckp_bad == 0 and diss_bad == 0
    return (
        "inequality ensembles (1000 random fields)",
        ok,
        f"CKP violations {ckp_bad}, dissipation-bound violations {diss_bad}",
    )


def _suite_reaction_conservation(rng):
    grid = Grid.box([1.0], [64])
    worst = 0.0
    for _ in range(50):
        f = SpeciesFields(*(rng.uniform(0.1, 4.0, size=grid.cells) for _ in range(3)))
        g = reaction_substep(f, rng.uniform(0.01, 2.0))
        worst = max(
            worst,
            float(np.max(np.abs((g.a + g.c) - (f.a + f.c)) / (f.a + f.c))),
            float(np.max(np.abs((g.b + g.c) - (f.b + f.c)) / (f.b + f.c))),
        )
    ok = worst <= 5e-16
    return ("reaction substep pointwise conservation", ok, f"worst rel drift {worst:.1e}")


def run_property_suites():
    rng = np.random.default_rng(20260809)
    suites = (
        _suite_equilibrium,
        _suite_diffusion,
        _suite_poincare,
        _suite_reaction_oracle,
        _suite_brute_force,
        _suite_reaction_conservation,
        _suite_inequalities,
    )
    return [suite(rng) for suite in suites]
