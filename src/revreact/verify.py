"""Self-contained property suites behind the `verify` command.

Each suite returns (name, passed, detail).  Randomness is seeded, so the
command is deterministic.
"""
from __future__ import annotations

import numpy as np

from . import oracle
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
    laplacian_neumann,
)
from .model import (
    DomainSpec,
    ModelParams,
    conserved_masses,
    equilibrium_state,
)
from .solver import reaction_substep

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
        Grid.for_domain(DomainSpec.box([1.0]), [64]),
        Grid.for_domain(DomainSpec.box([1.0, 0.7]), [24, 16]),
    ]


def _suite_laplacian(rng):
    worst_cons = worst_sym = worst_sd = 0.0
    for grid in _grids():
        for _ in range(40):
            u = rng.uniform(-1.0, 1.0, size=grid.cells)
            v = rng.uniform(-1.0, 1.0, size=grid.cells)
            lu = laplacian_neumann(u, grid)
            lv = laplacian_neumann(v, grid)
            scale = float(np.max(np.abs(lu))) + 1e-30
            worst_cons = max(worst_cons, abs(integrate(lu, grid)) / scale)
            ip_uv = integrate(lu * v, grid)
            ip_vu = integrate(lv * u, grid)
            worst_sym = max(worst_sym, abs(ip_uv - ip_vu) / (abs(ip_uv) + 1e-30))
            worst_sd = max(worst_sd, integrate(lu * u, grid))
    ok = worst_cons <= 1e-13 and worst_sym <= 1e-12 and worst_sd <= 0.0
    return (
        "Neumann Laplacian (conservative, symmetric, semidefinite)",
        ok,
        f"cons {worst_cons:.1e}, sym {worst_sym:.1e}, max<Lu,u> {worst_sd:.1e}",
    )


def _axis_modes(grid):
    """The lowest nonconstant Neumann mode cos(pi x / L) along each axis of
    at least 2 cells, sampled at the cell centers; the one along the slowest
    axis attains the discrete Poincare constant."""
    ones = [1] * len(grid.cells)
    for ax, n in enumerate(grid.cells):
        if n > 1:
            mode = np.cos(np.pi * grid.axis_coordinates(ax) / grid.domain.lengths[ax])
            yield np.broadcast_to(mode.reshape(ones[:ax] + [n] + ones[ax + 1:]), grid.cells)


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
    ref = oracle.homogeneous_ode(*states.T, 0.1, 10_000)
    got = reaction_substep(SpeciesFields(*states.T), 0.1)
    worst = float(np.max(np.abs(np.stack(got.species()) - np.stack((ref.a, ref.b, ref.c)))))
    ok = worst <= 1e-10
    return ("reaction substep vs RK4 oracle (100 states)", ok, f"max diff {worst:.2e}")


def _suite_brute_force(rng):
    grid = Grid.for_domain(DomainSpec.box([1.0]), [32])
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


def _suite_inequalities(rng):
    grid = Grid.for_domain(DomainSpec.box([1.0]), [128])
    domain = grid.domain
    params_by_mode = {
        "full": ModelParams(1.0, 0.5, 0.8),
        "db0": ModelParams(1.0, 0.0, 1.0),
        "dc0": ModelParams(1.0, 1.0, 0.0),
    }
    # one row per field: E_rel, ckp_lhs, D, rhs, M1, M2
    rows = np.empty((1000, 6))
    for i in range(1000):
        f = SpeciesFields(*(rng.uniform(0.2, 3.0, size=grid.cells) for _ in range(3)))
        eq = equilibrium_state(*conserved_masses(f, grid))
        params = list(params_by_mode.values())[i % 3]
        s = sample(f, 0.0, eq, params, grid)
        rhs = dissipation_bound_rhs((s["dev_A2"], s["dev_B2"], s["dev_C2"]), s["abc_defect"],
                                    params.diffusivities(), grid.poincare_constant)
        rows[i] = s["E_rel"], s["ckp_lhs"], s["D"], rhs, s["M1"], s["M2"]
    e_rel, ckp_lhs, diss, rhs, m1, m2 = rows.T
    ckp_bad = int(np.count_nonzero(ckp_violation(e_rel, ckp_lhs, m1, m2, domain.volume)))
    diss_bad = int(np.count_nonzero(bound_violation(diss, rhs, m1, m2, domain.volume)))
    ok = ckp_bad == 0 and diss_bad == 0
    return (
        "inequality ensembles (1000 random fields)",
        ok,
        f"CKP violations {ckp_bad}, dissipation-bound violations {diss_bad}",
    )


def _suite_reaction_conservation(rng):
    grid = Grid.for_domain(DomainSpec.box([1.0]), [64])
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
        _suite_laplacian,
        _suite_poincare,
        _suite_reaction_oracle,
        _suite_brute_force,
        _suite_reaction_conservation,
        _suite_inequalities,
    )
    return [suite(rng) for suite in suites]
