"""Self-contained property suites behind the `verify` command.

Each suite returns (name, passed, detail).  Randomness is seeded, so the
command is deterministic.
"""
from __future__ import annotations

import math

import numpy as np

from . import oracle
from .functionals import (
    CSV_COLUMNS,
    bound_violation,
    ckp_violation,
    ckp_lower_bound,
    dissipation_deviation_bound,
    relative_entropy,
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
    gamma_ratio,
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


def _suite_gamma(rng):
    xs = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), size=4000))
    ys = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), size=4000))
    g = gamma_ratio(xs, ys)
    nonneg = bool(np.all(g >= 0.0))
    bound_const = float(np.max(g / np.maximum(1.0, np.log(xs / ys))))
    # continuity across the Taylor switch
    y = 1.0
    jump = 0.0
    for side in (1 - 1.2e-7, 1 - 0.8e-7, 1 + 0.8e-7, 1 + 1.2e-7):
        x = (side) ** 2 * y
        jump = max(jump, abs(gamma_ratio(x, y) - 2.0))
    ok = nonneg and math.isfinite(bound_const) and jump < 1e-6
    return (
        "entropy ratio function (nonneg, bounded, continuous switch)",
        ok,
        f"fitted C_Gamma {bound_const:.4g}, switch gap {jump:.1e}",
    )


def _grids():
    d1 = DomainSpec.box([1.0])
    d2 = DomainSpec.box([1.0, 0.7])
    return [
        (d1, Grid.for_domain(d1, [64])),
        (d2, Grid.for_domain(d2, [24, 16])),
    ]


def _suite_laplacian(rng):
    worst_cons = worst_sym = worst_sd = 0.0
    for _, grid in _grids():
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


def _suite_poincare(rng):
    worst = -np.inf
    for domain, grid in _grids():
        for _ in range(200):
            u = rng.uniform(0.0, 1.0, size=grid.cells)
            dev = deviation_l2(u, grid)
            energy = dirichlet_energy(u, grid)
            if energy > 0:
                worst = max(worst, dev * dev / (domain.poincare_constant * energy))
    ok = worst <= 1.0
    return ("discrete Poincare-Wirtinger on random fields", ok, f"worst ratio {worst:.4f}")


def _suite_reaction_oracle(rng):
    worst = 0.0
    for _ in range(100):
        a0, b0, c0 = rng.uniform(0.05, 3.0, size=3)
        ref = oracle.homogeneous_ode(a0, b0, c0, 0.1, 10_000)
        got = oracle.reaction_closed_form(a0, b0, c0, 0.1)
        worst = max(worst, abs(got[0] - ref.a), abs(got[1] - ref.b), abs(got[2] - ref.c))
    ok = worst <= 1e-10
    return ("reaction closed form vs RK4 oracle (100 states)", ok, f"max diff {worst:.2e}")


def _suite_brute_force(rng):
    domain = DomainSpec.box([1.0])
    grid = Grid.for_domain(domain, [32])
    params = ModelParams(1.0, 0.5, 0.0)
    worst = 0.0
    for _ in range(20):
        f = SpeciesFields(*(rng.uniform(0.2, 3.0, size=grid.cells) for _ in range(3)))
        m1, m2 = conserved_masses(f, grid, domain)
        eq = equilibrium_state(m1, m2)
        s1 = sample(f, 0.0, eq, params, domain, grid)
        s2 = oracle.brute_force_sample(f, 0.0, eq, params, domain, grid)
        for name in CSV_COLUMNS:
            x, y = s1[name], s2[name]
            worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1e-30))
    ok = worst <= 1e-12
    return ("brute-force sampler vs functionals (20 fields)", ok, f"worst rel diff {worst:.1e}")


def _suite_inequalities(rng):
    domain = DomainSpec.box([1.0])
    grid = Grid.for_domain(domain, [128])
    params_by_mode = {
        "full": ModelParams(1.0, 0.5, 0.8),
        "db0": ModelParams(1.0, 0.0, 1.0),
        "dc0": ModelParams(1.0, 1.0, 0.0),
    }
    ckp_bad = diss_bad = 0
    for i in range(1000):
        f = SpeciesFields(*(rng.uniform(0.2, 3.0, size=grid.cells) for _ in range(3)))
        m1, m2 = conserved_masses(f, grid, domain)
        eq = equilibrium_state(m1, m2)
        e_rel = relative_entropy(f, eq, grid)
        ckp = ckp_lower_bound(f, eq, grid)
        if ckp_violation(e_rel, ckp, m1, m2, domain.volume) > 0:
            ckp_bad += 1
        params = list(params_by_mode.values())[i % 3]
        lhs, rhs = dissipation_deviation_bound(f, params, domain, grid)
        if bound_violation(lhs, rhs, m1, m2, domain.volume) > 0:
            diss_bad += 1
    ok = ckp_bad == 0 and diss_bad == 0
    return (
        "inequality ensembles (1000 random fields)",
        ok,
        f"CKP violations {ckp_bad}, dissipation-bound violations {diss_bad}",
    )


def _suite_reaction_conservation(rng):
    domain = DomainSpec.box([1.0])
    grid = Grid.for_domain(domain, [64])
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
        _suite_gamma,
        _suite_laplacian,
        _suite_poincare,
        _suite_reaction_oracle,
        _suite_brute_force,
        _suite_reaction_conservation,
        _suite_inequalities,
    )
    return [suite(rng) for suite in suites]
