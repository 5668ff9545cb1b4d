"""Entropy, dissipation, deviation norms and the inequality checks.

All functionals are evaluated on a single field snapshot with midpoint
quadrature.  sample records them all as one dict keyed by CSV_COLUMNS, the
names of the timeseries.csv columns, in that order.  The functionals take
a SpeciesFields, whose constructor has already checked that the fields are
finite and strictly positive, and do not check it again.  Nonnegativity of the entropy-type quantities is structural:
the relative entropy is assembled from the entropy ratio function times a
square, and the reaction production (ab-c)*ln(ab/c) is a product of
same-sign factors.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import DegenerateEquilibrium, InvalidMass
from .grid import Grid, deviation_l2, dirichlet_energy, integrate, lp_norm
from .model import DomainSpec, EquilibriumState, ModelParams, conserved_masses, gamma_ratio

__all__ = [
    "RunningIntegrals",
    "entropy",
    "relative_entropy",
    "dissipation",
    "ckp_lower_bound",
    "dissipation_deviation_bound",
    "dissipation_bound_rhs",
    "inequality_scale",
    "ckp_violation",
    "bound_violation",
    "sample",
    "CSV_COLUMNS",
    "CKP_PREFACTOR",
    "REL_SLACK",
]

#: prefactor (3 + 2*sqrt(2)) / (9 + 2*sqrt(2)) of the CKP lower bound
CKP_PREFACTOR = (3.0 + 2.0 * math.sqrt(2.0)) / (9.0 + 2.0 * math.sqrt(2.0))

#: relative slack allowed when asserting the inequality suite
REL_SLACK = 1e-10

#: reaction terms are zeroed when |ab - c| is below this multiple of max(ab, c)
REACTION_GUARD = 1e-15


@dataclass
class RunningIntegrals:
    """Trapezoid accumulators for int_0^t int (a^2+ac) and int_0^t int (b^2+bc)."""

    t_prev: float | None = None
    fa_prev: float = 0.0
    fb_prev: float = 0.0
    int_a2ac: float = 0.0
    int_b2bc: float = 0.0

    def update(self, t: float, fa: float, fb: float) -> None:
        if self.t_prev is not None:
            dt = t - self.t_prev
            self.int_a2ac += 0.5 * dt * (self.fa_prev + fa)
            self.int_b2bc += 0.5 * dt * (self.fb_prev + fb)
        self.t_prev = t
        self.fa_prev = fa
        self.fb_prev = fb


#: the recorded functionals in timeseries.csv column order: the keys of
#: every sample, and the growth-diagnostic labels of analysis
CSV_COLUMNS = (
    "t", "E", "E_rel", "D",
    "M1", "M2",
    "l1_a", "l1_b", "l1_c",
    "dev_A2", "dev_B2", "dev_C2",
    "abc_defect", "ckp_lhs",
    "b_l32", "a_l32", "b_lN2", "c_l3",
    "int_a2ac", "int_b2bc",
)


def _kl_density(u, ref=1.0):
    """u*ln(u/ref) - u + ref, evaluated cancellation-free via log1p."""
    delta = (u - ref) / ref
    return ref * ((1.0 + delta) * np.log1p(delta) - delta)


def entropy(fields, grid: Grid) -> float:
    """Entropy E = int sum_u (u ln u - u + 1); nonnegative."""
    dens = (
        _kl_density(fields.a)
        + _kl_density(fields.b)
        + _kl_density(fields.c)
    )
    return integrate(dens, grid)


def relative_entropy(fields, eq: EquilibriumState, grid: Grid) -> float:
    """Relative entropy sum_u int (u ln(u/u_inf) - u + u_inf).

    Assembled as int Gamma(u, u_inf) * (sqrt(u) - sqrt(u_inf))**2 per
    species, which keeps the result nonnegative down to the rounding floor.
    Equals entropy(fields) - entropy(equilibrium) whenever the conserved
    masses match.
    """
    refs = (eq.a_inf, eq.b_inf, eq.c_inf)
    if any(r <= 0.0 for r in refs):
        raise DegenerateEquilibrium(
            "relative entropy needs strictly positive equilibrium components"
        )
    total = 0.0
    for u, ref in zip(fields.species(), refs):
        gap = np.sqrt(u) - math.sqrt(ref)
        total += integrate(gamma_ratio(u, ref) * gap * gap, grid)
    return total


def reaction_production(a, b, c):
    """Pointwise (ab-c)*ln(ab/c) with a guard at rounding-level defects.

    Returns 0 where |ab-c| < 1e-15 * max(ab, c); both factors share the sign
    of ab-c, so the product is nonnegative cellwise.
    """
    ab = a * b
    w = ab - c
    guard = np.abs(w) < REACTION_GUARD * np.maximum(ab, c)
    safe_w = np.where(guard, 0.0, w)
    return safe_w * np.log1p(safe_w / c)


def dissipation(fields, params: ModelParams, grid: Grid) -> float:
    """Entropy dissipation 4*sum_u d_u*int|grad sqrt(u)|^2 + int (ab-c)ln(ab/c).

    Covers the full system and reduces to the two degenerate variants when
    d_b = 0 or d_c = 0 (the vanished gradient term drops out).
    """
    total = 0.0
    for d, u in zip(params.diffusivities(), fields.species()):
        if d > 0.0:
            total += 4.0 * d * dirichlet_energy(np.sqrt(u), grid)
    total += integrate(reaction_production(fields.a, fields.b, fields.c), grid)
    return total


def ckp_lower_bound(fields, eq: EquilibriumState, grid: Grid) -> float:
    """Csiszar-Kullback-Pinsker lower bound on the relative entropy.

    kappa * |Omega| * ( ||a-a_inf||_1^2/(2 M1) + ||b-b_inf||_1^2/(2 M2)
    + ||c-c_inf||_1^2/(M1+M2) ) with kappa = (3+2*sqrt(2))/(9+2*sqrt(2)),
    mass placement as in the decay theorems.
    """
    l1a = lp_norm(fields.a - eq.a_inf, 1, grid)
    l1b = lp_norm(fields.b - eq.b_inf, 1, grid)
    l1c = lp_norm(fields.c - eq.c_inf, 1, grid)
    return _ckp_from_l1(l1a, l1b, l1c, eq, grid)


def _ckp_from_l1(l1a, l1b, l1c, eq, grid):
    """ckp_lower_bound from the L1 distances of a, b and c to equilibrium."""
    if eq.M1 <= 0.0 or eq.M2 <= 0.0:
        raise InvalidMass("CKP bound requires strictly positive masses")
    volume = grid.cell_volume * grid.n_cells
    return CKP_PREFACTOR * volume * (
        l1a * l1a / (2.0 * eq.M1)
        + l1b * l1b / (2.0 * eq.M2)
        + l1c * l1c / (eq.M1 + eq.M2)
    )


def inequality_scale(lhs: float, rhs: float, m1: float, m2: float, volume: float) -> float:
    """Reference scale for the inequality suite tolerances.

    max of the two sides and the natural size |Omega|*(1+M1+M2)**2 of the
    functionals on order-mass fields, so that rounding-floor snapshots are
    compared against an absolute resolution rather than against noise.
    """
    return max(lhs, rhs, volume * (1.0 + m1 + m2) ** 2)


def dissipation_deviation_bound(fields, params: ModelParams, domain: DomainSpec,
                                grid: Grid) -> tuple[float, float]:
    """Dissipation lower bound pair (lhs, rhs): the dissipation and
    dissipation_bound_rhs of the snapshot."""
    dev2, abc_defect = _deviations(fields, grid)
    rhs = dissipation_bound_rhs(dev2, abc_defect, params.diffusivities(),
                                domain.poincare_constant)
    return dissipation(fields, params, grid), rhs


def _deviations(fields, grid):
    """Squared deviations ||sqrt(u) - avg sqrt(u)||_2^2 of a, b and c, and
    abc_defect = ||sqrt(a b) - sqrt(c)||_2^2."""
    sqa, sqb, sqc = (np.sqrt(u) for u in fields.species())
    devs = [deviation_l2(sq, grid) for sq in (sqa, sqb, sqc)]
    defect = sqa * sqb - sqc
    return [dev * dev for dev in devs], integrate(defect * defect, grid)


def dissipation_bound_rhs(dev2, abc_defect: float, diffusivities,
                          poincare: float) -> float:
    """Right-hand side of the dissipation bound D >= rhs.

    rhs = sum over diffusing species of (4 d_u / P(Omega)) * dev_u^2 plus
    4 * abc_defect, where dev_u^2 = ||sqrt(u) - avg sqrt(u)||_2^2 and
    abc_defect = ||sqrt(a b) - sqrt(c)||_2^2, per sample or elementwise over
    arrays of samples.  Deviation terms of non-diffusing species drop out,
    matching the degeneracy mode.
    """
    rhs = 0.0
    for d, dev2_u in zip(diffusivities, dev2):
        if d > 0.0:
            rhs += 4.0 * d / poincare * dev2_u
    return rhs + 4.0 * abc_defect


def ckp_violation(e_rel: float, ckp_lhs: float, m1: float, m2: float,
                  volume: float) -> float:
    """Amount by which ckp_lhs <= e_rel fails beyond the allowed slack: 0 if it
    holds, inf if any input is non-finite (so NaN never passes)."""
    return _excess(ckp_lhs, e_rel, m1, m2, volume)


def bound_violation(lhs: float, rhs: float, m1: float, m2: float,
                    volume: float) -> float:
    """Amount by which lhs >= rhs fails beyond the allowed slack: 0 if it
    holds, inf if any input is non-finite (so NaN never passes)."""
    return _excess(rhs, lhs, m1, m2, volume)


def _excess(small, large, m1, m2, volume):
    # checked up front: max() and comparisons pass NaN through as 0 or False
    if not all(math.isfinite(x) for x in (small, large, m1, m2, volume)):
        return math.inf
    slack = REL_SLACK * inequality_scale(large, small, m1, m2, volume)
    return max(0.0, small - large - slack)


def sample(fields, t: float, eq: EquilibriumState, params: ModelParams,
           domain: DomainSpec, grid: Grid,
           running: RunningIntegrals | None = None) -> dict:
    """Every recorded functional of one snapshot, keyed by CSV_COLUMNS in
    that order.

    Updates the running time-integrals (trapezoid rule at record times)
    when an accumulator is supplied.  Nothing here checks the result: on
    huge fields a functional may overflow to inf, and the caller that
    records the sample rejects any non-finite value.
    """
    a, b, c = fields.a, fields.b, fields.c
    m1, m2 = conserved_masses(fields, grid, domain)

    (dev_a2, dev_b2, dev_c2), abc_defect = _deviations(fields, grid)

    fa = integrate(a * a + a * c, grid)
    fb = integrate(b * b + b * c, grid)
    if running is not None:
        running.update(t, fa, fb)
        int_a2ac = running.int_a2ac
        int_b2bc = running.int_b2bc
    else:
        int_a2ac = 0.0
        int_b2bc = 0.0

    l1a = lp_norm(a - eq.a_inf, 1, grid)
    l1b = lp_norm(b - eq.b_inf, 1, grid)
    l1c = lp_norm(c - eq.c_inf, 1, grid)
    return {
        "t": t,
        "E": entropy(fields, grid),
        "E_rel": relative_entropy(fields, eq, grid),
        "D": dissipation(fields, params, grid),
        "M1": m1,
        "M2": m2,
        "l1_a": l1a,
        "l1_b": l1b,
        "l1_c": l1c,
        "dev_A2": dev_a2,
        "dev_B2": dev_b2,
        "dev_C2": dev_c2,
        "abc_defect": abc_defect,
        "ckp_lhs": _ckp_from_l1(l1a, l1b, l1c, eq, grid),
        "b_l32": lp_norm(b, 1.5, grid),
        "a_l32": lp_norm(a, 1.5, grid),
        "b_lN2": lp_norm(b, max(1.0, domain.dimension / 2.0), grid),
        "c_l3": lp_norm(c, 3.0, grid),
        "int_a2ac": int_a2ac,
        "int_b2bc": int_b2bc,
    }
