"""Entropy, dissipation, deviation norms and the inequality checks.

All functionals are evaluated on a single field snapshot with midpoint
quadrature.  sample is the one evaluator of a snapshot: it records them
all as one dict keyed by CSV_COLUMNS, the names of the timeseries.csv
columns, in that order.  ckp_violation and bound_violation, with
dissipation_bound_rhs, are the one judge of recorded samples.  The
functionals take a SpeciesFields, whose constructor has already checked
that the fields are finite and strictly positive, and do not check it
again.  Nonnegativity of the entropy-type quantities is structural: the
entropy and the relative entropy integrate one log1p density
r*((1+x)*log1p(x) - x) with x = (u-r)/r, which is nonnegative for every
x > -1, and the reaction production (ab-c)*ln(ab/c) is a product of
same-sign factors.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import DegenerateEquilibrium
from .grid import Grid, deviation_l2, dirichlet_energy, integrate, lp_norm
from .model import EquilibriumState, ModelParams, conserved_masses

__all__ = [
    "RunningIntegrals",
    "entropy",
    "relative_entropy",
    "dissipation",
    "dissipation_bound_rhs",
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


def _kl_density(u, ref):
    """u*ln(u/ref) - u + ref, evaluated cancellation-free via log1p."""
    delta = (u - ref) / ref
    return ref * ((1.0 + delta) * np.log1p(delta) - delta)


def _kl_integral(fields, refs, grid: Grid) -> float:
    """int sum_u _kl_density(u, ref_u) over a, b and c."""
    (a, b, c), (ra, rb, rc) = fields.species(), refs
    return integrate(_kl_density(a, ra) + _kl_density(b, rb) + _kl_density(c, rc), grid)


def entropy(fields, grid: Grid) -> float:
    """Entropy E = int sum_u (u ln u - u + 1), the relative entropy to
    (1, 1, 1); nonnegative."""
    return _kl_integral(fields, (1.0, 1.0, 1.0), grid)


def relative_entropy(fields, eq: EquilibriumState, grid: Grid) -> float:
    """Relative entropy sum_u int (u ln(u/u_inf) - u + u_inf); nonnegative.

    Equals entropy(fields) - entropy(equilibrium) whenever the conserved
    masses match.
    """
    refs = (eq.a_inf, eq.b_inf, eq.c_inf)
    if any(r <= 0.0 for r in refs):
        raise DegenerateEquilibrium(
            "relative entropy needs strictly positive equilibrium components"
        )
    return _kl_integral(fields, refs, grid)


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


def ckp_violation(e_rel, ckp_lhs, m1, m2, volume):
    """Per sample, the amount by which ckp_lhs <= e_rel fails beyond the
    allowed slack: 0 where it holds, inf where an input is not finite (so
    NaN never passes).  Takes scalars or arrays of samples."""
    return _excess(ckp_lhs, e_rel, m1, m2, volume)


def bound_violation(lhs, rhs, m1, m2, volume):
    """Per sample, the amount by which lhs >= rhs fails beyond the allowed
    slack: 0 where it holds, inf where an input is not finite (so NaN never
    passes).  Takes scalars or arrays of samples."""
    return _excess(rhs, lhs, m1, m2, volume)


def _excess(small, large, m1, m2, volume):
    """max(0, small - large - REL_SLACK * scale) elementwise, inf where an
    input is not finite; a float for scalar inputs.

    The scale max(large, small, |Omega|*(1+M1+M2)**2) adds to the two sides
    the natural size of the functionals on order-mass fields, so that
    rounding-floor snapshots are compared against an absolute resolution
    rather than against noise.
    """
    args = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                 for x in (small, large, m1, m2, volume)))
    small, large, m1, m2, volume = args
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(np.maximum(large, small), volume * (1.0 + m1 + m2) ** 2)
        excess = np.maximum(small - large - REL_SLACK * scale, 0.0)
    excess = np.where(np.all(np.isfinite(args), axis=0), excess, math.inf)
    return excess if excess.ndim else float(excess)


def sample(fields, t: float, eq: EquilibriumState, params: ModelParams, grid: Grid,
           running: RunningIntegrals | None = None) -> dict:
    """Every recorded functional of one snapshot, keyed by CSV_COLUMNS in
    that order.

    The box is grid.domain: its volume |Omega| enters M1, M2 and ckp_lhs,
    its dimension the exponent of b_lN2.  Updates the running
    time-integrals (trapezoid rule at record times) when an accumulator is
    supplied.  Nothing here checks the result: on huge fields a functional
    may overflow to inf, and the caller that records the sample rejects any
    non-finite value.
    """
    a, b, c = fields.a, fields.b, fields.c
    m1, m2 = conserved_masses(fields, grid)

    sqa, sqb, sqc = np.sqrt(a), np.sqrt(b), np.sqrt(c)
    dev_a, dev_b, dev_c = (deviation_l2(sq, grid) for sq in (sqa, sqb, sqc))
    defect = sqa * sqb - sqc

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
    # the CKP bound kappa*|Omega|*(l1_a^2/(2 M1) + l1_b^2/(2 M2) + l1_c^2/(M1+M2))
    ckp_lhs = CKP_PREFACTOR * grid.domain.volume * (
        l1a * l1a / (2.0 * eq.M1)
        + l1b * l1b / (2.0 * eq.M2)
        + l1c * l1c / (eq.M1 + eq.M2)
    )
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
        "dev_A2": dev_a * dev_a,
        "dev_B2": dev_b * dev_b,
        "dev_C2": dev_c * dev_c,
        "abc_defect": integrate(defect * defect, grid),
        "ckp_lhs": ckp_lhs,
        "b_l32": lp_norm(b, 1.5, grid),
        "a_l32": lp_norm(a, 1.5, grid),
        "b_lN2": lp_norm(b, max(1.0, grid.domain.dimension / 2.0), grid),
        "c_l3": lp_norm(c, 3.0, grid),
        "int_a2ac": int_a2ac,
        "int_b2bc": int_b2bc,
    }
