"""Entropy, dissipation, deviation norms and the inequality checks.

All functionals are evaluated on a single snapshot, the (3, *cells) stack
of a SpeciesFields, with midpoint quadrature.  sample is the one evaluator
of a snapshot: it records them all as one dict keyed by CSV_COLUMNS, the
names of the timeseries.csv columns, in that order.  It makes one pass
over the stack for each ingredient shared by the species: the masses,
the square roots, the deviations, the L1 distances, the Dirichlet
energies of the diffusing species and the L^(3/2) norms of a and b; the
two entropies take one log1p density pass per species, against both
references at once.  Each row is summed over its trailing cell axes, the
order np.sum takes over that field alone, so every column is
bit-identical to evaluating the species one at a time.  ckp_violation and
bound_violation, with dissipation_bound_rhs, are the one judge of
recorded samples.  The functionals take a SpeciesFields, whose
constructor has already checked that the fields are finite and strictly
positive, and do not check it again.

Nonnegativity of the entropy-type quantities is structural: the entropy
and the relative entropy integrate one log1p density
r*((1+x)*log1p(x) - x) with x = (u-r)/r, which is nonnegative for every
x > -1, and the reaction production (ab-c)*ln(ab/c) is a product of
same-sign factors.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .grid import (Grid, deviations_l2, dirichlet_energies, integrate, lp_norm, lp_norms,
                   row_integrals)
from .model import EquilibriumState, ModelParams, conserved_masses

__all__ = [
    "RunningIntegrals",
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
    """u*ln(u/ref) - u + ref, evaluated cancellation-free via log1p as
    ref*((1+x)*log1p(x) - x) with x = (u-ref)/ref, elementwise over u and
    ref broadcast together, updating its work arrays in place."""
    x = u - ref
    x /= ref
    out = np.log1p(x)
    out *= 1.0 + x
    out -= x
    out *= ref
    return out


def _kl_integrals(u, refs, grid: Grid) -> list[float]:
    """int sum_u _kl_density(u, ref_u) over a, b and c, for each row
    (ref_a, ref_b, ref_c) of refs.

    One density pass per species evaluates it against every reference at
    once.  Passes over the whole (refs, 3, *cells) block would be fewer,
    but on a 3-D stack its work arrays outgrow glibc's 128 KiB mmap
    threshold: the heap is trimmed and faulted in again on every call,
    and the peak memory of a record grows by more than they save.
    """
    refs = np.reshape(refs, (-1, 3) + (1,) * (u.ndim - 1))
    total = _kl_density(u[0], refs[:, 0])
    total += _kl_density(u[1], refs[:, 1])
    total += _kl_density(u[2], refs[:, 2])
    return row_integrals(total, grid)


def reaction_production(a, b, c):
    """Pointwise (ab-c)*ln(ab/c), evaluated as w*log1p(w/c) with w = ab - c.

    With c > 0, w/c > -1, so the logarithm is finite and shares the sign of
    w: the product is nonnegative cellwise, and 0 exactly where ab == c.
    """
    w = a * b - c
    return w * np.log1p(w / c)


#: the rows of the species stack that diffuse in each mode, as basic
#: slices: views of a stack, where a list of rows would copy them
_DIFFUSING_ROWS = {"full": slice(0, 3), "db0": slice(0, 3, 2), "dc0": slice(0, 2)}


def _sqrt_terms(u, params: ModelParams, grid: Grid):
    """From one square root of the stack u: the squared deviation_l2 of
    sqrt(a), sqrt(b) and sqrt(c), the defect ||sqrt(ab) - sqrt(c)||^2 and
    the entropy dissipation

        D = 4 sum_u d_u int |grad sqrt(u)|^2 + int (ab - c) ln(ab/c),

    whose gradient term drops out for a species with d_u = 0 (the
    degenerate modes d_b = 0 and d_c = 0)."""
    sqrt_u = np.sqrt(u)
    devs = deviations_l2(sqrt_u, grid)
    w = sqrt_u[0] * sqrt_u[1]
    w -= sqrt_u[2]
    w *= w
    abc_defect = integrate(w, grid)
    energies = dirichlet_energies(sqrt_u[_DIFFUSING_ROWS[params.mode]], grid)
    diffusivities = [d for d in params.diffusivities() if d > 0.0]
    diss = 0.0
    for d, energy in zip(diffusivities, energies):
        diss += 4.0 * d * energy
    diss += integrate(reaction_production(*u), grid)
    return [dev * dev for dev in devs], abc_defect, diss


def dissipation_bound_rhs(dev2, abc_defect: float, diffusivities,
                          poincare: float) -> float:
    """Right-hand side of the dissipation bound D >= rhs.

    rhs = sum over diffusing species of (4 d_u / P) * dev_u^2 plus
    4 * abc_defect, with P the grid's discrete Poincare constant
    Grid.poincare_constant, where dev_u^2 = ||sqrt(u) - avg sqrt(u)||_2^2 and
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
    that order, each evaluated for all species at once over the rows of
    fields.stack.

    The box is grid.domain: its volume |Omega| enters M1, M2 and ckp_lhs,
    its dimension the exponent of b_lN2.  Updates the running
    time-integrals (trapezoid rule at record times) when an accumulator is
    supplied.  The components of eq must be positive, as run checks at
    t = 0.  Nothing here checks the result: on huge fields a functional
    may overflow to inf, and the caller that records the sample rejects any
    non-finite value.
    """
    u = fields.stack
    refs = (eq.a_inf, eq.b_inf, eq.c_inf)
    m1, m2 = conserved_masses(fields, grid)
    e, e_rel = _kl_integrals(u, ((1.0, 1.0, 1.0), refs), grid)

    (dev_a2, dev_b2, dev_c2), abc_defect, diss = _sqrt_terms(u, params, grid)

    # the integrands a*a + a*c and b*b + b*c of the running integrals
    w = u[:2] * u[:2]
    w += u[:2] * u[2]
    fa, fb = row_integrals(w, grid)
    if running is not None:
        running.update(t, fa, fb)
        int_a2ac = running.int_a2ac
        int_b2bc = running.int_b2bc
    else:
        int_a2ac = 0.0
        int_b2bc = 0.0

    l1a, l1b, l1c = lp_norms(u - np.reshape(refs, (3,) + (1,) * (u.ndim - 1)), 1.0, grid)
    # the CKP bound kappa*|Omega|*(l1_a^2/(2 M1) + l1_b^2/(2 M2) + l1_c^2/(M1+M2))
    ckp_lhs = CKP_PREFACTOR * grid.domain.volume * (
        l1a * l1a / (2.0 * eq.M1)
        + l1b * l1b / (2.0 * eq.M2)
        + l1c * l1c / (eq.M1 + eq.M2)
    )
    a_l32, b_l32 = lp_norms(u[:2], 1.5, grid)
    p_n2 = max(1.0, grid.domain.dimension / 2.0)  # 3/2 in three dimensions
    return {
        "t": t,
        "E": e,
        "E_rel": e_rel,
        "D": diss,
        "M1": m1,
        "M2": m2,
        "l1_a": l1a,
        "l1_b": l1b,
        "l1_c": l1c,
        "dev_A2": dev_a2,
        "dev_B2": dev_b2,
        "dev_C2": dev_c2,
        "abc_defect": abc_defect,
        "ckp_lhs": ckp_lhs,
        "b_l32": b_l32,
        "a_l32": a_l32,
        "b_lN2": b_l32 if p_n2 == 1.5 else lp_norm(u[1], p_n2, grid),
        "c_l3": lp_norm(u[2], 3.0, grid),
        "int_a2ac": int_a2ac,
        "int_b2bc": int_b2bc,
    }
