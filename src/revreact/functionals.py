"""Entropy, dissipation, deviation norms and the inequality checks.

The functionals are evaluated on a block of record states, a
(B, 3, *cells) array of stacked snapshots, with midpoint quadrature.
sample is the one evaluator: it records them all as one dict keyed by
CSV_COLUMNS, the names of the timeseries.csv columns, in that order, with
one float64 array per column and one entry per record.  A single
snapshot, the (3, *cells) stack of a SpeciesFields, is the block of one
record and runs the same calls; its columns are Python floats.  The
equilibrium reference is one per block (the records of a run) or one
per record (an ensemble of fields, each against its own masses), and
one reference is the broadcast case of one per record.  sample
makes one pass over the block for each ingredient shared by the species:
the masses, the square roots, the deviations, the L1 distances, the
Dirichlet energies of the diffusing species and the L^(3/2) norms of a
and b; the two entropies take one log1p density pass per species,
against both references at once; M1 and M2 are model.conserved_masses
of the block.  What follows the passes (D, ckp_lhs, the squared
deviations, the running integrals) is scalar arithmetic, done one
record at a time on Python floats.  Each pass ends in one of grid's
reductions (integrate, lp_norm, dirichlet_energy, deviation_l2) of the
whole block, which gives each field the value it gives that field alone,
so every column of a block is bit-identical to evaluating its records,
and their species, one at a time.  ckp_violation and bound_violation,
with dissipation_bound_rhs, are the one judge of recorded samples.  The
functionals take states already checked to be finite and strictly
positive, by the SpeciesFields constructor or by positive_stacks on a
block (run's records, verify's random fields), and do not check them
again.

Nonnegativity of the entropy-type quantities is structural: the entropy
and the relative entropy integrate one log1p density
r*((1+x)*log1p(x) - x) with x = (u-r)/r, which is nonnegative for every
x > -1, and the reaction production (ab-c)*ln(ab/c) is a product of
same-sign factors.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import math

import numpy as np

from .errors import InvalidArgument
from .grid import Grid, SpeciesFields, deviation_l2, dirichlet_energy, integrate, lp_norm
from .model import EquilibriumState, ModelParams, _scaled, conserved_masses

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
        # the first sample adds a trapezoid of width 0: 0 for a finite
        # integrand, NaN for an overflowed one, as later samples show it
        dt = 0.0 if self.t_prev is None else t - self.t_prev
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


#: -(1 - 2**-53), the double next above -1: its log1p is ln(2**-53), about
#: -36.7, where log1p(-1) is -inf and a division by zero
_ABOVE_MINUS_ONE = math.nextafter(-1.0, 0.0)
#: w/c where ab/c = 1e-2, at and below which ln(ab/c) is a sum of logarithms
_LOG_SUM_CUT = -0.99


def _kl_density(u, ref):
    """u*ln(u/ref) - u + ref, evaluated cancellation-free via log1p as
    ref*((1+x)*log1p(x) - x) with x = (u-ref)/ref, elementwise over u and
    ref broadcast together, updating its work arrays in place.

    Where u is below about 1e-16 of ref, x rounds to -1, where
    (1+x)*log1p(x) would be 0*(-inf) = NaN; the density there is ref
    within u*ln(ref/u) < 4e-15*ref.  Taking log1p of max(x, _ABOVE_MINUS_ONE)
    gives exactly those cells ref, with no division by zero, and leaves
    every other x, each at least _ABOVE_MINUS_ONE, and an overflowed u
    (x = inf, a NaN density) as they are."""
    x = u - ref
    x /= ref
    out = np.maximum(x, _ABOVE_MINUS_ONE)
    np.log1p(out, out=out)
    out *= 1.0 + x
    out -= x
    out *= ref
    return out


def _kl_integrals(u, refs, grid: Grid) -> np.ndarray:
    """int sum_u _kl_density(u, ref_u) over a, b and c, for each state of
    the (B, 3, *cells) block u and each row (ref_a, ref_b, ref_c) of its
    references refs, a (B or 1, R, 3) array whose leading axis is
    broadcast against the block: a (B, R) array.

    One density pass per species evaluates it against every reference at
    once.  Passes over the whole (B, refs, 3, *cells) block would be
    fewer, but on a 3-D stack their work arrays outgrow glibc's 128 KiB
    mmap threshold: the heap is trimmed and faulted in again on every
    call, and the peak memory of a record grows by more than they save.
    """
    refs = np.reshape(refs, refs.shape + (1,) * len(grid.cells))
    total = _kl_density(u[:, None, 0], refs[:, :, 0])
    total += _kl_density(u[:, None, 1], refs[:, :, 1])
    total += _kl_density(u[:, None, 2], refs[:, :, 2])
    return integrate(total, grid)


def reaction_production(a, b, c):
    """Pointwise (ab-c)*ln(ab/c), evaluated as w*log1p(w/c) with w = ab - c.

    With c > 0, w/c > -1, so the logarithm shares the sign of w: the
    product is nonnegative cellwise, and 0 exactly where ab == c.  Next to
    -c, w keeps only the digits of ab that survive rounding (log1p(w/c) is
    2.3e-5 off at ab/c = 1e-15, and -inf below about 1e-16), so the cells
    with w/c <= _LOG_SUM_CUT, and only those, take the logarithm as
    ln(a) + ln(b) - ln(c), which neither underflows nor overflows.
    """
    w = a * b - c
    ratio = w / c
    if np.min(ratio) > _LOG_SUM_CUT:
        return w * np.log1p(ratio)
    return w * np.where(ratio <= _LOG_SUM_CUT, np.log(a) + np.log(b) - np.log(c),
                        np.log1p(np.maximum(ratio, _LOG_SUM_CUT)))


def _sqrt_terms(u, params: ModelParams, grid: Grid):
    """From one square root of the (B, 3, *cells) block u, as lists of
    Python floats with one entry per state: the deviation_l2 of sqrt(a),
    sqrt(b) and sqrt(c), the defect ||sqrt(ab) - sqrt(c)||^2, and the two
    parts of the entropy dissipation

        D = 4 sum_u d_u int |grad sqrt(u)|^2 + int (ab - c) ln(ab/c):

    the Dirichlet energies of sqrt(u) for the species with d_u > 0, the
    rows params.diffusing (the gradient term drops out in the degenerate
    modes d_b = 0 and d_c = 0), and the reaction production."""
    sqrt_u = np.sqrt(u)
    w = sqrt_u[:, 0] * sqrt_u[:, 1]
    w -= sqrt_u[:, 2]
    w *= w
    return (deviation_l2(sqrt_u, grid).tolist(), integrate(w, grid).tolist(),
            dirichlet_energy(sqrt_u[:, params.diffusing], grid).tolist(),
            integrate(reaction_production(u[:, 0], u[:, 1], u[:, 2]), grid).tolist())


def dissipation_bound_rhs(dev2, abc_defect: float, params: ModelParams,
                          poincare: float) -> float:
    """Right-hand side of the dissipation bound D >= rhs.

    rhs = sum over the species params.diffusing of (4 d_u / P) * dev_u^2
    plus 4 * abc_defect, with P the grid's discrete Poincare constant
    Grid.poincare_constant, where dev2 = (dev_A2, dev_B2, dev_C2),
    dev_u^2 = ||sqrt(u) - avg sqrt(u)||_2^2 and abc_defect =
    ||sqrt(a b) - sqrt(c)||_2^2, per sample or elementwise over arrays of
    samples.  Deviation terms of non-diffusing species drop out, matching
    the degeneracy mode.
    """
    rhs = 0.0
    for d, dev2_u in zip(params.diffusivities()[params.diffusing], dev2[params.diffusing]):
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


def sample(states, t, eq: EquilibriumState | Sequence[EquilibriumState], params: ModelParams,
           grid: Grid, running: RunningIntegrals | None = None) -> dict:
    """Every recorded functional of a block of states, keyed by
    CSV_COLUMNS in that order, each evaluated for all records and species
    at once.

    states is a (B, 3, *cells) array of B checked states at the B times t,
    in time order, or the SpeciesFields of one snapshot at the time t.
    Each column holds one value per record: a float64 array for a block,
    a Python float for the scalar t of one snapshot.  eq is the
    equilibrium reference of E_rel, the L1 distances and ckp_lhs: one
    EquilibriumState for the whole block, or a sequence of B of them, one
    per record, as for an ensemble of fields each against the equilibrium
    of its own masses; a sequence of another length raises
    InvalidArgument.  Either way record i comes out bit for bit as it does
    sampled alone against its reference.  An empty block (t of size 0)
    gives empty columns and leaves the running integrals as they are.

    The box is the grid's: grid.volume, |Omega|, enters M1, M2 and ckp_lhs,
    and the dimension len(grid.cells) the exponent of b_lN2.  Updates the running
    time-integrals (trapezoid rule at record times) record by record when
    an accumulator is supplied.  The components of eq must be positive, as
    run checks at t = 0.  Nothing here checks the result: on huge fields a
    functional may overflow to inf, and the caller that records the sample
    rejects any non-finite value.
    """
    t = np.asarray(t, dtype=float)
    if isinstance(states, SpeciesFields):
        states = states.stack
    u = states.reshape((t.size, 3) + grid.cells)
    if isinstance(eq, EquilibriumState):
        eqs = [eq]
    else:
        eqs = list(eq)
        if len(eqs) != t.size:
            raise InvalidArgument(f"{len(eqs)} equilibrium references for {t.size} records")
    if not t.size:
        return {name: np.empty(0) for name in CSV_COLUMNS}
    # the references of each record, a (B or 1, 2, 3) array: (1, 1, 1) for
    # E and (a_inf, b_inf, c_inf) for E_rel and the L1 distances; one
    # reference for the block is its broadcast case
    refs = np.array([((1.0, 1.0, 1.0), (e.a_inf, e.b_inf, e.c_inf)) for e in eqs])
    # one pass over the block per ingredient, read back as one row of
    # Python floats per record: the conserved masses, the integrals of the
    # two entropy densities and of the integrands a*a + a*c and b*b + b*c
    # of the running integrals, and the L1 distances and Lp norms
    masses = conserved_masses(u, grid).tolist()
    entropies = _kl_integrals(u, refs, grid).tolist()
    devs, defects, energies, productions = _sqrt_terms(u, params, grid)
    w = u[:, :2] * u[:, :2]
    w += u[:, :2] * u[:, 2:]
    integrands = integrate(w, grid).tolist()
    l1 = lp_norm(u - np.reshape(refs[:, 1], (-1, 3) + (1,) * len(grid.cells)), 1.0,
                 grid).tolist()
    l32 = lp_norm(u[:, :2], 1.5, grid).tolist()
    p_n2 = max(1.0, len(grid.cells) / 2.0)  # 3/2 in three dimensions
    b_ln2 = [b for _, b in l32] if p_n2 == 1.5 else lp_norm(u[:, 1], p_n2, grid).tolist()
    c_l3 = lp_norm(u[:, 2], 3.0, grid).tolist()

    # the scalar arithmetic, one record at a time on Python floats, into
    # one row of CSV_COLUMNS values per record
    diffusivities = params.diffusivities()[params.diffusing]
    rows = []
    for i, (time, ref) in enumerate(zip(t.ravel().tolist(),
                                        eqs if len(eqs) == t.size else eqs * t.size)):
        m1, m2 = masses[i]
        diss = 0.0
        for d, energy in zip(diffusivities, energies[i]):
            diss += 4.0 * d * energy
        diss += productions[i]
        if running is not None:
            running.update(time, *integrands[i])
            int_a2ac, int_b2bc = running.int_a2ac, running.int_b2bc
        else:
            int_a2ac = int_b2bc = 0.0
        l1a, l1b, l1c = l1[i]
        # the CKP bound kappa*|Omega|*(l1_a^2/(2 M1) + l1_b^2/(2 M2) + l1_c^2/(M1+M2))
        # (divided first only where a square overflows, so finite terms
        # stay finite past l1 = 1.34e154)
        ckp_lhs = CKP_PREFACTOR * grid.volume * (
            _scaled(l1a, l1a, 2.0 * ref.M1)
            + _scaled(l1b, l1b, 2.0 * ref.M2)
            + _scaled(l1c, l1c, ref.M1 + ref.M2)
        )
        a_l32, b_l32 = l32[i]
        dev_a, dev_b, dev_c = devs[i]
        e, e_rel = entropies[i]
        # a list, not a tuple: CPython 3.11 keeps every freed tuple of 20
        # items on a free list that never hands one out again, up to 2000
        # of them (about 400 KB)
        rows.append([
            time, e, e_rel, diss, m1, m2, l1a, l1b, l1c,
            dev_a * dev_a, dev_b * dev_b, dev_c * dev_c, defects[i], ckp_lhs,
            b_l32, a_l32, b_ln2[i], c_l3[i], int_a2ac, int_b2bc,
        ])
    if t.ndim == 0:
        return dict(zip(CSV_COLUMNS, rows[0]))
    return dict(zip(CSV_COLUMNS, np.array(rows).T))
