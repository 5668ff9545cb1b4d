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
one reference is the broadcast case of one per record.

sample evaluates each ingredient with one ufunc call per species pass.
A pass takes as many species as keep an array of their size under
WORK_BYTES, glibc's default 128 KiB mmap threshold (_species_passes):
all three on a 10-record block of 128 cells (30 KiB) and on verify's
blocks of 30 fields (90 KiB), and on the 6912 cells of the dc0_3d
preset a and b (108 KiB), then c.  On the block as given, the entropy
and the relative entropy are one log1p density call each per pass,
against the unit reference (with no division or product by 1) and
against (a_inf, b_inf, c_inf) of each record, summed over the species
axis by np.add.reduce as (a + b) + c, and the L1 distances integrate
the differences that E_rel starts from.  On the block by species, a
contiguous (3, B, *cells) copy where one pass takes every species, each
pass takes the Lp powers (the exponents 3/2, 3/2 and 3 of a, b and c in
one call), the square roots with their deviations and the Dirichlet
energies of the diffusing species, and the integrands a*a + a*c and
b*b + b*c of the running integrals; the reaction production is one call
on a, b and c, and M1 and M2 are model.conserved_masses of the block.
On a 2-vCPU x86 host with CPython 3.11 and numpy 2.4 (fastest of 40
interleaved rounds in one process, two runs), a 10-record block of 128
cells takes 227-246 us (db0) and 245-259 us (full) against 263-281 and
272-290 us with one density pass per species for the entropies; the
dc0_3d state takes 609-633 us against 559-574 us, its square roots and
deviations two passes where they were one over 162 KiB arrays.  The
tracemalloc peak of a call is 3.17 (db0) and 4.17 (full) block sizes
against 3.45 and 4.44, and 2.43 state sizes on the dc0_3d state against
2.75.

Each pass ends in one of grid's reductions (integrate, lp_norm,
dirichlet_energy, deviation_l2) of all its fields, which gives each
field the value it gives that field alone, so every column of a block is
bit-identical to evaluating its records, and their species, one at a
time, whatever species passes either takes.  What follows the passes
(D, ckp_lhs and the running integrals) is scalar arithmetic, one record
at a time on Python floats; the other columns are the values of the
passes, and the squared deviations one product.

ckp_violation and bound_violation, with dissipation_bound_rhs, are the
one judge of recorded samples.  The functionals take states already
checked to be finite and strictly positive, by the SpeciesFields
constructor or by positive_stacks on a block (run's records, verify's
random fields), and do not check them again.

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
#: the exponents of the Lp norms a_l32, b_l32 and c_l3, one row per species
_LP_EXPONENTS = np.array([[1.5], [1.5], [3.0]])
#: w/c where ab/c = 1e-2, at and below which ln(ab/c) is a sum of logarithms
_LOG_SUM_CUT = -0.99


def _kl_density(u, ref=None, x=None):
    """u*ln(u/ref) - u + ref, evaluated cancellation-free via log1p as
    ref*((1+x)*log1p(x) - x) with x = (u-ref)/ref, elementwise over u and
    ref broadcast together, updating its work arrays in place.  ref None
    is the unit reference of the entropy, for which the division and the
    product by ref, both exact, are left out.  x, where given, is the
    difference u - ref already formed, a work array the density takes
    over.

    Where u is below about 1e-16 of ref, x rounds to -1, where
    (1+x)*log1p(x) would be 0*(-inf) = NaN; the density there is ref
    within u*ln(ref/u) < 4e-15*ref.  Taking log1p of max(x, _ABOVE_MINUS_ONE)
    gives exactly those cells ref, with no division by zero, and leaves
    every other x, each at least _ABOVE_MINUS_ONE, and an overflowed u
    (x = inf, a NaN density) as they are."""
    if x is None:
        x = u - (1.0 if ref is None else ref)
    if ref is not None:
        x /= ref
    out = np.maximum(x, _ABOVE_MINUS_ONE)
    np.log1p(out, out=out)
    out *= 1.0 + x
    out -= x
    if ref is not None:
        out *= ref
    return out


#: glibc's default mmap threshold: malloc serves an array under it from
#: its heap, whose pages stay resident, and maps and unmaps a larger one
#: on every call
WORK_BYTES = 128 * 1024


def _species_passes(u) -> list[slice]:
    """The passes of sample over the species of the (B, 3, *cells) block
    u, in order, as slices of its species axis: each takes as many species
    as keep an array of their size under WORK_BYTES, and at least one.  A
    10-record block of 128 cells takes all three (30 KiB), as do verify's
    30 fields on 128 cells (90 KiB); the 6912 cells of the dc0_3d preset
    take a and b (108 KiB), then c.

    A work array of WORK_BYTES or more is mapped and unmapped on every
    call, or taken from the top of the heap, which is trimmed and faulted
    in again: fewer, larger passes then cost more time and peak memory
    than they save in calls.  A list, not a tuple: a tuple built from a
    generator is resized on creation, and CPython 3.11 keeps each such
    tuple on a free list when it is freed, one more per call."""
    k = min(3, max(1, (WORK_BYTES - 1) // (u.nbytes // 3)))
    return [slice(j, min(j + k, 3)) for j in range(0, 3, k)]


def _joined(parts, axis: int = 0) -> np.ndarray:
    """The arrays of values of the species passes, one per pass in order,
    joined along their species axis."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _species_sum(parts) -> np.ndarray:
    """The sum (a + b) + c over the species of the (B, k, *cells) arrays
    parts of the species passes, in order, a (B, *cells) array:
    np.add.reduce over the species axis adds its rows in order, as
    adding one species at a time does."""
    parts = iter(parts)
    total = np.add.reduce(next(parts), axis=1)
    for part in parts:
        total += np.add.reduce(part, axis=1)
    return total


def _kl_integrals(u, refs, grid: Grid, passes):
    """The entropy E = int sum_u _kl_density(u, 1) and the relative entropy
    E_rel = int sum_u _kl_density(u, ref_u), summed over a, b and c, of
    each state of the (B, 3, *cells) block u, with refs the (B or 1, 3,
    1, ...) references of the records broadcast against the block; and
    the L1 distances int |u - ref_u|, from the differences u - ref_u that
    E_rel starts from: E and E_rel with one value per state, and a (B, 3)
    array of the rows (l1_a, l1_b, l1_c).

    Each density is one call per species pass, made when the density of
    the pass before it has been summed, and holds three arrays of the
    pass's size at once: three of 30 KiB on a 10-record block of 128 cells,
    where the density calls of E and E_rel take about 14 and 28 us on a
    2-vCPU x86 host with numpy 2.4, and on the dc0_3d preset's state three
    of 108 KiB for a and b, then three of 54 KiB for c.  E is integrated
    before E_rel is evaluated."""
    entropy = integrate(_species_sum(_kl_density(u[:, s]) for s in passes), grid)
    l1 = []

    def relative(s):
        x = u[:, s] - refs[:, s]
        l1.append(lp_norm(x, 1.0, grid))
        return _kl_density(u[:, s], refs[:, s], x)

    rel_entropy = integrate(_species_sum(relative(s) for s in passes), grid)
    return entropy, rel_entropy, _joined(l1, axis=1)


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


def _running_integrands(v, grid: Grid, passes) -> np.ndarray:
    """The (2, B) rows int a*a + a*c and int b*b + b*c, the integrands of
    RunningIntegrals, from the (3, B, *cells) block by species v: one call
    per species pass cut to a and b."""
    parts = []
    for s in passes:
        if s.start < 2:
            ab = v[s.start:min(s.stop, 2)]
            w = ab * ab
            w += ab * v[2:]
            parts.append(integrate(w, grid))
    return _joined(parts)


def _rows_in(rows: slice, s: slice) -> slice:
    """The species of rows, a slice of (a, b, c), that the species pass s
    takes, as a basic slice of the pass's own rows (a view, where a list
    of rows would copy them), empty where it takes none of them."""
    taken = [j - s.start for j in range(3)[rows] if s.start <= j < s.stop]
    return slice(taken[0], taken[-1] + 1, rows.step) if taken else slice(0, 0)


def _sqrt_terms(roots, params: ModelParams, grid: Grid, passes):
    """From the square roots of the block by species, one (k, B, *cells)
    array per species pass: the (3, B) rows of the deviation_l2 of
    sqrt(a), sqrt(b) and sqrt(c), the defect ||sqrt(ab) - sqrt(c)||^2 of
    each state, and the rows of the Dirichlet energies of sqrt(u) for the
    species with d_u > 0, the rows params.diffusing, whose sum weighted by
    4 d_u is the gradient part of the entropy dissipation

        D = 4 sum_u d_u int |grad sqrt(u)|^2 + int (ab - c) ln(ab/c)

    (the gradient term drops out in the degenerate modes d_b = 0 and
    d_c = 0).  The deviations and the energies are one call per species
    pass: on a 10-record block of 128 cells, one call each on the roots of
    all three species, a (3, 10, 128) array of 30 KiB (about 23 us for the
    deviations and 17 us for the energies of the two diffusing species of
    db0 on a 2-vCPU x86 host with numpy 2.4); on the dc0_3d preset's state,
    one on the 108 KiB roots of a and b and one on the 54 KiB root of c
    (the deviations; c has no energy there)."""
    devs = _joined([deviation_l2(root, grid) for root in roots])
    energies = []
    for s, root in zip(passes, roots):
        diffusing = root[_rows_in(params.diffusing, s)]
        if len(diffusing):
            energies.append(dirichlet_energy(diffusing, grid))
    sqrt_a, sqrt_b, sqrt_c = (row for root in roots for row in root)
    w = sqrt_a * sqrt_b
    w -= sqrt_c
    w *= w
    return devs, integrate(w, grid), _joined(energies)


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
    # the references (a_inf, b_inf, c_inf) of each record, a (B or 1, 3,
    # 1, ...) array: one reference for the block is its broadcast case
    refs = np.array([(e.a_inf, e.b_inf, e.c_inf) for e in eqs]).reshape(
        (-1, 3) + (1,) * len(grid.cells))
    passes = _species_passes(u)
    # each ingredient is one call per species pass.  The masses, the
    # entropies and the L1 distances take the block as given; the other
    # passes take it by species, v, a contiguous (3, B, *cells) copy where
    # one pass takes every species (so that a call on some species runs one
    # inner loop per species, not one per record), else a view.  v is
    # freed once the square roots are taken, before their deviations and
    # energies, so that it and the densities are never held at once.
    masses = conserved_masses(u, grid)
    entropy, rel_entropy, l1 = _kl_integrals(u, refs, grid, passes)
    v = np.swapaxes(u, 0, 1)
    if len(passes) == 1:
        v = v.copy()
    integrands = _running_integrands(v, grid, passes)
    # a_l32, b_l32 and c_l3, with the exponents 3/2, 3/2 and 3 in one call
    # per pass
    lp = _joined([lp_norm(v[s], _LP_EXPONENTS[s], grid) for s in passes])
    p_n2 = max(1.0, len(grid.cells) / 2.0)  # 3/2 in three dimensions
    b_ln2 = lp[1] if p_n2 == 1.5 else lp_norm(v[1], p_n2, grid)
    productions = integrate(reaction_production(*v), grid)
    roots = [np.sqrt(v[s]) for s in passes]
    del v
    devs, defects, energies = _sqrt_terms(roots, params, grid, passes)

    # the scalar arithmetic, one record at a time on Python floats: D,
    # ckp_lhs and the running integrals; the other columns are the values
    # of the passes as they are, and the squared deviations one product
    diffusivities = params.diffusivities()[params.diffusing]
    ckp_scale = CKP_PREFACTOR * grid.volume
    # the denominators 2 M1, 2 M2 and M1 + M2 of ckp_lhs, one row per reference
    scales = [(2.0 * e.M1, 2.0 * e.M2, e.M1 + e.M2) for e in eqs]
    scalars = []
    for time, (z1, z2, z3), energy, production, (l1a, l1b, l1c), (fa, fb) in zip(
            t.ravel().tolist(), scales if len(scales) == t.size else scales * t.size,
            energies.T.tolist(), productions.tolist(), l1.tolist(),
            integrands.T.tolist()):
        diss = 0.0
        for d, energy_u in zip(diffusivities, energy):
            diss += 4.0 * d * energy_u
        diss += production
        if running is not None:
            running.update(time, fa, fb)
            int_a2ac, int_b2bc = running.int_a2ac, running.int_b2bc
        else:
            int_a2ac = int_b2bc = 0.0
        # the CKP bound kappa*|Omega|*(l1_a^2/(2 M1) + l1_b^2/(2 M2) + l1_c^2/(M1+M2))
        # (divided first only where a square overflows, so finite terms
        # stay finite past l1 = 1.34e154)
        ckp_lhs = ckp_scale * (_scaled(l1a, l1a, z1) + _scaled(l1b, l1b, z2)
                               + _scaled(l1c, l1c, z3))
        scalars.append([diss, ckp_lhs, int_a2ac, int_b2bc])
    diss, ckp_lhs, int_a2ac, int_b2bc = np.array(scalars).T
    dev2 = devs * devs
    columns = [np.array(t, dtype=float).ravel(), entropy, rel_entropy, diss, masses[:, 0],
               masses[:, 1], l1[:, 0], l1[:, 1], l1[:, 2], dev2[0], dev2[1], dev2[2], defects,
               ckp_lhs, lp[1], lp[0], b_ln2, lp[2], int_a2ac, int_b2bc]
    if t.ndim == 0:
        return {name: float(column[0]) for name, column in zip(CSV_COLUMNS, columns)}
    return dict(zip(CSV_COLUMNS, columns))
