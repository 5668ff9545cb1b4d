"""Time integration by Strang splitting.

The state is one stacked (3, *cells) array of a, b and c.  One step
advances a half diffusion step, the exact pointwise reaction flow over the
full step, then a second half diffusion step.  The reaction substep
integrates dc/dt = (c - r1)(c - r2) in closed form with the local
invariants m1 = a + c and m2 = b + c held exactly, so positivity and
pointwise conservation are structural.  With G = (c - r1) exp(-sq dt) it
takes c to r1 + sq G / ((r2 - c) + G), whose denominator is at least
min(sq, r2 - c) > 0 for every positive state, so no branch guards it.

The diffusion half-steps apply the exact semigroup of the discrete Neumann
Laplacian.  On a box it factors over the axes,
exp(tau d L) = K_1 x ... x K_N with K = C^T diag(exp(-tau d lam)) C for the
cosine transform C and eigenvalues lam = grid.neumann_eigenvalues of one
axis, so it is applied one axis at a time: an axis of at most
KERNEL_MAX_CELLS cells by its dense heat kernel K, built once per
diffusivity and step length and applied as one matrix product, a longer
axis by np.fft's real FFT of its even extension, whose coefficients are
the type-II cosine coefficients times a phase.  On the last axis, where
nothing comes after it, moving rows that share one kernel (every preset
but uniform_ode) are multiplied as one 2-D product of all of them,
(moving * before, n) times K, by np.dot (np.matmul where the output rows
are strided): one BLAS matrix product, where a stack (moving, 1, n)
times (1, n, n) runs one matrix-vector product per row.  The kernels are summed from a table of cosines whose angles
are reduced exactly in integers, so no step needs a cosine transform
library, and numpy.fft is only imported when an axis is longer than
KERNEL_MAX_CELLS.
In exact arithmetic each factor is symmetric, nonnegative and doubly
stochastic, which makes positivity, mass conservation and entropy decay
structural, and leaves the pure O(dt^2) splitting error as the only
time-discretization error.  In floating point the kernels are exactly
symmetric, and nonnegative and doubly stochastic to rounding: entries
whose true value is below rounding can come out as about -8e-17, and row
sums are 1 to within about 1e-15; verify checks both, with the semigroup
property and the decay of cosine modes, on the kernels a StrangStepper
builds.  A species with zero diffusivity (d_b = 0 or d_c = 0) is skipped
by index, so diffusion leaves it bit-for-bit unchanged.  No step solves a
linear system.

StrangStepper.records never writes its input.  Each iterator allocates
one state and one work block (at most ten fields in all) and binds
every product and ufunc of the step to views of them once, so each step
only runs those calls, in place: no gather, scatter or reshape, and the
same operands and operation order as the allocating entry points
DiffusionSemigroup.apply and reaction_substep, which run the same calls
on new arrays.  A step is one product per axis (an FFT flow on a long
axis) and the 24 calls of the reaction: 25 calls on a 1-D grid.

Every array that those calls read or write starts on an ALIGN_BYTES
(64-byte) boundary, one cache line and one AVX-512 vector: the heat
kernels, the state and work block of a records iterator, and the arrays
that apply and reaction_substep allocate, each a view into a buffer 64
bytes longer (_aligned_empty).  numpy's own arrays start on glibc's
16-byte boundary, and one of 128 KiB or more, such as a 128-cell kernel,
is mmapped 16 bytes past a page boundary, so never on 64.  Placement
changes only speed: on a 2-vCPU AVX-512 x86 host with OpenBLAS
0.3.31 (medians of 40 interleaved rounds, twice), the stacked matmul of
full_1d's (3, 1, 128) state by its kernel, the product a step then ran,
took 4.5 us with the kernel on 64 bytes against 7.5 to 7.9 us at offsets
16, 32 and 48, and the 26 reaction calls a step then ran on dc0_3d's
6912-cell rows 67 to 68 us against 83 to 86 us at offsets 16 and 48.
The calls, their operands and their order are the same wherever the
arrays start, so every result is too.  On the same host the 2-D np.dot
of full_1d's rows takes 2.8 to 3.0 us against 4.2 to 4.3 us for that
stacked matmul (timeit minima), and the 24 reaction calls take 66.6 us
on dc0_3d's rows against 69.7 us for the 26 (medians of 40 interleaved
rounds in one process).
An axis longer than KERNEL_MAX_CELLS allocates its FFTs inside numpy.fft
at numpy's placement; no preset has such an axis, and it is left so.

run records in blocks (block_records), stepping and sampling under
np.errstate(all="ignore"): a step or a sample that overflows or divides
0 by 0 leaves a NaN, an inf or a non-positive value in its record, which
grid.positive_stacks or the finiteness check of the sample finds.  Its
arrays live as follows: the (B, 3, *cells) block of record states
for the whole run, reused by every block; the state and work block of
one records iterator, which fills every block of the run and is freed
before the last block is sampled (where a block holds one record, one
iterator per block, freed before that block is sampled); the work
arrays of one functionals.sample call, each at most about the size of
the block, about three at once; the columns of the Trajectory,
preallocated, one float64 per record each; and the final fields, a copy
of the last state.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import math
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import functionals
from .errors import InvalidArgument, InvalidState, NumericalBlowup
from .grid import Grid, SpeciesFields, neumann_eigenvalues, positive_stacks
from .model import ModelParams, conserved_masses, equilibrium_state

__all__ = [
    "SolverConfig",
    "Trajectory",
    "reaction_substep",
    "StrangStepper",
    "block_records",
    "run",
    "DiffusionSemigroup",
]

#: relative distance of t_end/dt from an integer still taken as a whole step count
STEP_ROUNDING = 1e-9

#: longest axis (in cells) that diffusion applies as a dense heat kernel;
#: longer axes use the real FFT of their even extension.  A kernel holds
#: 8 n^2 bytes per diffusivity and step length, and on a (3, n) stack it
#: stays faster than the FFT up to about 288 cells (measured on a 2-vCPU
#: x86 host with numpy 2.4), so this bound is conservative
KERNEL_MAX_CELLS = 192

#: bytes of record states that run steps and samples as one block; a
#: larger state, as on the dc0_3d preset, is a block of one.  Sampling a
#: block holds about three block-sized work arrays at once, and they come
#: from the heap (glibc raises its mmap threshold past them once a larger
#: array has been freed), whose pages stay resident.  Set by measurement
#: on a 2-vCPU x86 host with CPython 3.11 and numpy 2.4, with one records
#: iterator filling every block of a run: over 4 runs of the bench (28 s
#: each), an operation of its dense_record workload (128 cells, each of
#: 5000 steps recorded) took a median 0.72, 0.57 and 0.52 s with blocks
#: of 16, 32 and 64 KiB, and peak_rss_mb read 73.73, 73.77 and 73.79 MB
#: there and 62.33, 62.50 and 62.50 MB on full_1d.  64 KiB is faster but
#: uses no less memory on either workload, so the block stays at 32 KiB
BLOCK_BYTES = 32 * 1024

#: boundary in bytes on which every array that a step reads or writes
#: starts (heat kernels, state and work block); numpy only guarantees 16
ALIGN_BYTES = 64


@dataclass(frozen=True)
class SolverConfig:
    """Time step, end time and record spacing (in steps) of one run.

    t_end must be a whole number of record intervals record_every*dt, to
    rounding, so the last recorded sample is the final state.
    """

    dt: float
    t_end: float
    record_every: int

    def __post_init__(self):
        if not math.isfinite(self.t_end):
            raise InvalidArgument(f"t_end must be finite, got {self.t_end}")
        if not (0.0 < self.dt < self.t_end):
            raise InvalidArgument("need 0 < dt < t_end")
        if self.record_every < 1:
            raise InvalidArgument("record_every must be a positive integer")
        steps = self.t_end / self.dt
        whole = math.isfinite(steps) and abs(steps - round(steps)) <= STEP_ROUNDING * steps
        if not (whole and round(steps) % self.record_every == 0):
            raise InvalidArgument(
                f"t_end={self.t_end!r} is not a whole number of record intervals "
                f"record_every*dt = {self.record_every * self.dt!r}"
            )

    @property
    def n_steps(self) -> int:
        """Number of time steps from 0 to t_end."""
        return round(self.t_end / self.dt)

    def record_times(self) -> list[float]:
        """The times of the recorded samples, from 0 to t_end."""
        return [step * self.dt for step in range(0, self.n_steps + 1, self.record_every)]


@dataclass
class Trajectory:
    """The recorded samples of one run, one float64 array per CSV column
    (keyed by functionals.CSV_COLUMNS, one entry per record), its final
    fields, the seconds it spent stepping and recording samples, the
    number of functionals.sample calls that recorded them, and the number
    of calls one full Strang step ran, as its records iterator bound
    them."""

    columns: dict
    final_fields: SpeciesFields | None = None
    step_s: float = 0.0
    sample_s: float = 0.0
    sample_calls: int = 0
    step_calls: int = 0


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of shape whose data
    starts on an ALIGN_BYTES boundary: a view into a buffer ALIGN_BYTES
    longer, which it keeps alive."""
    size = math.prod(shape)
    buffer = np.empty(size + ALIGN_BYTES // 8)
    start = -buffer.ctypes.data % ALIGN_BYTES // 8
    return buffer[start:start + size].reshape(shape)


def _cosines(n: int) -> np.ndarray:
    """cos(k m pi / n) for m = 0..n (rows) and k = 0..n-1 (columns).

    Each is read from a table of cos(j pi / n), j = 0..2n-1, at
    j = k m mod 2n, and each angle of the table is first reduced to
    [0, pi/4] in integers: cos(x) = cos(2 pi - x) = -cos(pi - x) =
    sin(pi/2 - x).  Only the reduced angle carries the rounding of pi, so
    every entry is within about one unit in the last place, where
    np.cos(np.pi * j / n) is off by up to 1e-15 at j near 2n.
    """
    j = np.arange(2 * n)
    j = np.minimum(j, 2 * n - j)  # now 0 <= j <= n
    sign = np.where(2 * j > n, -1.0, 1.0)
    j = np.minimum(j, n - j)  # now 0 <= j <= n/2
    table = sign * np.where(4 * j <= n, np.cos(np.pi * j / n),
                            np.sin(np.pi * (n - 2 * j) / (2 * n)))
    return table[np.multiply.outer(np.arange(n + 1), np.arange(n)) % (2 * n)]


def heat_kernels(n: int, h: float, rates) -> np.ndarray:
    """Dense heat kernels exp(r * L) of one Neumann axis, one n x n matrix
    per rate r (each r <= 0), stacked as (len(rates), n, n).

    With C the orthonormal type-II cosine transform and e_k = exp(r lam_k),
    the kernel C^T diag(e) C has entry (i, j) = g(i - j) + g(i + j + 1),
    where g(m) = (e_0/2 + sum_{k>=1} e_k cos(k pi m / n)) / n.  g(m) is
    summed directly for m = 0..n, by numpy's pairwise summation over the
    cosines of _cosines, so the entries are accurate to a few units of
    rounding: rows sum to 1 within about 1e-15, and entries whose true
    value is below rounding stay above -1e-16.  The kernel is exactly
    symmetric because g is indexed by |i - j|.  The stack is C-contiguous
    and starts on an ALIGN_BYTES boundary.
    """
    e = np.exp(np.multiply.outer(np.asarray(rates, dtype=float), neumann_eigenvalues(n, h)))
    e[:, 0] *= 0.5
    g = np.sum(e[:, None, :] * _cosines(n), axis=-1) / n  # m = 0..n
    # g(|m|) at m + n - 1 for m = 1-n..2n-1, with g(2n - m) = g(m): row i
    # of the kernel is the window of n entries at n - 1 - i (m = j - i)
    # plus the one at n + i (m = i + j + 1), so it is assembled from two
    # views and allocates nothing else of its size
    g = np.concatenate((g[:, n - 1:0:-1], g, g[:, n - 1:0:-1]), axis=-1)
    windows = sliding_window_view(g, n, axis=-1)
    # into a C-contiguous stack for every stack length: a product's
    # summation order follows the layout, so a kernel is laid out alike in
    # a stack of one and of several; whether a stacked entry's flow then
    # equals its stand-alone flow bit for bit depends on the BLAS path
    # (DiffusionSemigroup)
    kernels = _aligned_empty((len(g), n, n))
    return np.add(windows[:, n - 1::-1], windows[:, n:], out=kernels)


def _row_slice(rows: list) -> slice:
    """The ascending, evenly spaced row indices rows as a basic slice, so
    that a view of those rows never copies.  Every set of rows of a
    (3, *cells) stack is evenly spaced."""
    if not rows:
        return slice(0, 0)
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if rows != list(range(rows[0], rows[-1] + 1, step)):
        raise InvalidArgument(f"diffusing entries {rows} are not evenly spaced")
    return slice(rows[0], rows[-1] + 1, step)


def _cosine_flow(x, factor, y):
    """Write the flow of x along its axis 2, of n cells, into y.  The real
    FFT of the even extension (x, x reversed) of length 2n holds the
    type-II cosine coefficients of x, each times a phase; factor damps
    modes 0..n-1 and zeroes mode n, whose coefficient is 0, and the first
    n entries of the inverse FFT are the flow."""
    coeff = np.fft.rfft(np.concatenate((x, x[:, :, ::-1]), axis=2), axis=2)
    coeff *= factor
    np.copyto(y, np.fft.irfft(coeff, axis=2)[:, :, :x.shape[2]])


class DiffusionSemigroup:
    """Exact heat flow exp(tau * d * L) of the discrete Neumann Laplacian.

    Acts on the last len(grid.cells) axes of its input.  d holds one
    diffusivity per entry of the leading axis; a scalar d acts on a plain
    field, a stack of one.  Entries with d * tau == 0 are skipped and come
    back bit-for-bit unchanged.  The others, the moving entries, are one
    basic slice of the leading axis, so they must be evenly spaced, as
    every set of rows of a (3, *cells) stack is.

    The flow factors over the axes and is applied one axis at a time: by a
    dense heat kernel on an axis of at most KERNEL_MAX_CELLS cells, by the
    real FFT of the even extension along a longer axis (_cosine_flow),
    whose kernel would be slower and hold n^2 doubles.  The kernels are
    built here, once; entries that share one rate share them.  On the
    last axis, with nothing after it, the kernels multiply the moving
    rows from the right.  A shared kernel multiplies all of them,
    (entries * before, n), as one 2-D np.dot where the output is
    C-contiguous, and by np.matmul, broadcast over the entries, where it
    is strided (rows 0 and 2 of an N-D state).  Entries with their own
    rates are multiplied as a stack, one product per entry.

    So a stacked entry's flow equals its stand-alone flow bit for bit
    only where BLAS sums each of its rows alike in both products.  With
    their own rates, each is the same product of the same rows.  With a
    shared rate on a 1-D grid, an entry alone is a matrix-vector product
    and its row of the 2-D product a matrix product, which differ by a
    few units of rounding; on an N-D grid both are matrix products, equal
    bit for bit on the last axes of 4, 12 and 24 cells the tests check,
    but not on every length (on 33 cells they differ).  calls binds the
    chain of axes to the arrays it reads and writes; apply runs it on a
    new array.  The kernels start on ALIGN_BYTES boundaries, as
    heat_kernels returns them.
    """

    def __init__(self, grid: Grid, d, tau: float):
        rates = -tau * np.atleast_1d(d)
        self.shape = rates.shape + grid.cells
        self.moving = _row_slice(np.flatnonzero(rates != 0.0).tolist())
        rates = rates[self.moving]
        #: the shape of the moving entries and of one axis temporary
        self.work_shape = rates.shape + grid.cells
        # moving entries with one common rate (every preset but uniform_ode)
        # share one kernel instead of holding a copy each
        shared = len(set(rates.tolist())) == 1
        kernel_rates = rates[:1] if shared else rates
        #: per axis: the (entries, before, along, after) shape it acts on,
        #: and its kernels, which multiply a kernel axis from the left, or,
        #: where nothing comes after it, its (entries, before, along) rows
        #: from the right, a shared kernel as one (n, n) matrix; a long
        #: axis has its cosine-mode factors instead, shaped to broadcast
        #: along it
        self.axes = []
        for ax, (n, h) in enumerate(zip(grid.cells, grid.spacings)):
            shape = (rates.size, math.prod(grid.cells[:ax]), n, math.prod(grid.cells[ax + 1:]))
            if n > KERNEL_MAX_CELLS:
                factor = np.exp(np.multiply.outer(rates, neumann_eigenvalues(n, h)))
                factor = np.pad(factor, ((0, 0), (0, 1)))  # mode n of the FFT
                self.axes.append((shape, None, factor[:, None, :, None]))
            elif shape[3] == 1:
                kernels = heat_kernels(n, h, kernel_rates)
                self.axes.append((shape[:3], kernels[0] if shared else kernels, None))
            else:
                self.axes.append((shape, heat_kernels(n, h, kernel_rates)[:, None], None))

    def calls(self, x: np.ndarray, y: np.ndarray, work) -> list:
        """Calls that write the flow of the moving entries x into y, with
        every view they use bound once.

        x and y are arrays of self.work_shape, each the moving entries of a
        C-contiguous stack of self.shape or a C-contiguous array of its
        own; they may be one array (x is y).  work[0] and work[1] are
        C-contiguous arrays of self.work_shape: each axis but the last
        writes one and the next axis reads it.  Every call is a partial
        that takes its output as its last argument, as the calls of
        _reaction do.
        """
        if not self.work_shape[0]:
            return []
        outs = [work[i % 2] for i in range(len(self.axes) - 1)]
        # a product cannot write its own operand: one axis in place goes
        # through a temporary, copied back at the end
        outs.append(work[0] if x is y and len(self.axes) == 1 else y)
        calls = []
        for (shape, kernel, factor), out in zip(self.axes, outs):
            xv, yv = x.reshape(shape, copy=False), out.reshape(shape, copy=False)
            if kernel is None:
                calls.append(partial(_cosine_flow, xv, factor, yv))
            elif len(shape) == 4:
                calls.append(partial(np.matmul, kernel, xv, yv))
            elif kernel.ndim == 3:  # each entry's rows times its own kernel
                calls.append(partial(np.matmul, xv, kernel, yv))
            elif yv.flags.c_contiguous:  # all rows times the shared kernel
                rows = (-1, shape[2])
                calls.append(partial(np.dot, xv.reshape(rows, copy=False), kernel,
                                     yv.reshape(rows, copy=False)))
            else:
                calls.append(partial(np.matmul, xv, kernel, yv))
            x = out
        if x is not y:
            calls.append(partial(np.copyto, y, x))
        return calls

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A new array holding the flow of every entry of u; u is not modified.

        u is copied into the new array, which starts on an ALIGN_BYTES
        boundary, and flows there in place, as the state of
        StrangStepper.records does, so the result does not depend on where
        u starts."""
        out = _aligned_empty(self.shape)
        out[...] = np.reshape(u, self.shape)
        moving = out[self.moving]
        for call in self.calls(moving, moving, _aligned_empty((2,) + self.work_shape)):
            call()
        return out.reshape(np.shape(u))


def _reaction(src, u: np.ndarray, work: np.ndarray, dt: float) -> list:
    """The reaction substep over dt as calls that write the flow of the
    stack src, whose rows 0, 1 and 2 are read as a, b and c, into the
    (3, *cells) stack u, with every view they use bound once; work holds
    at least four scratch fields of u's cells.  A row of src is either the
    same row of u, updated in place, or a field that neither u nor the
    scratch overlaps.

    The calls evaluate the roots r1 <= r2 of c**2 - (1 + m1 + m2) c + m1 m2
    as sq = sqrt((1 + m1 - m2)**2 + 4 m2), r2 = (1 + m1 + m2 + sq)/2 and
    r1 = m1 m2 / r2, then the closed form in reaction_substep, operation
    for operation, so they round as those expressions do.  Both terms of
    the discriminant are nonnegative, and 1 + m1 is formed once, for it
    and for 1 + m1 + m2: 24 calls in all.  Rows 0 and 1 of u hold m1 and
    m2 until they become a and b; row 2 holds exp(-sq dt) once c is read
    for the last time, then c_new.  Each call takes its output as its
    last argument, by position, which a partial passes on faster than an
    out= keyword, and its constants as 0-d arrays, which a ufunc takes
    faster than Python floats.
    """
    a, b, c = src[0], src[1], src[2]
    m1, m2, c_new = u[0], u[1], u[2]
    s, sq, r1, g = work[:4]
    one, four, half, minus_dt = (np.array(x) for x in (1.0, 4.0, 0.5, -dt))
    return [
        partial(np.add, a, c, m1),  # m1 = a + c
        partial(np.add, b, c, m2),  # m2 = b + c
        partial(np.add, one, m1, s),  # s = 1 + m1
        partial(np.subtract, s, m2, sq),
        partial(np.square, sq, sq),
        partial(np.multiply, four, m2, r1),
        partial(np.add, sq, r1, sq),
        partial(np.sqrt, sq, sq),  # sq = r2 - r1
        partial(np.add, s, m2, s),  # s = 1 + m1 + m2
        partial(np.add, s, sq, s),
        partial(np.multiply, half, s, s),  # s holds r2 = (s + sq) / 2
        partial(np.multiply, m1, m2, r1),
        partial(np.divide, r1, s, r1),  # r1 = m1 m2 / r2
        partial(np.subtract, c, r1, g),
        partial(np.subtract, s, c, s),  # s holds r2 - c
        partial(np.multiply, sq, minus_dt, c_new),
        partial(np.exp, c_new, c_new),
        partial(np.multiply, g, c_new, g),  # G = (c - r1) exp(-sq dt)
        partial(np.add, s, g, s),
        partial(np.multiply, sq, g, g),
        partial(np.divide, g, s, g),
        partial(np.add, r1, g, c_new),  # c_new = r1 + sq G / ((r2 - c) + G)
        partial(np.subtract, m1, c_new, m1),  # a = m1 - c_new
        partial(np.subtract, m2, c_new, m2),  # b = m2 - c_new
    ]


def reaction_substep(fields: SpeciesFields, dt: float) -> SpeciesFields:
    """Exact pointwise integration of the reaction over dt.

    Per cell, with m1 = a + c and m2 = b + c frozen, c obeys
    dc/dt = (c - r1)(c - r2) with r2 - r1 = sq; in u = (c - r1)/(c - r2)
    the flow is linear, u(dt) = u0 * exp(-sq dt).  Solved for c, with
    G = (c - r1) exp(-sq dt),

        c(dt) = r1 + sq G / ((r2 - c) + G).

    c < min(m1, m2) < r2, so the denominator is at least r2 - c > 0 when
    c >= r1, and at least r2 - c + (c - r1) = sq > 0 when c < r1 (then
    c - r1 <= G < 0).  c(dt) stays between c and r1 < min(m1, m2), so
    a = m1 - c(dt) and b = m2 - c(dt) stay positive.

    Runs the in-place reaction calls of a StrangStepper step on a copy of
    the stack and scratch fields, each starting on an ALIGN_BYTES boundary
    as in the step.
    """
    u = _aligned_empty(fields.stack.shape)
    u[...] = fields.stack
    for call in _reaction(u, u, _aligned_empty((4,) + u.shape[1:]), dt):
        call()
    return SpeciesFields.from_stack(u)


class StrangStepper:
    """Strang steps of a stacked (3, *cells) array of a, b and c, with the
    half- and full-step semigroups built once.

    Consecutive Strang steps share a diffusion half-step, so the k steps
    from one record to the next are composed as D(h/2) [R D(h)]^(k-1) R
    D(h/2), identical to the step-by-step composition because the
    discrete semigroup is exact.
    """

    def __init__(self, params: ModelParams, dt: float, grid: Grid):
        self.dt = dt
        self.half = DiffusionSemigroup(grid, params.diffusivities(), 0.5 * dt)
        self.full = DiffusionSemigroup(grid, params.diffusivities(), dt)
        #: the number of calls of one full step, as the last records
        #: iterator bound them (0 before any is bound)
        self.step_calls = 0

    def records(self, u: np.ndarray, n_steps: int):
        """Iterator over the states n_steps, 2 n_steps, 3 n_steps, ...
        Strang steps after the stack u, without end; u is never written.

        Each state is yielded in the one state array the iterator owns,
        which the next iteration overwrites: copy what is to be kept.  The
        first iteration raises ValueError, before anything is written,
        unless u has the shape (3, *grid.cells).  It copies u into the
        state, allocates one work block, both on ALIGN_BYTES boundaries
        wherever u starts, and binds every call of the step to views of
        the two once, so each iteration only runs those calls, in place
        (an axis longer than KERNEL_MAX_CELLS still allocates its FFTs).
        It sets step_calls to the length of one full step's call list.

        The work block holds the two axis temporaries, which the reaction
        also uses as its scratch: at most six fields, at least four.  On
        one axis, where a product cannot write its own operand, it holds
        four scratch fields and then the diffused moving rows, one
        contiguous block of as many fields as rows move: the diffusion
        before each reaction writes that block, and the reaction reads the
        moving species from it and the others from the state, and writes
        the state, so only the last half step of each record is copied
        back.  The state and the work block live as long as the iterator,
        and the next iteration continues from the state last yielded, so
        one iterator gives the same states as a new one started from each.
        """
        if np.shape(u) != self.full.shape:
            raise ValueError(f"a state has shape {self.full.shape}, got {np.shape(u)}")
        state = _aligned_empty(self.full.shape)
        state[...] = u
        moving = self.full.work_shape[0]
        one_axis = len(self.full.axes) == 1
        work = _aligned_empty((4 + moving if one_axis else max(2 * moving, 4),)
                              + state.shape[1:])
        temps = work[:moving], work[moving:2 * moving]

        def diffuse_react(semigroup):
            rows = state[semigroup.moving]
            if not one_axis:
                return (semigroup.calls(rows, rows, temps)
                        + _reaction(state, state, work, self.dt))
            diffused = work[4:]
            species = range(3)[semigroup.moving]
            src = [diffused[species.index(i)] if i in species else state[i] for i in range(3)]
            return (semigroup.calls(rows, diffused, temps)
                    + _reaction(src, state, work, self.dt))

        first = diffuse_react(self.half)
        step = diffuse_react(self.full)
        rows = state[self.half.moving]
        half = self.half.calls(rows, rows, temps)
        self.step_calls = len(step)
        while True:
            for call in first:
                call()
            for _ in range(n_steps - 1):
                for call in step:
                    call()
            for call in half:
                call()
            yield state


def _leading_true(flags: np.ndarray) -> int:
    """The number of True entries of the 1-d flags before its first False."""
    return int(np.argmin(np.append(flags, False)))


def block_records(grid: Grid) -> int:
    """Records per block on grid: as many (3, *cells) states as fit in
    BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // (3 * 8 * math.prod(grid.cells)))


def run(initial: SpeciesFields, params: ModelParams, grid: Grid,
        cfg: SolverConfig) -> Trajectory:
    """Advance from t = 0 to t_end, recording functionals every record_every steps.

    grid carries the box, whose volume the conserved masses and the
    recorded functionals use.  The equilibrium reference is fixed from the
    initial conserved masses.

    The records are taken in blocks of block_records(grid) states, the
    first of which starts with the initial state.  One
    StrangStepper.records iterator, its calls bound once, fills the
    (B, 3, *cells) block array that every block reuses, each block
    continuing from the last state of the one before; one
    grid.positive_stacks call checks the block's states, and one
    functionals.sample call evaluates those before the first that fails
    into the columns of the trajectory.  The iterator's state and work
    block are freed before the last block is sampled; where a block holds
    one record (a large state), each block has its own iterator, freed
    before the block is sampled.  The final fields are a copy of the last
    state.

    numpy's floating-point errors are ignored: a reference, state or
    sample that leaves the positive orthant (a and b rounded to 0 at huge
    masses) or the range of doubles holds a NaN, an inf or a non-positive
    value.  Raises NumericalBlowup (with the offending time) if the
    reference's masses or components are not finite and positive (t = 0),
    or at the earliest record whose state fails positive_stacks (naming
    the species) or, before it, whose sample has a non-finite value.
    """
    stepper = StrangStepper(params, cfg.dt, grid)
    running = functionals.RunningIntegrals()
    times = cfg.record_times()
    traj = Trajectory({name: np.empty(len(times)) for name in functionals.CSV_COLUMNS})
    block = np.empty((min(block_records(grid), len(times)),) + initial.stack.shape)
    t = 0.0
    try:
        with np.errstate(all="ignore"):
            eq = equilibrium_state(*conserved_masses(initial, grid))
            if not all(math.isfinite(r) and r > 0.0 for r in (eq.a_inf, eq.b_inf, eq.c_inf)):
                raise NumericalBlowup(f"equilibrium ({eq.a_inf}, {eq.b_inf}, {eq.c_inf}) is "
                                      f"not finite and positive at t = {t}", t=t)
            block[0] = initial.stack
            done, filled = 0, 1  # records sampled; rows of the block already filled
            states = None
            while done < len(times):
                rows = block[:min(len(block), len(times) - done)]
                started = time.perf_counter()
                if states is None:
                    # the last state sampled is the last row of the previous,
                    # full block, or the initial state in row 0
                    states = stepper.records(block[filled - 1], cfg.record_every)
                for i in range(filled, len(rows)):
                    rows[i] = next(states)
                if len(block) == 1 or done + len(rows) == len(times):
                    states = None  # its state and work block, before the block is sampled
                traj.step_s += time.perf_counter() - started
                started = time.perf_counter()
                good = _leading_true(positive_stacks(rows, 1))
                if good:
                    traj.sample_calls += 1
                    s = functionals.sample(rows[:good], times[done:done + good], eq, params,
                                           grid, running)
                    finite = _leading_true(np.isfinite(list(s.values())).all(axis=0))
                    if finite < good:
                        t = times[done + finite]
                        raise NumericalBlowup(f"non-finite functional at t = {t}", t=t)
                    for name, column in traj.columns.items():
                        column[done:done + good] = s[name]
                traj.sample_s += time.perf_counter() - started
                if good < len(rows):
                    t = times[done + good]
                    SpeciesFields.from_stack(rows[good])  # raises, naming the species
                done, filled = done + len(rows), 0
    except InvalidState as exc:
        raise NumericalBlowup(f"{exc} at t = {t}", t=t) from exc
    traj.final_fields = SpeciesFields.from_stack(rows[-1].copy())
    traj.step_calls = stepper.step_calls
    return traj

