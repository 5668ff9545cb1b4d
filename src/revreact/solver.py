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
diffusivity and step length and applied with one matmul, a longer axis by
the type-II cosine transform along that axis.
In exact arithmetic each factor is symmetric, nonnegative and doubly
stochastic, which makes positivity, mass conservation and entropy decay
structural, and leaves the pure O(dt^2) splitting error as the only
time-discretization error.  In floating point the kernels are exactly
symmetric, and nonnegative and doubly stochastic to rounding: entries
whose true value is below rounding can come out as about -6e-17, and row
sums are 1 to within a few 1e-16; verify checks both, with the semigroup
property and the decay of cosine modes, on the kernels a StrangStepper
builds.  A species with zero diffusivity (d_b = 0 or d_c = 0) is skipped
by index, so diffusion leaves it bit-for-bit unchanged.  No step solves a
linear system.

StrangStepper.advance returns a new array and never writes its input.  Per
call it allocates that state and one work block (at most nine fields in
all) and binds every matmul and ufunc of the step to views of them once,
so each step only runs those calls, in place: no copy, gather, scatter or
reshape, and the same operands and operation order as the allocating
entry points DiffusionSemigroup.apply and reaction_substep, which run the
same calls on new arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import math
import time

import numpy as np
import scipy.fft

from . import functionals
from .errors import InvalidArgument, InvalidField, InvalidMass, NotPositive, NumericalBlowup
from .grid import Grid, SpeciesFields, neumann_eigenvalues
from .model import ModelParams, conserved_masses, equilibrium_state

__all__ = [
    "SolverConfig",
    "Trajectory",
    "reaction_substep",
    "StrangStepper",
    "run",
    "DiffusionSemigroup",
]

#: relative distance of t_end/dt from an integer still taken as a whole step count
STEP_ROUNDING = 1e-9

#: longest axis (in cells) that diffusion applies as a dense heat kernel;
#: longer axes use the cosine transform.  Set at the measured crossover of
#: the two on a (3, n) stack; a kernel also holds 8 n^2 bytes per
#: diffusivity and step length
KERNEL_MAX_CELLS = 192


@dataclass(frozen=True)
class SolverConfig:
    """Time step, end time and record spacing (in steps) of one run.

    t_end must be a whole number of record intervals record_every*dt, to
    rounding, so the last recorded sample is the final state.
    """

    dt: float
    t_end: float
    record_every: int = 100

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


@dataclass
class Trajectory:
    """Recorded samples, each a dict keyed by functionals.CSV_COLUMNS, plus
    the final fields of one run and the seconds it spent stepping and
    recording samples."""

    samples: list = field(default_factory=list)
    final_fields: SpeciesFields | None = None
    step_s: float = 0.0
    sample_s: float = 0.0


def heat_kernels(n: int, h: float, rates) -> np.ndarray:
    """Dense heat kernels exp(r * L) of one Neumann axis, one n x n matrix
    per rate r (each r <= 0), stacked as (len(rates), n, n).

    With C the orthonormal type-II cosine transform and e_k = exp(r lam_k),
    the kernel C^T diag(e) C has entry (i, j) = g(i - j) + g(i + j + 1),
    where g(m) = (e_0/2 + sum_{k>=1} e_k cos(k pi m / n)) / n.  g is one
    type-I cosine transform of e, accurate to rounding, and the kernel is
    exactly symmetric because g is indexed by |i - j|.
    """
    e = np.exp(np.multiply.outer(np.asarray(rates, dtype=float), neumann_eigenvalues(n, h)))
    g = scipy.fft.dct(np.pad(e, ((0, 0), (0, 1))), type=1, axis=-1) / (2 * n)  # m = 0..n
    g = np.concatenate((g, g[:, -2:0:-1]), axis=-1)  # g(2n - m) = g(m), m = 0..2n-1
    i = np.arange(n)
    # C order for every stack length: matmul's summation order follows the
    # layout, and a stacked entry must equal its stand-alone flow bit for bit
    return np.ascontiguousarray(g[:, abs(i[:, None] - i)] + g[:, i[:, None] + i + 1])


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


def _transform(x, y, factor):
    """The call that writes the flow of x along its axis 2 into y: the
    type-II cosine transform along that axis, each mode damped by factor."""
    def call():
        coeff = scipy.fft.dct(x, type=2, norm="ortho", axis=2)
        coeff *= factor
        np.copyto(y, scipy.fft.idct(coeff, type=2, norm="ortho", axis=2))
    return call


class DiffusionSemigroup:
    """Exact heat flow exp(tau * d * L) of the discrete Neumann Laplacian.

    Acts on the last len(grid.cells) axes of its input.  d holds one
    diffusivity per entry of the leading axis; a scalar d acts on a plain
    field, a stack of one.  Entries with d * tau == 0 are skipped and come
    back bit-for-bit unchanged.  The others, the moving entries, are one
    basic slice of the leading axis, so they must be evenly spaced, as
    every set of rows of a (3, *cells) stack is.

    The flow factors over the axes and is applied one axis at a time: by a
    dense heat kernel (one matmul) on an axis of at most KERNEL_MAX_CELLS
    cells, by the type-II cosine transform along a longer axis, whose
    kernel would be slower and hold n^2 doubles.  The kernels are built
    here, once; entries that share one rate share them.  calls binds that
    chain of axes to the arrays it reads and writes; apply runs it on a
    new array.
    """

    def __init__(self, grid: Grid, d, tau: float):
        rates = -tau * np.atleast_1d(d)
        self.shape = rates.shape + grid.cells
        self.moving = _row_slice(np.flatnonzero(rates != 0.0).tolist())
        rates = rates[self.moving]
        #: the shape of one axis temporary: the moving entries
        self.work_shape = rates.shape + grid.cells
        # moving entries with one common rate (every preset) share one
        # kernel, broadcast over the stack, instead of holding a copy each
        kernel_rates = rates[:1] if np.all(rates == rates[:1]) else rates
        #: per axis: the (entries, before, along, after) shape it acts on,
        #: and its kernels, which multiply a kernel axis from the left, or,
        #: where nothing comes after it, its (entries, before, along) rows
        #: from the right; a long axis has its cosine-mode factors instead,
        #: shaped to broadcast along it
        self.axes = []
        for ax, (n, h) in enumerate(zip(grid.cells, grid.spacings)):
            shape = (rates.size, math.prod(grid.cells[:ax]), n, math.prod(grid.cells[ax + 1:]))
            if n > KERNEL_MAX_CELLS:
                factor = np.exp(np.multiply.outer(rates, neumann_eigenvalues(n, h)))
                self.axes.append((shape, None, factor[:, None, :, None]))
            elif shape[3] == 1:
                self.axes.append((shape[:3], heat_kernels(n, h, kernel_rates), None))
            else:
                self.axes.append((shape, heat_kernels(n, h, kernel_rates)[:, None], None))

    def calls(self, src: np.ndarray, dst: np.ndarray, work) -> list:
        """Calls that write the flow of the moving entries of src into those
        of dst, with every view they use bound once.

        src and dst are C-contiguous arrays of self.shape, possibly one
        array; the other entries of dst are not touched.  work[0] and
        work[1] are C-contiguous arrays of self.work_shape: each axis but
        the last writes one and the next axis reads it.  Each matmul takes
        its output as its last argument, as the calls of _reaction do.
        """
        if not self.work_shape[0]:
            return []
        x, last = src[self.moving], dst[self.moving]
        outs = [work[i % 2] for i in range(len(self.axes) - 1)]
        # matmul cannot write its own operand: one axis in place goes
        # through a temporary, copied back at the end
        outs.append(work[0] if src is dst and len(self.axes) == 1 else last)
        calls = []
        for (shape, kernel, factor), y in zip(self.axes, outs):
            xv, yv = x.reshape(shape, copy=False), y.reshape(shape, copy=False)
            if kernel is None:
                calls.append(_transform(xv, yv, factor))
            elif len(shape) == 3:  # rows times the symmetric kernel
                calls.append(partial(np.matmul, xv, kernel, yv))
            else:
                calls.append(partial(np.matmul, kernel, xv, yv))
            x = y
        if x is not last:
            calls.append(partial(np.copyto, last, x))
        return calls

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A new array holding the flow of every entry of u; u is not modified."""
        src = np.ascontiguousarray(u, dtype=float).reshape(self.shape)
        out = src.copy()
        for call in self.calls(src, out, np.empty((2,) + self.work_shape)):
            call()
        return out.reshape(np.shape(u))


def _reaction(u: np.ndarray, work: np.ndarray, dt: float) -> list:
    """The reaction substep over dt as calls that update the (3, *cells)
    stack u in place, with every view they use bound once; work holds at
    least four scratch fields of u's cells.

    The calls evaluate the roots r1 <= r2 of c**2 - (1 + m1 + m2) c + m1 m2
    as sq = sqrt(1 + 2 (m1 + m2) + (m1 - m2)**2), r2 = (1 + m1 + m2 + sq)/2
    and r1 = m1 m2 / r2, then the closed form in reaction_substep,
    operation for operation, so they round as those expressions do.  Rows
    0 and 1 hold m1 and m2 until they become a and b; row 2 holds c, then
    exp(-sq dt) once c is read for the last time, then c_new.  Each call
    takes its output as its last argument, by position, which a partial
    passes on faster than an out= keyword.
    """
    m1, m2, c = u[0], u[1], u[2]
    s, sq, r1, g = work[:4]
    return [
        partial(np.add, m1, c, m1),  # m1 = a + c
        partial(np.add, m2, c, m2),  # m2 = b + c
        partial(np.add, 1.0, m1, s),
        partial(np.add, s, m2, s),  # s = 1 + m1 + m2
        partial(np.add, m1, m2, sq),
        partial(np.multiply, 2.0, sq, sq),
        partial(np.add, 1.0, sq, sq),
        partial(np.subtract, m1, m2, r1),
        partial(np.square, r1, r1),
        partial(np.add, sq, r1, sq),
        partial(np.sqrt, sq, sq),  # sq = r2 - r1
        partial(np.add, s, sq, s),
        partial(np.multiply, 0.5, s, s),  # s holds r2 = (s + sq) / 2
        partial(np.multiply, m1, m2, r1),
        partial(np.divide, r1, s, r1),  # r1 = m1 m2 / r2
        partial(np.subtract, c, r1, g),
        partial(np.subtract, s, c, s),  # s holds r2 - c
        partial(np.multiply, sq, -dt, c),
        partial(np.exp, c, c),
        partial(np.multiply, g, c, g),  # G = (c - r1) exp(-sq dt)
        partial(np.add, s, g, s),
        partial(np.multiply, sq, g, g),
        partial(np.divide, g, s, g),
        partial(np.add, r1, g, c),  # c_new = r1 + sq G / ((r2 - c) + G)
        partial(np.subtract, m1, c, m1),  # a = m1 - c_new
        partial(np.subtract, m2, c, m2),  # b = m2 - c_new
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

    Runs the in-place calls of StrangStepper.advance on a copy of the
    stack.
    """
    u = np.array(fields.stack)
    for call in _reaction(u, np.empty((4,) + u.shape[1:]), dt):
        call()
    return SpeciesFields.from_stack(u)


class StrangStepper:
    """Strang steps of a stacked (3, *cells) array of a, b and c, with the
    half- and full-step semigroups built once.

    Consecutive Strang steps share a diffusion half-step, so a block of k
    steps is composed as D(h/2) [R D(h)]^(k-1) R D(h/2), identical to the
    step-by-step composition because the discrete semigroup is exact.
    """

    def __init__(self, params: ModelParams, dt: float, grid: Grid):
        self.dt = dt
        self.half = DiffusionSemigroup(grid, params.diffusivities(), 0.5 * dt)
        self.full = DiffusionSemigroup(grid, params.diffusivities(), dt)

    def advance(self, u: np.ndarray, n_steps: int) -> np.ndarray:
        """The stack u after n_steps Strang steps, as a new array; u is
        never written.

        Raises ValueError, before anything is written, unless u has the
        shape (3, *grid.cells).  Each call allocates the state it returns
        and one work block, and binds every call of the step to views of
        them once, so a step only runs those calls (an axis longer than
        KERNEL_MAX_CELLS still allocates its cosine transforms).  The block
        holds the two axis temporaries, which the reaction also uses as its
        scratch: at most six fields, at least four.  None of it outlives
        the call.
        """
        u = np.ascontiguousarray(u, dtype=float)
        if u.shape != self.full.shape:
            raise ValueError(f"a state has shape {self.full.shape}, got {u.shape}")
        state = u.copy()
        moving = self.full.work_shape[0]
        work = np.empty((max(2 * moving, 4),) + u.shape[1:])
        temps = work[:moving], work[moving:2 * moving]
        react = _reaction(state, work, self.dt)
        for call in self.half.calls(u, state, temps) + react:
            call()
        if n_steps > 1:
            step = self.full.calls(state, state, temps) + react
            for _ in range(n_steps - 1):
                for call in step:
                    call()
        for call in self.half.calls(state, state, temps):
            call()
        return state


def run(initial: SpeciesFields, params: ModelParams, grid: Grid,
        cfg: SolverConfig) -> Trajectory:
    """Advance from t = 0 to t_end, recording functionals every record_every steps.

    grid carries the box, whose volume the conserved masses and the
    recorded functionals use.  The equilibrium reference is fixed from the
    initial conserved masses.
    The stack of the state is handed to each record as it is: sampling
    neither splits nor copies it, and the last recorded fields, those of
    the state at t_end, are the final fields.
    Raises NumericalBlowup (with the offending time) if that reference is
    not finite with positive components (t = 0), if evaluating it, a step
    or a record divides by zero, overflows or makes an invalid value (t of
    the next record), if a recorded state is not finite and positive, or if
    any value of a recorded sample is not finite.
    """
    stepper = StrangStepper(params, cfg.dt, grid)
    running = functionals.RunningIntegrals()
    traj = Trajectory()

    def record(t, u):
        started = time.perf_counter()
        fields = SpeciesFields.from_stack(u)
        s = functionals.sample(fields, t, eq, params, grid, running)
        if not all(map(math.isfinite, s.values())):
            raise NumericalBlowup(f"non-finite functional at t = {t}", t=t)
        traj.samples.append(s)
        traj.final_fields = fields
        traj.sample_s += time.perf_counter() - started

    t = 0.0
    # a 0/0, inf-inf or overflow means the state has left the positive
    # orthant (a and b rounded to 0 at huge masses) or the range of doubles
    # (huge data or a huge box): raise, not warn
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            eq = equilibrium_state(*conserved_masses(initial, grid))
            if not all(math.isfinite(r) and r > 0.0 for r in (eq.a_inf, eq.b_inf, eq.c_inf)):
                raise NumericalBlowup(f"equilibrium ({eq.a_inf}, {eq.b_inf}, {eq.c_inf}) is "
                                      "not finite and positive at t = 0", t=0.0)
            u = initial.stack
            record(t, u)
            for step in range(cfg.record_every, cfg.n_steps + 1, cfg.record_every):
                t = step * cfg.dt
                started = time.perf_counter()
                u = stepper.advance(u, cfg.record_every)
                traj.step_s += time.perf_counter() - started
                record(t, u)
    except (FloatingPointError, InvalidMass, InvalidField, NotPositive) as exc:
        raise NumericalBlowup(f"{exc} at t = {t}", t=t) from exc
    return traj
