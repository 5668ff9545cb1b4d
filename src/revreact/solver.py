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
sums are 1 to within 2.2e-16 on the shipped presets.  A species with zero
diffusivity (d_b = 0 or d_c = 0) is skipped by index, so diffusion leaves
it bit-for-bit unchanged.  No step solves a linear system.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import math
import time

import numpy as np
import scipy.fft

from . import functionals
from .errors import InvalidArgument, InvalidField, InvalidMass, NotPositive, NumericalBlowup
from .grid import Grid, SpeciesFields, neumann_eigenvalues
from .model import ModelParams, conserved_masses, equilibrium_state, riccati_roots

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


class DiffusionSemigroup:
    """Exact heat flow exp(tau * d * L) of the discrete Neumann Laplacian.

    Acts on the last len(grid.cells) axes of its input.  d holds one
    diffusivity per entry of the leading axis; a scalar d acts on a plain
    field, a stack of one.  Entries with d * tau == 0 are skipped by index
    and come back bit-for-bit unchanged.

    The flow factors over the axes and is applied one axis at a time: by a
    dense heat kernel (one matmul) on an axis of at most KERNEL_MAX_CELLS
    cells, by the type-II cosine transform along a longer axis, whose
    kernel would be slower and hold n^2 doubles.  The kernels are built
    here, once; entries that share one rate share them.
    """

    def __init__(self, grid: Grid, d, tau: float):
        rates = -tau * np.atleast_1d(d)
        self.shape = rates.shape + grid.cells
        self.moving = np.flatnonzero(rates != 0.0)
        rates = rates[self.moving]
        # moving entries with one common rate (every preset) share one
        # kernel, broadcast over the stack, instead of holding a copy each
        kernel_rates = rates[:1] if np.all(rates == rates[:1]) else rates
        #: per axis: the (entries, before, along, after) shape it acts on,
        #: and its kernels (entries or 1, n, n) or, for a long axis, its
        #: cosine-mode factors shaped to broadcast along it
        self.axes = []
        for ax, (n, h) in enumerate(zip(grid.cells, grid.spacings)):
            shape = (rates.size, math.prod(grid.cells[:ax]), n, math.prod(grid.cells[ax + 1:]))
            if n <= KERNEL_MAX_CELLS:
                self.axes.append((shape, heat_kernels(n, h, kernel_rates), None))
            else:
                factor = np.exp(np.multiply.outer(rates, neumann_eigenvalues(n, h)))
                self.axes.append((shape, None, factor[:, None, :, None]))

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A new array holding the flow of every entry of u; u is not modified."""
        out = np.array(u, dtype=float).reshape(self.shape)
        if self.moving.size:
            v = out[self.moving]
            for shape, kernel, factor in self.axes:
                v = v.reshape(shape)
                if kernel is None:
                    coeff = scipy.fft.dct(v, type=2, norm="ortho", axis=2)
                    coeff *= factor
                    v = scipy.fft.idct(coeff, type=2, norm="ortho", axis=2)
                elif shape[3] == 1:  # last axis: rows times the symmetric kernel
                    v = v[..., 0] @ kernel
                else:
                    v = kernel[:, None] @ v
            out[self.moving] = v.reshape((self.moving.size,) + self.shape[1:])
        return out.reshape(np.shape(u))


def _react_arrays(a, b, c, dt):
    m1 = a + c
    m2 = b + c
    r1, r2, sq = riccati_roots(m1, m2)
    g = (c - r1) * np.exp(-sq * dt)
    c_new = r1 + sq * g / ((r2 - c) + g)
    return m1 - c_new, m2 - c_new, c_new


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
    """
    return SpeciesFields.from_stack(np.stack(_react_arrays(*fields.stack, dt)))


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
        """The stack u after n_steps Strang steps; u itself is not modified."""
        u = self.half.apply(u)
        u[0], u[1], u[2] = _react_arrays(*u, self.dt)
        for _ in range(n_steps - 1):
            u = self.full.apply(u)
            u[0], u[1], u[2] = _react_arrays(*u, self.dt)
        return self.half.apply(u)


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
