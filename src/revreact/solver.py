"""Time integration by Strang splitting.

The state is one stacked (3, *cells) array of a, b and c.  One step
advances a half diffusion step, the exact pointwise reaction flow over the
full step, then a second half diffusion step.  The reaction substep
integrates dc/dt = (c - r1)(c - r2) in closed form with the local
invariants m1 = a + c and m2 = b + c held exactly, so positivity and
pointwise conservation are structural.

The diffusion half-steps apply the exact semigroup of the discrete Neumann
Laplacian.  On a box it factors over the axes,
exp(tau d L) = K_1 x ... x K_N with K = C^T diag(exp(-tau d lam)) C for the
cosine transform C and eigenvalues lam of one axis, so it is applied one
axis at a time: an axis of at most KERNEL_MAX_CELLS cells by its dense heat
kernel K, built once per diffusivity and step length and applied with one
matmul, a longer axis by the type-II cosine transform along that axis.
In exact arithmetic each factor is symmetric, nonnegative and doubly
stochastic, which makes positivity, mass conservation and entropy decay
structural, and leaves the pure O(dt^2) splitting error as the only
time-discretization error.  In floating point the kernels are exactly
symmetric, and nonnegative and doubly stochastic to rounding: entries
whose true value is below rounding can come out as about -6e-17, and row
sums are 1 to within 2.2e-16 on the shipped presets.  A species with zero
diffusivity (d_b = 0 or d_c = 0) is skipped by index, so diffusion leaves
it bit-for-bit unchanged.  No step solves a linear system; the
backward-Euler diffusion step that tests compare against lives in oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np
import scipy.fft

from . import functionals
from .errors import InvalidArgument, InvalidField, InvalidMass, NotPositive, NumericalBlowup
from .grid import Grid, SpeciesFields
from .model import DomainSpec, ModelParams, conserved_masses, equilibrium_state, riccati_roots

__all__ = [
    "SolverConfig",
    "Trajectory",
    "reaction_substep",
    "StrangStepper",
    "run",
    "DiffusionSemigroup",
]

#: reaction substep returns its input when |c - r1| < this multiple of r2
RICCATI_GUARD = 1e-15

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
    the final fields of one run."""

    samples: list = field(default_factory=list)
    final_fields: SpeciesFields | None = None


def neumann_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of minus the discrete Neumann Laplacian on one axis of n
    cells of width h, in mode order k = 0..n-1.

    Mode k carries (4/h^2) sin^2(k pi / (2 n)); the cosine modes
    cos(k pi (i+1/2)/n) diagonalize the flux-form stencil exactly.  On a
    box the modes are products over the axes and their eigenvalues add.
    """
    k = np.arange(n)
    return (4.0 / (h * h)) * np.sin(0.5 * np.pi * k / n) ** 2


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
    at_equilibrium = np.abs(c - r1) < RICCATI_GUARD * r2
    u0 = (c - r1) / (c - r2)
    u = u0 * np.exp(-sq * dt)
    c_new = np.where(at_equilibrium, c, (r1 - r2 * u) / (1.0 - u))
    return m1 - c_new, m2 - c_new, c_new


def reaction_substep(fields: SpeciesFields, dt: float) -> SpeciesFields:
    """Exact pointwise integration of the reaction over dt.

    Per cell, with m1 = a + c and m2 = b + c frozen, c obeys
    dc/dt = (c - r1)(c - r2); in u = (c - r1)/(c - r2) the flow is linear,
    u(dt) = u0 * exp((r1 - r2) dt), giving c = (r1 - r2*u)/(1 - u).
    c stays between its start value and r1 < min(m1, m2), so a = m1 - c and
    b = m2 - c stay positive.
    """
    return SpeciesFields(*_react_arrays(fields.a, fields.b, fields.c, dt))


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
        domain: DomainSpec, cfg: SolverConfig) -> Trajectory:
    """Advance from t = 0 to t_end, recording functionals every record_every steps.

    The equilibrium reference is fixed from the initial conserved masses.
    Raises NumericalBlowup (with the offending time) if that reference is
    not finite with positive components (t = 0), if a step divides by zero
    or makes an invalid value (t of the next record), if a recorded state is
    not finite and positive, or if any value of a recorded sample is not
    finite.
    """
    stepper = StrangStepper(params, cfg.dt, grid)
    try:
        eq = equilibrium_state(*conserved_masses(initial, grid, domain))
    except InvalidMass as exc:
        raise NumericalBlowup(f"{exc} at t = 0", t=0.0) from exc
    if not all(math.isfinite(r) and r > 0.0 for r in (eq.a_inf, eq.b_inf, eq.c_inf)):
        raise NumericalBlowup(f"equilibrium ({eq.a_inf}, {eq.b_inf}, {eq.c_inf}) is not "
                              "finite and positive at t = 0", t=0.0)
    running = functionals.RunningIntegrals()

    traj = Trajectory()
    u = np.stack((initial.a, initial.b, initial.c))

    def record(step_index, u):
        t = step_index * cfg.dt
        try:
            fields = SpeciesFields(*u)
        except (InvalidField, NotPositive) as exc:
            raise NumericalBlowup(f"{exc} at t = {t}", t=t) from exc
        s = functionals.sample(fields, t, eq, params, domain, grid, running)
        if not all(map(math.isfinite, s.values())):
            raise NumericalBlowup(f"non-finite functional at t = {t}", t=t)
        traj.samples.append(s)

    record(0, u)
    for step in range(cfg.record_every, cfg.n_steps + 1, cfg.record_every):
        # a 0/0 or inf-inf in a step means the state has left the positive
        # orthant (a and b rounded to 0 at huge masses): raise, not warn
        try:
            with np.errstate(divide="raise", invalid="raise"):
                u = stepper.advance(u, cfg.record_every)
        except FloatingPointError as exc:
            t = step * cfg.dt
            raise NumericalBlowup(f"{exc} in the steps up to t = {t}", t=t) from exc
        record(step, u)
    traj.final_fields = SpeciesFields(*u)
    return traj
