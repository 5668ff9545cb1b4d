"""Time integration by Strang splitting.

The state is one stacked (3, *cells) array of a, b and c.  One step
advances a half diffusion step, the exact pointwise reaction flow over the
full step, then a second half diffusion step.  The reaction substep
integrates dc/dt = (c - r1)(c - r2) in closed form with the local
invariants m1 = a + c and m2 = b + c held exactly, so positivity and
pointwise conservation are structural.

The diffusion half-steps apply the exact semigroup of the discrete Neumann
Laplacian, diagonalized by the type-II cosine transform on the uniform
grid.  The semigroup matrix is symmetric, nonnegative and doubly
stochastic, which makes positivity, mass conservation and entropy decay
structural as well, and leaves the pure O(dt^2) splitting error as the
only time-discretization error.  A species with zero diffusivity (d_b = 0
or d_c = 0) is skipped by index, so diffusion leaves it bit-for-bit
unchanged.  No step solves a linear system; the backward-Euler diffusion
step that tests compare against lives in oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np
import scipy.fft

from . import functionals
from .errors import InvalidArgument, InvalidField, NotPositive, NumericalBlowup
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
    """Recorded functional samples plus the final fields of one run."""

    times: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    final_fields: SpeciesFields | None = None


def neumann_eigenvalues(grid: Grid):
    """Nonpositive eigenvalue grid of the discrete Neumann Laplacian.

    Mode (k1,..,kN) carries -sum_ax (4/h^2) sin^2(k pi / (2 n)); the cosine
    modes cos(k pi (i+1/2)/n) diagonalize the flux-form stencil exactly.
    """
    lam = np.zeros(grid.cells)
    for ax, (n, h) in enumerate(zip(grid.cells, grid.spacings)):
        k = np.arange(n)
        lam_ax = (4.0 / (h * h)) * np.sin(0.5 * np.pi * k / n) ** 2
        shape = [1] * len(grid.cells)
        shape[ax] = n
        lam = lam + lam_ax.reshape(shape)
    return lam


class DiffusionSemigroup:
    """Exact heat flow exp(tau * d * L) of the discrete Neumann Laplacian.

    Transforms the last len(grid.cells) axes of its input.  d holds one
    diffusivity per entry of the leading axis; a scalar d acts on a plain
    field, a stack of one.  Entries with d * tau == 0 are skipped by index
    and come back bit-for-bit unchanged.
    """

    def __init__(self, grid: Grid, d, tau: float):
        rates = -tau * np.atleast_1d(d)
        self.shape = rates.shape + grid.cells
        self.axes = tuple(range(1, len(self.shape)))
        self.moving = np.flatnonzero(rates != 0.0)
        self.factor = np.exp(rates[self.moving].reshape((-1,) + (1,) * len(grid.cells))
                             * neumann_eigenvalues(grid))

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A new array holding the flow of every entry of u; u is not modified."""
        out = np.array(u, dtype=float).reshape(self.shape)
        if self.moving.size:
            coeff = scipy.fft.dctn(out[self.moving], type=2, norm="ortho", axes=self.axes)
            coeff *= self.factor
            out[self.moving] = scipy.fft.idctn(coeff, type=2, norm="ortho", axes=self.axes)
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
    Raises NumericalBlowup (with the offending time) if a recorded state is
    not finite and positive or any recorded functional turns non-finite.
    """
    stepper = StrangStepper(params, cfg.dt, grid)
    eq = equilibrium_state(*conserved_masses(initial, grid, domain))
    running = functionals.RunningIntegrals()

    traj = Trajectory()
    u = np.stack((initial.a, initial.b, initial.c))

    def record(step_index, u):
        t = step_index * cfg.dt
        try:
            s = functionals.sample(SpeciesFields(*u), t, eq, params, domain, grid, running)
        except (InvalidField, NotPositive) as exc:
            raise NumericalBlowup(f"{exc} at t = {t}", t=t) from exc
        if not all(map(math.isfinite, (s.entropy, s.e_rel, s.dissipation, s.m1, s.m2))):
            raise NumericalBlowup(f"non-finite functional at t = {t}", t=t)
        traj.times.append(t)
        traj.samples.append(s)

    record(0, u)
    for step in range(cfg.record_every, cfg.n_steps + 1, cfg.record_every):
        u = stepper.advance(u, cfg.record_every)
        record(step, u)
    traj.final_fields = SpeciesFields(*u)
    return traj
