"""Time integration by Strang splitting.

One step advances a half diffusion step per species, the exact pointwise
reaction flow over the full step, then a second half diffusion step.  The
reaction substep integrates dc/dt = (c - r1)(c - r2) in closed form with
the local invariants m1 = a + c and m2 = b + c held exactly, so positivity
and pointwise conservation are structural.

The diffusion half-steps apply the exact semigroup of the discrete Neumann
Laplacian, diagonalized by the type-II cosine transform on the uniform
grid.  The semigroup matrix is symmetric, nonnegative and doubly
stochastic, which makes positivity, mass conservation and entropy decay
structural as well, and leaves the pure O(dt^2) splitting error as the
only time-discretization error.  No step solves a linear system; the
backward-Euler diffusion step that tests compare against lives in oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np
import scipy.fft

from . import functionals
from .errors import InvalidArgument, NumericalBlowup
from .grid import Grid, SpeciesFields
from .model import DomainSpec, ModelParams, conserved_masses, equilibrium_state, riccati_roots

__all__ = [
    "SolverConfig",
    "Trajectory",
    "reaction_substep",
    "strang_step",
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
    """Exact heat flow exp(tau * d * L) of the discrete Neumann Laplacian."""

    def __init__(self, grid: Grid, d: float, tau: float):
        self.identity = d == 0.0 or tau == 0.0
        if not self.identity:
            self.factor = np.exp(-tau * d * neumann_eigenvalues(grid))

    def apply(self, u: np.ndarray) -> np.ndarray:
        if self.identity:
            return u
        coeff = scipy.fft.dctn(u, type=2, norm="ortho")
        coeff *= self.factor
        return scipy.fft.idctn(coeff, type=2, norm="ortho")


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


class _StrangStepper:
    """Precomputed half- and full-step semigroups for one (params, dt, grid).

    Consecutive Strang steps share a diffusion half-step, so a block of k
    steps is composed as D(h/2) [R D(h)]^(k-1) R D(h/2), identical to the
    step-by-step composition because the discrete semigroup is exact.
    """

    def __init__(self, params: ModelParams, dt: float, grid: Grid):
        self.dt = dt
        self.half_ops = [
            DiffusionSemigroup(grid, d, 0.5 * dt) for d in params.diffusivities()
        ]
        self.full_ops = [
            DiffusionSemigroup(grid, d, dt) for d in params.diffusivities()
        ]

    def _diffuse(self, ops, a, b, c):
        oa, ob, oc = ops
        return oa.apply(a), ob.apply(b), oc.apply(c)

    def step_block(self, a, b, c, n_steps):
        """Advance raw arrays by n_steps Strang steps with fused half-steps."""
        a, b, c = self._diffuse(self.half_ops, a, b, c)
        a, b, c = _react_arrays(a, b, c, self.dt)
        for _ in range(n_steps - 1):
            a, b, c = self._diffuse(self.full_ops, a, b, c)
            a, b, c = _react_arrays(a, b, c, self.dt)
        return self._diffuse(self.half_ops, a, b, c)


def strang_step(fields: SpeciesFields, params: ModelParams, dt: float,
                grid: Grid) -> SpeciesFields:
    """One Strang step: half diffusion, full reaction, half diffusion."""
    stepper = _StrangStepper(params, dt, grid)
    return SpeciesFields(*stepper.step_block(fields.a, fields.b, fields.c, 1))


def run(initial: SpeciesFields, params: ModelParams, grid: Grid,
        domain: DomainSpec, cfg: SolverConfig) -> Trajectory:
    """Advance from t = 0 to t_end, recording functionals every record_every steps.

    The equilibrium reference is fixed from the initial conserved masses.
    Raises NumericalBlowup (with the offending time) if any recorded
    functional turns non-finite.
    """
    stepper = _StrangStepper(params, cfg.dt, grid)
    m1, m2 = conserved_masses(initial, grid, domain)
    eq = equilibrium_state(m1, m2)
    running = functionals.RunningIntegrals()

    traj = Trajectory()
    a, b, c = initial.a.copy(), initial.b.copy(), initial.c.copy()

    def record(step_index, fields):
        t = step_index * cfg.dt
        s = functionals.sample(fields, t, eq, params, domain, grid, running)
        if not all(
            math.isfinite(v)
            for v in (s.entropy, s.e_rel, s.dissipation, s.m1, s.m2)
        ):
            raise NumericalBlowup(f"non-finite functional at t = {t}", t=t)
        traj.times.append(t)
        traj.samples.append(s)

    record(0, initial)
    for step in range(cfg.record_every, cfg.n_steps + 1, cfg.record_every):
        a, b, c = stepper.step_block(a, b, c, cfg.record_every)
        record(step, SpeciesFields(a, b, c))
    traj.final_fields = SpeciesFields(a, b, c)
    return traj
