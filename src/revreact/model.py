"""Diffusivities, conserved masses and equilibrium algebra.

The box and its grid live in grid, and the masses are grid.integrate of
the fields.  The reversible reaction A + B <-> C conserves the spatial
averages M1 = avg(a + c) and M2 = avg(b + c).  The unique nonnegative
homogeneous equilibrium compatible with (M1, M2) solves

    c_inf**2 - (1 + M1 + M2) * c_inf + M1 * M2 = 0

with the smaller root, and a_inf = M1 - c_inf, b_inf = M2 - c_inf, so that
a_inf * b_inf = c_inf (equilibrium_state evaluates all three without
cancellation).
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import InvalidArgument, InvalidState
from .grid import integrate

__all__ = [
    "MODES",
    "ModelParams",
    "EquilibriumState",
    "conserved_masses",
    "equilibrium_state",
]


#: the degeneracy modes, indexed by (d_b == 0) + 2 (d_c == 0)
MODES = ("full", "db0", "dc0")


@dataclass(frozen=True)
class ModelParams:
    """Diffusivities of the three species.

    d_a must be positive; at most one of d_b, d_c may vanish (the two
    degenerate regimes), all nonnegative.
    """

    d_a: float
    d_b: float
    d_c: float

    def __post_init__(self):
        for name, d in (("d_a", self.d_a), ("d_b", self.d_b), ("d_c", self.d_c)):
            if not math.isfinite(d) or d < 0.0:
                raise InvalidArgument(f"{name} must be finite and nonnegative, got {d}")
        if self.d_a <= 0.0:
            raise InvalidArgument("d_a must be strictly positive")
        if self.d_b == 0.0 and self.d_c == 0.0:
            raise InvalidArgument("at most one of d_b, d_c may vanish")

    @property
    def mode(self) -> str:
        """Degeneracy mode, one of MODES: 'db0', 'dc0' or 'full'."""
        return MODES[(self.d_b == 0.0) + 2 * (self.d_c == 0.0)]

    def diffusivities(self) -> tuple[float, float, float]:
        return (self.d_a, self.d_b, self.d_c)

    @property
    def diffusing(self) -> slice:
        """The species with d > 0, the case split of the mode, as a basic
        slice of the rows (a, b, c) of a stack: a view, where a list of rows
        would copy them."""
        return {"full": slice(0, 3), "db0": slice(0, 3, 2), "dc0": slice(0, 2)}[self.mode]


@dataclass(frozen=True)
class EquilibriumState:
    """Homogeneous equilibrium (a_inf, b_inf, c_inf) with its conserved masses."""

    a_inf: float
    b_inf: float
    c_inf: float
    M1: float
    M2: float


def conserved_masses(states, grid):
    """Conserved average densities M1 = avg(a+c), M2 = avg(b+c): two
    floats for the SpeciesFields of one snapshot, or, for an array of
    (3, *cells) stacks of shape (..., 3, *cells), an array (..., 2) of
    (M1, M2) per stack.

    Each is grid.integrate of a + c or b + c, one integral per row of the
    two-row stack (..., 2, *cells) of both sums, divided by the volume
    |Omega| of the box, grid.volume, so a stack of a block gives the
    masses of its snapshot bit for bit.
    """
    snapshot = hasattr(states, "stack")
    u = np.asarray(states.stack if snapshot else states, dtype=float)
    cells = (slice(None),) * len(grid.cells)
    masses = integrate(u[(..., slice(0, 2)) + cells] + u[(..., slice(2, 3)) + cells],
                       grid) / grid.volume
    return tuple(masses.tolist()) if snapshot else masses


def _scaled(x: float, y: float, z: float) -> float:
    """x * y / z, divided first, as x * (y / z), only where x * y overflows."""
    xy = x * y
    return xy / z if xy < math.inf else x * (y / z)


def _twice_gap(m: float, other: float, sq: float) -> float:
    """2*(r2 - other) = 1 + m - other + sq, as a sum of nonnegative terms."""
    if m >= other:
        return (m - other) + (1.0 + sq)
    return 4.0 * other / ((other - m) + (sq - 1.0))


def equilibrium_state(M1: float, M2: float) -> EquilibriumState:
    """Homogeneous equilibrium for given conserved masses.

    With the discriminant expanded as sq**2 = 1 + 2(M1+M2) + (M1-M2)**2,
    which is positive for all admissible masses, and the larger root
    r2 = (1 + M1 + M2 + sq)/2, each component is a ratio of positive terms:
    c_inf = M1*M2/r2, a_inf = M1*(r2 - M2)/r2 and b_inf = M2*(r2 - M1)/r2.
    2*(r2 - M2) = 1 + M1 - M2 + sq is summed directly when M1 >= M2 and
    otherwise in its conjugate form 4*M2/(sq - 1 - M1 + M2), and likewise
    for r2 - M1.  The difference a_inf = M1 - c_inf would lose every digit
    of a_inf for large masses (a_inf ~ sqrt(M1) when M1 = M2).  Each
    numerator product is divided by 2*r2 after it is formed, or before
    where the product alone overflows (a mass above about 1e154), so a
    component that fits in a double is finite.  Masses whose squared
    difference or doubled sum overflows raise InvalidState.
    """
    if not (math.isfinite(M1) and math.isfinite(M2)) or M1 < 0.0 or M2 < 0.0:
        raise InvalidState(f"masses must be finite and nonnegative, got ({M1}, {M2})")
    try:
        sq = math.sqrt(1.0 + 2.0 * (M1 + M2) + (M1 - M2) ** 2)
    except OverflowError:  # |M1 - M2| above about 1.3e154
        sq = math.inf
    twice_r2 = 1.0 + M1 + M2 + sq
    # inf where sq is, and where M1 + M2 passes about 9e307: math.sqrt takes
    # an overflowed 2 * (M1 + M2) without raising
    if twice_r2 == math.inf:
        raise InvalidState(f"masses ({M1}, {M2}) overflow the equilibrium algebra")
    return EquilibriumState(
        a_inf=_scaled(M1, _twice_gap(M1, M2, sq), twice_r2),
        b_inf=_scaled(M2, _twice_gap(M2, M1, sq), twice_r2),
        c_inf=_scaled(2.0 * M1, M2, twice_r2),
        M1=M1,
        M2=M2,
    )
