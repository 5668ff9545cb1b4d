"""Domain description and equilibrium algebra.

The reversible reaction A + B <-> C conserves the spatial averages
M1 = avg(a + c) and M2 = avg(b + c).  The unique nonnegative homogeneous
equilibrium compatible with (M1, M2) solves

    c_inf**2 - (1 + M1 + M2) * c_inf + M1 * M2 = 0

with the smaller root, and a_inf = M1 - c_inf, b_inf = M2 - c_inf, so that
a_inf * b_inf = c_inf (equilibrium_state evaluates all three without
cancellation).
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import InvalidArgument, InvalidMass

__all__ = [
    "DomainSpec",
    "ModelParams",
    "EquilibriumState",
    "conserved_masses",
    "equilibrium_state",
]


@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned box domain in dimension N <= 3."""

    dimension: int
    lengths: tuple[float, ...]
    volume: float

    @classmethod
    def box(cls, lengths) -> "DomainSpec":
        lengths = tuple(float(x) for x in np.atleast_1d(lengths))
        n = len(lengths)
        if n not in (1, 2, 3):
            raise InvalidArgument(f"dimension must be 1, 2 or 3, got {n}")
        if any(not math.isfinite(x) or x <= 0.0 for x in lengths):
            raise InvalidArgument(f"axis lengths must be positive, got {lengths}")
        volume = math.prod(lengths)
        if not 0.0 < volume < math.inf:
            raise InvalidArgument(
                f"axis lengths {lengths} give a volume that is not finite and positive"
            )
        return cls(dimension=n, lengths=lengths, volume=volume)


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
        """Degeneracy mode: 'db0', 'dc0' or 'full'."""
        if self.d_b == 0.0:
            return "db0"
        if self.d_c == 0.0:
            return "dc0"
        return "full"

    def diffusivities(self) -> tuple[float, float, float]:
        return (self.d_a, self.d_b, self.d_c)


@dataclass(frozen=True)
class EquilibriumState:
    """Homogeneous equilibrium (a_inf, b_inf, c_inf) with its conserved masses."""

    a_inf: float
    b_inf: float
    c_inf: float
    M1: float
    M2: float


def conserved_masses(fields, grid) -> tuple[float, float]:
    """Conserved average densities M1 = avg(a+c), M2 = avg(b+c).

    Computed by cell-volume-weighted summation over the structured grid,
    divided by the volume |Omega| of the box grid.domain, in one pass over
    the rows a and b of the species stack (each row summed as np.sum sums
    it alone).
    """
    u = fields.stack
    sums = (u[:2] + u[2]).reshape(2, -1).sum(axis=-1).tolist()
    m1, m2 = (grid.cell_volume * s / grid.domain.volume for s in sums)
    return m1, m2


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
    of a_inf for large masses (a_inf ~ sqrt(M1) when M1 = M2).  Masses
    whose squared difference overflows raise InvalidMass.
    """
    if not (math.isfinite(M1) and math.isfinite(M2)) or M1 < 0.0 or M2 < 0.0:
        raise InvalidMass(f"masses must be finite and nonnegative, got ({M1}, {M2})")
    try:
        sq = math.sqrt(1.0 + 2.0 * (M1 + M2) + (M1 - M2) ** 2)
    except OverflowError:  # |M1 - M2| above about 1.3e154
        raise InvalidMass(f"masses ({M1}, {M2}) overflow the equilibrium algebra") from None
    twice_r2 = 1.0 + M1 + M2 + sq
    return EquilibriumState(
        a_inf=M1 * _twice_gap(M1, M2, sq) / twice_r2,
        b_inf=M2 * _twice_gap(M2, M1, sq) / twice_r2,
        c_inf=2.0 * M1 * M2 / twice_r2,
        M1=M1,
        M2=M2,
    )
