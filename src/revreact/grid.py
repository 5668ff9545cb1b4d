"""Cell-centered finite volumes on boxes with Neumann boundaries.

Uniform spacing per axis; midpoint quadrature.  The discrete Neumann
Laplacian L is the one whose form -<Lu, u> in the cell-volume weighted
inner product is dirichlet_energy(u), summed over the interior faces
(zero-flux boundary faces contribute nothing).  On one axis its
eigenvectors are the cosine modes and its eigenvalues neumann_eigenvalues;
the solver applies its exact heat flow from those, so nothing in the
package evaluates L itself.

SpeciesFields is the one check that a state is finite and strictly
positive.  The grid operators do not check their input: on non-finite data
they return non-finite results, which the caller that records them checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import InvalidArgument, InvalidField, NotPositive
from .model import DomainSpec

__all__ = [
    "Grid",
    "SpeciesFields",
    "neumann_eigenvalues",
    "integrate",
    "row_integrals",
    "lp_norm",
    "lp_norms",
    "dirichlet_energy",
    "dirichlet_energies",
    "deviation_l2",
    "deviations_l2",
]


@dataclass(frozen=True)
class Grid:
    """Structured grid on a box: the DomainSpec it covers, cells per axis,
    spacings, the (uniform) cell volume and the discrete Poincare constant.

    The one geometry object: evaluators read the box (|Omega|, the
    dimension) from grid.domain, so a grid and a box that disagree cannot
    be passed together.  Build it with for_domain.

    poincare_constant is the sharp constant P of the discrete
    Poincare-Wirtinger inequality deviation_l2(u)**2 <= P *
    dirichlet_energy(u): 1 / lambda_1, where lambda_1 is the smallest
    nonzero eigenvalue (4/h**2) sin**2(pi/(2n)) of minus the Neumann
    Laplacian over the axes of at least 2 cells, attained by the lowest
    cosine mode of the slowest axis.  It exceeds the continuous box
    constant (L_max/pi)**2 by a factor of about 1 + pi**2/(12 n**2).  On
    a grid of single cells every deviation vanishes and it is inf.
    """

    domain: DomainSpec
    cells: tuple[int, ...]
    spacings: tuple[float, ...]
    cell_volume: float
    poincare_constant: float

    @classmethod
    def for_domain(cls, domain: DomainSpec, cells) -> "Grid":
        cells = tuple(int(n) for n in np.atleast_1d(cells))
        if len(cells) != domain.dimension:
            raise InvalidArgument(
                f"need {domain.dimension} cell counts, got {len(cells)}"
            )
        if any(n < 1 for n in cells):
            raise InvalidArgument(f"cell counts must be positive, got {cells}")
        spacings = tuple(L / n for L, n in zip(domain.lengths, cells))
        cell_volume = math.prod(spacings)
        # h * h > 0 is tested first: 4 / (h * h), the scale of the axis
        # eigenvalues, raises ZeroDivisionError when h * h underflows to 0
        if not (cell_volume > 0.0
                and all(h * h > 0.0 and 4.0 / (h * h) < math.inf for h in spacings)):
            raise InvalidArgument(
                f"axis lengths {domain.lengths} over {cells} cells give spacings "
                f"{spacings} whose cell volume or 4/h^2 is not finite and positive"
            )
        # the smallest nonzero eigenvalue of each axis of at least 2 cells
        lam1 = [float(_eigenvalue(1, n, h)) for n, h in zip(cells, spacings) if n > 1]
        poincare = 1.0 / min(lam1) if lam1 and min(lam1) > 0.0 else math.inf
        if lam1 and poincare == math.inf:
            raise InvalidArgument(
                f"axis lengths {domain.lengths} over {cells} cells give a discrete "
                "Poincare constant that is not finite"
            )
        return cls(domain=domain, cells=cells, spacings=spacings, cell_volume=cell_volume,
                   poincare_constant=poincare)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacings[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h


@dataclass(frozen=True, init=False, eq=False)
class SpeciesFields:
    """Cell-averaged concentrations of the three species, finite and
    strictly positive, held as one read-only (3, *cells) stack whose rows
    are a, b and c.

    The constructor copies a, b and c into a new stack; from_stack wraps
    an existing stack as a read-only view, which shares memory with it, so
    its owner must leave it unchanged.  Either way the stack is checked
    once, by one finiteness and one positivity reduction over all three
    rows; the error of a failed check names the first offending species.
    Attributes cannot be reassigned and the arrays cannot be written
    through the instance.  Functionals of a SpeciesFields do not check it
    again.
    """

    stack: np.ndarray

    def __init__(self, a, b, c):
        fields = [np.asarray(u, dtype=float) for u in (a, b, c)]
        if not (fields[0].shape == fields[1].shape == fields[2].shape):
            raise InvalidArgument("species fields must share one grid shape")
        _hold(self, np.stack(fields))

    @classmethod
    def from_stack(cls, u) -> "SpeciesFields":
        """The fields of the rows of a (3, *cells) stack, without copying it."""
        u = np.asarray(u, dtype=float)
        if u.shape[:1] != (3,):
            raise InvalidArgument(f"a species stack has shape (3, *cells), got {u.shape}")
        fields = cls.__new__(cls)
        _hold(fields, u.view())
        return fields

    @classmethod
    def uniform(cls, grid: Grid, a: float, b: float, c: float) -> "SpeciesFields":
        u = np.empty((3,) + grid.cells)
        u[0], u[1], u[2] = a, b, c
        return cls.from_stack(u)

    @property
    def a(self) -> np.ndarray:
        return self.stack[0]

    @property
    def b(self) -> np.ndarray:
        return self.stack[1]

    @property
    def c(self) -> np.ndarray:
        return self.stack[2]

    def species(self):
        """The fields a, b and c, in that order."""
        return tuple(self.stack)


def _hold(fields: SpeciesFields, u: np.ndarray) -> None:
    """Check the stack u (a view or array the instance owns) and store it
    read-only as fields.stack.

    min > 0 fails for a zero, a negative entry or NaN, and max < inf for
    +inf or NaN, so together they pass exactly the finite, strictly
    positive stacks; only on failure are the rows checked one by one, to
    name the first offending species.
    """
    if not (u.min() > 0.0 and u.max() < math.inf):
        for name, row in zip("abc", u):
            if not np.all(np.isfinite(row)):
                raise InvalidField(f"field {name} contains non-finite entries")
            if np.any(row <= 0.0):
                raise NotPositive(f"field {name} must be strictly positive")
    u.flags.writeable = False
    object.__setattr__(fields, "stack", u)


def neumann_eigenvalues(n: int, h: float) -> np.ndarray:
    """Eigenvalues of minus the discrete Neumann Laplacian on one axis of
    n cells of width h, in mode order k = 0..n-1.

    Mode k carries (4/h^2) sin^2(k pi / (2 n)); the cosine modes
    cos(k pi (i+1/2)/n) are its eigenvectors exactly, so this is also the
    Rayleigh quotient dirichlet_energy(m) / integrate(m * m) of mode k.
    On a box the modes are products over the axes and their eigenvalues
    add.
    """
    return _eigenvalue(np.arange(n), n, h)


def _eigenvalue(k, n: int, h: float):
    """(4/h^2) sin^2(k pi / (2 n)), for one mode k or an array of modes."""
    return (4.0 / (h * h)) * np.sin(0.5 * np.pi * k / n) ** 2


def integrate(u, grid: Grid) -> float:
    """Midpoint-rule integral: cell_volume times the sum of cell values."""
    u = np.asarray(u, dtype=float)
    return grid.cell_volume * float(np.sum(u))


def row_integrals(u, grid: Grid) -> list[float]:
    """integrate over each row of a stack u of shape (k, *cells), as
    Python floats.

    Each row is summed over its trailing axes flattened, which for a
    C-contiguous stack is the order np.sum takes over that row alone, so
    entry i equals integrate(u[i], grid) bit for bit.
    """
    u = np.asarray(u, dtype=float)
    return [grid.cell_volume * s for s in u.reshape(len(u), -1).sum(axis=-1).tolist()]


def lp_norm(u, p: float, grid: Grid) -> float:
    """Lebesgue norm (cell_volume * sum |u|**p)**(1/p), for finite p >= 1."""
    return lp_norms(np.asarray(u, dtype=float)[None], p, grid)[0]


def lp_norms(u, p: float, grid: Grid) -> list[float]:
    """lp_norm of each row of a stack u of shape (k, *cells)."""
    p = float(p)
    return [s ** (1.0 / p) for s in row_integrals(np.abs(u) ** p, grid)]


def dirichlet_energy(u, grid: Grid) -> float:
    """Face-based discrete Dirichlet energy sum_faces area*h*((u_R-u_L)/h)**2.

    With uniform cells, area*h equals the cell volume, so each interior face
    contributes cell_volume * (du/h)**2.  Zero-flux boundary faces contribute
    nothing.
    """
    return dirichlet_energies(np.asarray(u, dtype=float)[None], grid)[0]


def dirichlet_energies(u, grid: Grid) -> list[float]:
    """dirichlet_energy of each row of a stack u of shape (k, *cells)."""
    u = np.asarray(u, dtype=float)
    total = [0.0] * len(u)
    for ax, h in enumerate(grid.spacings, start=1):
        if u.shape[ax] == 1:
            continue
        d = np.diff(u, axis=ax)  # (u_R - u_L) per interior face, a new array
        d /= h
        d *= d
        total = [t + e for t, e in zip(total, row_integrals(d, grid))]
        del d  # before the next axis allocates its own
    return total


def deviation_l2(u, grid: Grid) -> float:
    """L2 norm of u minus its volume average."""
    return deviations_l2(np.asarray(u, dtype=float)[None], grid)[0]


def deviations_l2(u, grid: Grid) -> list[float]:
    """deviation_l2 of each row of a stack u of shape (k, *cells)."""
    rows = np.asarray(u, dtype=float).reshape(len(u), -1)
    d = rows - (rows.sum(axis=-1) / rows.shape[1])[:, None]  # np.mean is sum / count
    d *= d
    return [math.sqrt(s) for s in row_integrals(d, grid)]
