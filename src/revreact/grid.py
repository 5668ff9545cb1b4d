"""Cell-centered finite volumes on boxes with Neumann boundaries.

Uniform spacing per axis; midpoint quadrature.  The flux-form Laplacian is
conservative by construction (zero-flux boundary faces), symmetric and
negative semidefinite with respect to the cell-volume weighted inner
product.

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
    "laplacian_neumann",
    "integrate",
    "lp_norm",
    "dirichlet_energy",
    "deviation_l2",
]


@dataclass(frozen=True)
class Grid:
    """Structured grid on a box: the DomainSpec it covers, cells per axis,
    spacings, and the (uniform) cell volume.

    The one geometry object: evaluators read the box (|Omega|, the
    Poincare constant, the dimension) from grid.domain, so a grid and a
    box that disagree cannot be passed together.  Build it with
    for_domain.
    """

    domain: DomainSpec
    cells: tuple[int, ...]
    spacings: tuple[float, ...]
    cell_volume: float

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
        return cls(domain=domain, cells=cells, spacings=spacings, cell_volume=cell_volume)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacings[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h


@dataclass(frozen=True)
class SpeciesFields:
    """Cell-averaged concentrations of the three species, finite and
    strictly positive.

    The constructor checks each field once and keeps a read-only view of
    it: attributes cannot be reassigned and the arrays cannot be written
    through the instance.  A view shares memory with the array passed in,
    which its owner must therefore leave unchanged.  Functionals of a
    SpeciesFields do not check it again.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c"):
            u = np.asarray(getattr(self, name), dtype=float).view()
            if not np.all(np.isfinite(u)):
                raise InvalidField(f"field {name} contains non-finite entries")
            if np.any(u <= 0.0):
                raise NotPositive(f"field {name} must be strictly positive")
            u.flags.writeable = False
            object.__setattr__(self, name, u)
        if not (self.a.shape == self.b.shape == self.c.shape):
            raise InvalidArgument("species fields must share one grid shape")

    @classmethod
    def uniform(cls, grid: Grid, a: float, b: float, c: float) -> "SpeciesFields":
        shape = grid.cells
        return cls(np.full(shape, a), np.full(shape, b), np.full(shape, c))

    def species(self):
        """The fields a, b and c, in that order."""
        return (self.a, self.b, self.c)


def laplacian_neumann(u, grid: Grid) -> np.ndarray:
    """Flux-form second-order Neumann Laplacian.

    Per cell: sum over faces of (neighbor - self)/h**2, boundary faces
    contributing zero flux.  The cell-volume weighted sum of the output
    vanishes identically (each interior face contributes +/- the same flux).
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    for ax, h in enumerate(grid.spacings):
        if u.shape[ax] == 1:
            continue
        flux = np.diff(u, axis=ax) / (h * h)  # (u_R - u_L)/h^2 per interior face
        lo = [slice(None)] * u.ndim
        hi = [slice(None)] * u.ndim
        lo[ax] = slice(0, -1)
        hi[ax] = slice(1, None)
        out[tuple(lo)] += flux
        out[tuple(hi)] -= flux
    return out


def integrate(u, grid: Grid) -> float:
    """Midpoint-rule integral: cell_volume times the sum of cell values."""
    u = np.asarray(u, dtype=float)
    return grid.cell_volume * float(np.sum(u))


def lp_norm(u, p: float, grid: Grid) -> float:
    """Lebesgue norm (cell_volume * sum |u|**p)**(1/p), for finite p >= 1."""
    u = np.asarray(u, dtype=float)
    p = float(p)
    return float((grid.cell_volume * np.sum(np.abs(u) ** p)) ** (1.0 / p))


def dirichlet_energy(u, grid: Grid) -> float:
    """Face-based discrete Dirichlet energy sum_faces area*h*((u_R-u_L)/h)**2.

    With uniform cells, area*h equals the cell volume, so each interior face
    contributes cell_volume * (du/h)**2.  Zero-flux boundary faces contribute
    nothing.
    """
    u = np.asarray(u, dtype=float)
    total = 0.0
    for ax, h in enumerate(grid.spacings):
        if u.shape[ax] == 1:
            continue
        d = np.diff(u, axis=ax) / h
        total += grid.cell_volume * float(np.sum(d * d))
    return total


def deviation_l2(u, grid: Grid) -> float:
    """L2 norm of u minus its volume average."""
    u = np.asarray(u, dtype=float)
    d = u - np.mean(u)
    return float(np.sqrt(grid.cell_volume * np.sum(d * d)))
