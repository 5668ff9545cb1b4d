"""Cell-centered finite volumes on boxes with Neumann boundaries.

Uniform spacing per axis; midpoint quadrature.  The flux-form Laplacian is
conservative by construction (zero-flux boundary faces), symmetric and
negative semidefinite with respect to the cell-volume weighted inner
product.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import InvalidArgument, InvalidExponent, InvalidField, NotPositive
from .model import DomainSpec

__all__ = [
    "Grid",
    "SpeciesFields",
    "laplacian_neumann",
    "integrate",
    "lp_norm",
    "dirichlet_energy",
    "sqrt_gradient_energy",
    "deviation_l2",
]


@dataclass(frozen=True)
class Grid:
    """Structured grid: cells per axis, spacings, and the (uniform) cell volume."""

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
        return cls(cells=cells, spacings=spacings, cell_volume=math.prod(spacings))

    @property
    def n_cells(self) -> int:
        return math.prod(self.cells)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacings[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def mesh(self):
        """Cell-center coordinate arrays, one per axis, broadcastable to cells."""
        axes = [self.axis_coordinates(ax) for ax in range(len(self.cells))]
        return np.meshgrid(*axes, indexing="ij", sparse=True)


def _check_finite(u):
    if not np.all(np.isfinite(u)):
        raise InvalidField("field contains non-finite entries")


@dataclass
class SpeciesFields:
    """Cell-averaged concentrations of the three species (strictly positive)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        for name, u in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not np.all(np.isfinite(u)):
                raise InvalidField(f"field {name} contains non-finite entries")
            if np.any(u <= 0.0):
                raise NotPositive(f"field {name} must be strictly positive")
        if not (self.a.shape == self.b.shape == self.c.shape):
            raise InvalidArgument("species fields must share one grid shape")

    @classmethod
    def uniform(cls, grid: Grid, a: float, b: float, c: float) -> "SpeciesFields":
        shape = grid.cells
        return cls(np.full(shape, a), np.full(shape, b), np.full(shape, c))

    def species(self):
        return (("a", self.a), ("b", self.b), ("c", self.c))


def laplacian_neumann(u, grid: Grid) -> np.ndarray:
    """Flux-form second-order Neumann Laplacian.

    Per cell: sum over faces of (neighbor - self)/h**2, boundary faces
    contributing zero flux.  The cell-volume weighted sum of the output
    vanishes identically (each interior face contributes +/- the same flux).
    """
    u = np.asarray(u, dtype=float)
    _check_finite(u)
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
    _check_finite(u)
    return grid.cell_volume * float(np.sum(u))


def lp_norm(u, p, grid: Grid) -> float:
    """Lebesgue norm (cell_volume * sum |u|**p)**(1/p); max|u| for p = inf."""
    u = np.asarray(u, dtype=float)
    _check_finite(u)
    if p == np.inf or p == math.inf:
        return float(np.max(np.abs(u)))
    p = float(p)
    if p < 1.0:
        raise InvalidExponent(f"Lebesgue exponent must satisfy p >= 1, got {p}")
    return float((grid.cell_volume * np.sum(np.abs(u) ** p)) ** (1.0 / p))


def dirichlet_energy(u, grid: Grid) -> float:
    """Face-based discrete Dirichlet energy sum_faces area*h*((u_R-u_L)/h)**2.

    With uniform cells, area*h equals the cell volume, so each interior face
    contributes cell_volume * (du/h)**2.  Zero-flux boundary faces contribute
    nothing.
    """
    u = np.asarray(u, dtype=float)
    _check_finite(u)
    total = 0.0
    for ax, h in enumerate(grid.spacings):
        if u.shape[ax] == 1:
            continue
        d = np.diff(u, axis=ax) / h
        total += grid.cell_volume * float(np.sum(d * d))
    return total


def sqrt_gradient_energy(u, grid: Grid) -> float:
    """Discrete Dirichlet energy of sqrt(u); requires u > 0."""
    u = np.asarray(u, dtype=float)
    _check_finite(u)
    if np.any(u <= 0.0):
        raise NotPositive("sqrt_gradient_energy requires strictly positive input")
    return dirichlet_energy(np.sqrt(u), grid)


def deviation_l2(u, grid: Grid) -> float:
    """L2 norm of u minus its volume average."""
    u = np.asarray(u, dtype=float)
    _check_finite(u)
    d = u - np.mean(u)
    return float(np.sqrt(grid.cell_volume * np.sum(d * d)))
