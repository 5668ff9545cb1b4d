"""Box domains and cell-centered finite volumes on them, with Neumann
boundaries.

A Grid is a box, its axis lengths and volume, with a uniform spacing of
cells per axis; Grid.box(lengths, cells) builds it, and its dimension
is len(grid.cells).
Each reduction over the cells (integrate, the midpoint rule, lp_norm,
dirichlet_energy, deviation_l2) is one function: a Python float for a
field of shape grid.cells, one value per field for a stack (..., *cells).

The discrete Neumann Laplacian L is the one whose form -<Lu, u> in the
cell-volume weighted inner product is dirichlet_energy(u), summed over
the interior faces (zero-flux boundary faces contribute nothing).  On one
axis its eigenvectors are the cosine modes and its eigenvalues
neumann_eigenvalues; the solver applies its exact heat flow from those,
so nothing in the package evaluates L itself.

positive_stacks is the one rule that a state is finite and strictly
positive; SpeciesFields and run's check of a block of record states both
apply it.  The grid operators do not check their input: on non-finite data
they return non-finite results, which the caller that records them checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import InvalidArgument, InvalidState

__all__ = [
    "Grid",
    "DIMENSIONS",
    "check_dimension",
    "SpeciesFields",
    "positive_stacks",
    "neumann_eigenvalues",
    "integrate",
    "lp_norm",
    "dirichlet_energy",
    "deviation_l2",
]


@dataclass(frozen=True)
class Grid:
    """Structured grid on a box: cells per axis, the box's lengths and volume
    |Omega|, spacings, the (uniform) cell volume and the Poincare constant.

    The one geometry object: evaluators read the box (|Omega|, the
    dimension len(cells)) from the grid, so a grid and a box that
    disagree cannot be passed together.  Build it with Grid.box.

    poincare_constant is the sharp constant P of the discrete
    Poincare-Wirtinger inequality deviation_l2(u)**2 <= P *
    dirichlet_energy(u): 1 / lambda_1, where lambda_1 is the smallest
    nonzero eigenvalue (4/h**2) sin**2(pi/(2n)) of minus the Neumann
    Laplacian over the axes of at least 2 cells, attained by the lowest
    cosine mode of the slowest axis.  It exceeds the continuous box
    constant (L_max/pi)**2 by a factor of about 1 + pi**2/(12 n**2).  On
    a grid of single cells every deviation vanishes and it is inf.
    """

    cells: tuple[int, ...]
    lengths: tuple[float, ...]
    volume: float
    spacings: tuple[float, ...]
    cell_volume: float
    poincare_constant: float

    @classmethod
    def box(cls, lengths, cells) -> "Grid":
        """The grid of cells[i] cells along axis i of the box with the given
        axis lengths.  The lengths are checked first, then the cells."""
        lengths = tuple(float(x) for x in np.atleast_1d(lengths))
        dim = check_dimension(len(lengths))
        if any(not math.isfinite(x) or x <= 0.0 for x in lengths):
            raise InvalidArgument(f"axis lengths must be positive, got {lengths}")
        volume = math.prod(lengths)
        if not 0.0 < volume < math.inf:
            raise InvalidArgument(
                f"axis lengths {lengths} give a volume that is not finite and positive"
            )
        cells = tuple(int(n) for n in np.atleast_1d(cells))
        if len(cells) != dim:
            raise InvalidArgument(f"need {dim} cell counts, got {len(cells)}")
        if any(n < 1 for n in cells):
            raise InvalidArgument(f"cells per axis must be positive, got {cells}")
        spacings = tuple(L / n for L, n in zip(lengths, cells))
        cell_volume = math.prod(spacings)
        # h * h > 0 is tested first: 4 / (h * h), the scale of the axis
        # eigenvalues, raises ZeroDivisionError when h * h underflows to 0
        if not (cell_volume > 0.0
                and all(h * h > 0.0 and 4.0 / (h * h) < math.inf for h in spacings)):
            raise InvalidArgument(
                f"axis lengths {lengths} over {cells} cells give spacings "
                f"{spacings} whose cell volume or 4/h^2 is not finite and positive"
            )
        # the smallest nonzero eigenvalue of each axis of at least 2 cells
        lam1 = [float(_eigenvalue(1, n, h)) for n, h in zip(cells, spacings) if n > 1]
        poincare = 1.0 / min(lam1) if lam1 and min(lam1) > 0.0 else math.inf
        if lam1 and poincare == math.inf:
            raise InvalidArgument(
                f"axis lengths {lengths} over {cells} cells give a discrete "
                "Poincare constant that is not finite"
            )
        return cls(cells=cells, lengths=lengths, volume=volume, spacings=spacings,
                   cell_volume=cell_volume, poincare_constant=poincare)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacings[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h


#: the numbers of axes a box may have
DIMENSIONS = (1, 2, 3)


def check_dimension(dim: int) -> int:
    """dim, the number of axes of a box; InvalidArgument unless in DIMENSIONS."""
    if dim not in DIMENSIONS:
        raise InvalidArgument(f"dimension must be 1, 2 or 3, got {dim}")
    return dim


@dataclass(frozen=True, init=False, eq=False)
class SpeciesFields:
    """Cell-averaged concentrations of the three species, finite and
    strictly positive, held as one read-only (3, *cells) stack whose rows
    are a, b and c.

    The constructor copies a, b and c into a new stack; from_stack wraps
    an existing stack as a read-only view, which shares memory with it, so
    its owner must leave it unchanged.  Either way the stack is checked
    once, by positive_stacks; the error of a failed check names the first
    offending species.
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
    """Check the stack u (a view or array the instance owns) by
    positive_stacks and store it read-only as fields.stack; only on failure
    are the rows checked one by one, to name the first offending species."""
    if not positive_stacks(u):
        for name, row in zip("abc", u):
            if not np.all(np.isfinite(row)):
                raise InvalidState(f"field {name} contains non-finite entries")
            if np.any(row <= 0.0):
                raise InvalidState(f"field {name} must be strictly positive")
    u.flags.writeable = False
    object.__setattr__(fields, "stack", u)


def positive_stacks(u: np.ndarray, lead: int = 0):
    """Whether each (3, *cells) stack of the (*leading, 3, *cells) array u,
    with lead leading axes, is finite and strictly positive, as a bool array
    of the leading shape: min > 0 fails for a zero, a negative entry or
    NaN, and max < inf for +inf or NaN."""
    stack = tuple(range(lead, u.ndim))
    return (u.min(axis=stack) > 0.0) & (u.max(axis=stack) < math.inf)


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


def _leading(u: np.ndarray, grid: Grid) -> tuple[int, ...]:
    """The shape of u before its trailing len(grid.cells) cell axes."""
    return u.shape[:u.ndim - len(grid.cells)]


def _per_field(values: np.ndarray):
    """A Python float for the 0-d value of a single field, else the array
    of one value per field of a stack."""
    return values if values.ndim else float(values)


def integrate(u, grid: Grid):
    """Midpoint-rule integral, cell_volume times the sum of cell values, of
    a field u of shape grid.cells, or of each field of a stack u of shape
    (..., *cells).

    Each field is summed over its cell axes flattened, which for a
    C-contiguous stack is the order np.sum takes over that field alone, so
    entry i of a stack equals integrate(u[i], grid) bit for bit.
    """
    u = np.asarray(u, dtype=float)
    sums = np.add.reduce(u.reshape(_leading(u, grid) + (-1,)), axis=-1)
    return _per_field(grid.cell_volume * sums)


def lp_norm(u, p: float, grid: Grid):
    """Lebesgue norm (cell_volume * sum |u|**p)**(1/p), for finite p >= 1,
    of a field u or of each field of a stack u of shape (..., *cells).

    The root s**(1/p) is Python's pow, one value at a time: np.power
    rounds differently from the C library's pow on some inputs, and the
    fields of a block must equal the fields of one snapshot.
    """
    p = float(p)
    powers = np.abs(u)
    powers **= p  # in place: the fast paths of ** apply to **= as well
    sums = np.asarray(integrate(powers, grid))
    roots = [s ** (1.0 / p) for s in sums.ravel().tolist()]
    return _per_field(np.array(roots).reshape(sums.shape))


def dirichlet_energy(u, grid: Grid):
    """Face-based discrete Dirichlet energy sum_faces area*h*((u_R-u_L)/h)**2
    of a field u or of each field of a stack u of shape (..., *cells).

    With uniform cells, area*h equals the cell volume, so each interior face
    contributes cell_volume * (du/h)**2.  Zero-flux boundary faces contribute
    nothing.
    """
    u = np.asarray(u, dtype=float)
    lead = _leading(u, grid)
    total = np.zeros(lead)
    for ax, h in enumerate(grid.spacings, start=len(lead)):
        if u.shape[ax] == 1:
            continue
        d = np.diff(u, axis=ax)  # (u_R - u_L) per interior face, a new array
        d /= h
        d *= d
        total += integrate(d, grid)
        del d  # before the next axis allocates its own
    return _per_field(total)


def deviation_l2(u, grid: Grid):
    """L2 norm of u minus its volume average, for a field u or for each
    field of a stack u of shape (..., *cells)."""
    u = np.asarray(u, dtype=float)
    lead = _leading(u, grid)
    n = math.prod(grid.cells)
    mean = u.reshape(lead + (-1,)).sum(axis=-1) / n  # np.mean is sum / count
    d = u - mean.reshape(lead + (1,) * len(grid.cells))
    d *= d
    return _per_field(np.sqrt(integrate(d, grid)))  # correctly rounded, as math.sqrt is
