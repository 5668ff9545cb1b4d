"""Shared fixtures: cached preset runs, seeded random fields, the exact
diffusion reference and the references it and the reaction tests rest on:
the flux-form Neumann Laplacian and the roots of the reaction's Riccati
equation."""
import math
import time

import numpy as np
import pytest
import scipy.linalg

from revreact.cli import build_initial, parse_config
from revreact.grid import Grid
from revreact.model import ModelParams
from revreact.presets import PRESETS
from revreact.solver import SolverConfig, run


class PresetRun:
    """One executed preset: configuration, geometry, trajectory, wall time."""

    def __init__(self, name, overrides=None):
        text = PRESETS[name]
        cfg = parse_config(text)
        if overrides:
            from dataclasses import replace

            cfg = replace(cfg, **overrides)
        self.name = name
        self.cfg = cfg
        self.grid = Grid.box(cfg.lengths, cfg.cells)
        self.params = ModelParams(cfg.d_a, cfg.d_b, cfg.d_c)
        self.initial = build_initial(cfg, self.grid, self.grid.domain)
        solver_cfg = SolverConfig(cfg.dt, cfg.t_end, cfg.record_every)
        started = time.perf_counter()
        self.trajectory = run(self.initial, self.params, self.grid, solver_cfg)
        self.wall_time = time.perf_counter() - started

    def column(self, name):
        """The recorded values of one CSV column, one per sample."""
        return self.trajectory.columns[name]


_CACHE = {}


@pytest.fixture(scope="session")
def preset_run():
    """Factory returning cached full preset executions."""

    def factory(name, **overrides):
        key = (name, tuple(sorted(overrides.items())))
        if key not in _CACHE:
            _CACHE[key] = PresetRun(name, overrides or None)
        return _CACHE[key]

    return factory


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_fields(rng, grid, lo=0.2, hi=3.0):
    from revreact.grid import SpeciesFields

    return SpeciesFields(
        rng.uniform(lo, hi, size=grid.cells),
        rng.uniform(lo, hi, size=grid.cells),
        rng.uniform(lo, hi, size=grid.cells),
    )


def envelope_bounds(fit, t, e_rel, slack=1e-9):
    """Whether the fitted envelope S1*exp(-S2*(1+t)**alpha), times 1 + slack,
    bounds every sample of E_rel above the fit floor."""
    from revreact.analysis import FIT_FLOOR

    t = np.asarray(t)
    e_rel = np.asarray(e_rel)
    keep = e_rel > FIT_FLOOR
    bound = fit.S1 * np.exp(-fit.S2 * (1.0 + t[keep]) ** fit.alpha)
    return bool(np.all(e_rel[keep] <= bound * (1.0 + slack)))


def box_poincare_constant(lengths):
    """The continuous Neumann Poincare-Wirtinger constant (L_max/pi)**2 of a
    box, below the grid's discrete constant: a stricter reference for the
    dissipation bound on data away from the lowest mode."""
    return (max(lengths) / math.pi) ** 2


def laplacian_neumann(u, grid):
    """Flux-form second-order Neumann Laplacian.

    Per cell: sum over faces of (neighbor - self)/h**2, boundary faces
    contributing zero flux.  The cell-volume weighted sum of the output
    vanishes identically (each interior face contributes +/- the same flux).
    Its eigenvalues on one axis are minus grid.neumann_eigenvalues.
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


def riccati_roots(m1, m2):
    """Roots r1 <= r2 of c**2 - (1+m1+m2)c + m1*m2 (vectorized), with
    sq = r2 - r1, by the expressions the solver's reaction substep rounds as.

    r1 is the pointwise reaction equilibrium; the flow dc/dt = (c-r1)(c-r2)
    relaxes c toward r1.  Always real: the discriminant equals
    1 + 2(m1+m2) + (m1-m2)**2 > 0.
    """
    s = 1.0 + m1 + m2
    sq = np.sqrt(1.0 + 2.0 * (m1 + m2) + (m1 - m2) ** 2)
    r2 = 0.5 * (s + sq)
    r1 = m1 * m2 / r2
    return r1, r2, sq


def neumann_matrix(grid):
    """The dense matrix of L = laplacian_neumann, assembled column by
    column from its action on the unit fields; only for grids of a few
    hundred cells."""
    n = math.prod(grid.cells)
    unit = np.eye(n).reshape((n,) + grid.cells)
    return np.stack([laplacian_neumann(e, grid).ravel() for e in unit], axis=1)


def exact_flow(u, d, tau, grid):
    """exp(tau d L) u for the field u, by scipy.linalg.expm of the dense
    matrix of L.

    It shares no code with the heat kernels or the cosine transforms of
    the semigroup it checks.
    """
    lap = neumann_matrix(grid)
    return (scipy.linalg.expm(tau * d * lap) @ np.ravel(u)).reshape(np.shape(u))


def backward_euler(u, d, dt, grid):
    """One backward-Euler step (I - dt d L)^{-1} u, by a dense solve."""
    lap = neumann_matrix(grid)
    m = np.eye(lap.shape[0]) - dt * d * lap
    return np.linalg.solve(m, np.ravel(u)).reshape(np.shape(u))


def inequality_rows_per_field(rng, grid, modes):
    """The rows (E_rel, ckp_lhs, D, rhs, M1, M2) of verify's inequality
    ensemble as one loop computes them, field by field: a, b and c drawn
    one after another, each field checked by SpeciesFields and sampled
    alone against the equilibrium of its own masses, in mode i % 3."""
    from revreact.functionals import dissipation_bound_rhs, sample
    from revreact.grid import SpeciesFields
    from revreact.model import conserved_masses, equilibrium_state

    rows = np.empty((1000, 6))
    for i in range(1000):
        f = SpeciesFields(*(rng.uniform(0.2, 3.0, size=grid.cells) for _ in range(3)))
        eq = equilibrium_state(*conserved_masses(f, grid))
        params = modes[i % 3]
        s = sample(f, 0.0, eq, params, grid)
        rhs = dissipation_bound_rhs((s["dev_A2"], s["dev_B2"], s["dev_C2"]), s["abc_defect"],
                                    params, grid.poincare_constant)
        rows[i] = s["E_rel"], s["ckp_lhs"], s["D"], rhs, s["M1"], s["M2"]
    return rows


def reference_read_timeseries(path):
    """timeseries.csv read as one text, split by str.splitlines and parsed
    line by line with float(): the reference that cli.read_timeseries,
    which reads a block of lines at a time, must agree with, in the arrays
    it returns and in the error, message and line number it raises."""
    from revreact.cli import CSV_HEADER
    from revreact.errors import IoError, ParseError
    from revreact.functionals import CSV_COLUMNS

    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8 text: {exc}")
    except OSError as exc:
        raise IoError(f"cannot read CSV {path!r}: {exc}")
    if not lines:
        raise ParseError("empty CSV", line=1)
    if lines[0] != CSV_HEADER:
        raise ParseError(f"unexpected header {lines[0]!r}", line=1)
    if len(lines) == 1:
        raise ParseError("CSV has no data rows", line=1)
    data = np.empty((len(lines) - 1, len(CSV_COLUMNS)))
    for i in range(1, len(lines)):
        toks = lines[i].split(",")
        if len(toks) != len(CSV_COLUMNS):
            raise ParseError(
                f"expected {len(CSV_COLUMNS)} columns, got {len(toks)}: {lines[i]!r}", line=i + 1
            )
        try:
            data[i - 1] = [float(t) for t in toks]
        except ValueError:
            raise ParseError(f"malformed number in {lines[i]!r}", line=i + 1)
    bad = np.flatnonzero(~np.all(np.isfinite(data), axis=1))
    if bad.size:
        raise ParseError(f"non-finite value in {lines[bad[0] + 1]!r}", line=int(bad[0]) + 2)
    return {name: data[:, j] for j, name in enumerate(CSV_COLUMNS)}
