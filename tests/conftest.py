"""Shared fixtures: cached preset runs, seeded random fields and the exact
diffusion reference."""
import math
import time

import numpy as np
import pytest
import scipy.linalg

from revreact.cli import build_domain, build_initial, parse_config
from revreact.grid import laplacian_neumann
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
        self.domain, self.grid = build_domain(cfg)
        self.params = ModelParams(cfg.d_a, cfg.d_b, cfg.d_c)
        self.initial = build_initial(cfg, self.grid, self.domain)
        solver_cfg = SolverConfig(cfg.dt, cfg.t_end, cfg.record_every)
        started = time.perf_counter()
        self.trajectory = run(self.initial, self.params, self.grid, solver_cfg)
        self.wall_time = time.perf_counter() - started

    def column(self, name):
        """The recorded values of one CSV column, one per sample."""
        return np.array([s[name] for s in self.trajectory.samples])


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


def box_poincare_constant(lengths):
    """The continuous Neumann Poincare-Wirtinger constant (L_max/pi)**2 of a
    box, below the grid's discrete constant: a stricter reference for the
    dissipation bound on data away from the lowest mode."""
    return (max(lengths) / math.pi) ** 2


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
