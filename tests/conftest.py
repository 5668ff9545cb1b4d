"""Shared fixtures: cached preset runs and seeded random fields."""
import time

import numpy as np
import pytest

from revreact.cli import build_domain, build_initial, parse_config
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
