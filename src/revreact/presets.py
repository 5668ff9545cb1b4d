"""Shipped run configurations.

The three standard 1D presets share the grid (128 cells on the unit
interval), dt = 1e-3, t_end = 50 and record spacing 0.1.  The cosine bump
uses the first even Neumann harmonic cos(2 pi x / L) with the third
species at pointwise reaction equilibrium, so the initial data are
reflection-symmetric about the box midpoint and carry no reaction-defect
excess.  The non-degenerate preset runs with slow diffusivities, keeping
the relative-entropy decay rate low enough for the central-difference
entropy-balance audit to resolve at the pinned record spacing.

The 2D and 3D presets are anisotropic boxes with the bump along the long
(finest) axis; the remaining axes start uniform.
"""
from __future__ import annotations

from .errors import ConfigError

__all__ = ["PRESETS", "preset_text", "preset_names"]


def _config(dim, cells, lengths, d_a, d_b, d_c, init, dt, t_end,
            record_every, out_dir, seed=1):
    lines = [
        f"dim={dim}",
        "cells=" + " ".join(str(n) for n in cells),
        "lengths=" + " ".join(repr(float(x)) for x in lengths),
        f"d_a={d_a!r}",
        f"d_b={d_b!r}",
        f"d_c={d_c!r}",
        f"init={init}",
        f"dt={dt!r}",
        f"t_end={t_end!r}",
        f"record_every={record_every}",
        f"out_dir={out_dir}",
        f"seed={seed}",
    ]
    return "\n".join(lines) + "\n"


PRESETS = {
    # standard 1D presets: one per diffusivity mode
    "full_1d": _config(
        1, [128], [1.0], 0.01, 0.01, 0.01,
        "cosine_bump 0.5", 1e-3, 50.0, 100, "out/full_1d",
    ),
    "db0_1d": _config(
        1, [128], [1.0], 1.0, 0.0, 1.0,
        "cosine_bump 0.5", 1e-3, 50.0, 100, "out/db0_1d",
    ),
    "dc0_1d": _config(
        1, [128], [1.0], 1.0, 1.0, 0.0,
        "cosine_bump 0.5", 1e-3, 50.0, 100, "out/dc0_1d",
    ),
    # degenerate 2D presets on an anisotropic box
    "db0_2d": _config(
        2, [64, 24], [1.0, 0.45], 1.0, 0.0, 1.0,
        "cosine_bump 0.5", 1e-3, 12.0, 100, "out/db0_2d",
    ),
    "dc0_2d": _config(
        2, [64, 24], [1.0, 0.45], 1.0, 1.0, 0.0,
        "cosine_bump 0.5", 1e-3, 12.0, 100, "out/dc0_2d",
    ),
    # coarse 3D degenerate-c preset
    "dc0_3d": _config(
        3, [48, 12, 12], [1.0, 0.4, 0.4], 1.0, 1.0, 0.0,
        "cosine_bump 0.5", 2e-3, 6.0, 50, "out/dc0_3d",
    ),
    # uniform data reduce the PDE to the reaction ODE (oracle comparisons)
    "uniform_ode": _config(
        1, [16], [1.0], 1.0, 0.5, 0.8,
        "uniform 2.0 1.0 0.01", 1e-3, 5.0, 100, "out/uniform_ode",
    ),
}


def preset_names():
    return sorted(PRESETS)


def preset_text(name: str) -> str:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {', '.join(preset_names())}"
        )
    return PRESETS[name]
