"""Simulation and verification toolkit for the reversible reaction-diffusion
system A + B <-> C on boxes, with possibly degenerate diffusion.

Subpackages follow the pipeline: grid (box domains, finite volumes and
their quadrature), model (diffusivities and equilibrium algebra), solver (Strang splitting), functionals
(entropy / dissipation / inequality checks), analysis (decay-envelope fits
and audits), oracle (independent references: the RK4 reaction ODE and a
brute-force functional sampler, for the tests and verify), cli (batch
front end).
"""

__version__ = "0.1.0"
