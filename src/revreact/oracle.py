"""Independent reference solutions used by the test-suite and `verify`.

The homogeneous oracle integrates the spatially uniform reaction ODE with
classical RK4 and also carries the closed-form solution, so the two can be
cross-validated against each other and against the PDE solver.  The
backward-Euler diffusion step, solved matrix-free by conjugate gradients,
is the reference the exact diffusion semigroup is compared against.  The
brute-force sampler re-implements every recorded functional with plain
Python loops and math.fsum, sharing no code path with the production
functionals module.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import InvalidArgument, LinSolveFailure, NotPositive
from .functionals import RunningIntegrals
from .grid import Grid, laplacian_neumann

__all__ = [
    "OdeState",
    "homogeneous_ode",
    "reaction_closed_form",
    "diffusion_substep",
    "brute_force_sample",
]


@dataclass(frozen=True)
class OdeState:
    a: float
    b: float
    c: float
    t: float


def _rhs(a, b, c):
    w = c - a * b
    return w, w, -w


def homogeneous_ode(a0: float, b0: float, c0: float, t_end: float,
                    substeps: int) -> OdeState:
    """RK4 integration of a' = c - ab, b' = c - ab, c' = ab - c.

    Fixed step t_end / substeps.  Raises StepTooLarge-style InvalidArgument
    if the state leaves the positive orthant by more than 1e-12.
    """
    if substeps < 1:
        raise InvalidArgument("substeps must be >= 1")
    if min(a0, b0, c0) <= 0.0:
        raise NotPositive("oracle initial state must be strictly positive")
    h = t_end / substeps
    a, b, c = float(a0), float(b0), float(c0)
    scale = max(a, b, c, 1.0)
    for _ in range(substeps):
        k1 = _rhs(a, b, c)
        k2 = _rhs(a + 0.5 * h * k1[0], b + 0.5 * h * k1[1], c + 0.5 * h * k1[2])
        k3 = _rhs(a + 0.5 * h * k2[0], b + 0.5 * h * k2[1], c + 0.5 * h * k2[2])
        k4 = _rhs(a + h * k3[0], b + h * k3[1], c + h * k3[2])
        a += (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        b += (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        c += (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        if min(a, b, c) < -1e-12 * scale:
            raise InvalidArgument(
                f"RK4 step too large: state left the positive orthant at ({a}, {b}, {c})"
            )
    return OdeState(a=a, b=b, c=c, t=t_end)


def reaction_closed_form(a0: float, b0: float, c0: float, dt: float):
    """Closed-form reaction flow for one uniform cell (scalar arithmetic).

    Mirrors the solver's factorized Riccati formulas but in plain floats,
    for cross-validation.
    """
    m1 = a0 + c0
    m2 = b0 + c0
    s = 1.0 + m1 + m2
    sq = math.sqrt(1.0 + 2.0 * (m1 + m2) + (m1 - m2) ** 2)
    r2 = 0.5 * (s + sq)
    r1 = m1 * m2 / r2
    if abs(c0 - r1) < 1e-15 * r2:
        return a0, b0, c0
    u = (c0 - r1) / (c0 - r2) * math.exp(-sq * dt)
    c = (r1 - r2 * u) / (1.0 - u)
    return m1 - c, m2 - c, c


def _cg(apply_a, b, x0, tol, max_iter):
    """Conjugate gradients for an SPD operator, matrix-free.

    Iterates until ||b - A x||_2 <= tol * ||b||_2; deterministic reduction
    order (single-threaded numpy sums).
    """
    x = x0.copy()
    r = b - apply_a(x)
    bnorm = math.sqrt(float(np.sum(b * b)))
    if bnorm == 0.0:
        return np.zeros_like(b)
    p = r.copy()
    rs = float(np.sum(r * r))
    for _ in range(max_iter):
        if math.sqrt(rs) <= tol * bnorm:
            return x
        ap = apply_a(p)
        alpha = rs / float(np.sum(p * ap))
        x += alpha * p
        r -= alpha * ap
        rs_new = float(np.sum(r * r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    if math.sqrt(rs) <= tol * bnorm:
        return x
    raise LinSolveFailure(
        f"CG did not reach relative residual {tol:g} in {max_iter} iterations"
    )


def diffusion_substep(u, d: float, dt: float, grid: Grid, tol: float = 1e-12,
                      max_iter: int = 50_000):
    """Backward-Euler diffusion step: solve (I - dt*d*L) v = u.

    Identity for d = 0.  The system matrix is a symmetric M-matrix, so the
    solution conserves the cell-volume weighted sum (up to the relative
    residual tol) and preserves positivity.  Raises LinSolveFailure when
    conjugate gradients miss tol within max_iter iterations.
    """
    u = np.asarray(u, dtype=float)
    if d < 0.0:
        raise InvalidArgument("diffusivity must be nonnegative")
    if d == 0.0:
        return u.copy()

    def apply_a(v):
        return v - dt * d * laplacian_neumann(v, grid)

    return _cg(apply_a, u, u, tol, max_iter)


def brute_force_sample(fields, t: float, eq, params, domain, grid,
                       running: RunningIntegrals | None = None) -> dict:
    """Naive re-evaluation of every recorded functional (test oracle).

    Same contract as functionals.sample, computed with per-cell Python
    loops, math.fsum reductions, and the direct textbook formulas.
    """
    a = fields.a.ravel()
    b = fields.b.ravel()
    c = fields.c.ravel()
    vol = grid.cell_volume
    n = a.size

    def h(u, ref):
        return u * math.log(u / ref) - u + ref

    ent = vol * math.fsum(h(a[i], 1.0) + h(b[i], 1.0) + h(c[i], 1.0) for i in range(n))
    e_rel = vol * math.fsum(
        h(a[i], eq.a_inf) + h(b[i], eq.b_inf) + h(c[i], eq.c_inf) for i in range(n)
    )

    def react(i):
        x = a[i] * b[i]
        y = c[i]
        if abs(x - y) < 1e-15 * max(x, y):
            return 0.0
        return (x - y) * math.log(x / y)

    diss = vol * math.fsum(react(i) for i in range(n))
    diss += 4.0 * params.d_a * _loop_dirichlet(fields.a, grid, sqrt=True)
    if params.d_b > 0.0:
        diss += 4.0 * params.d_b * _loop_dirichlet(fields.b, grid, sqrt=True)
    if params.d_c > 0.0:
        diss += 4.0 * params.d_c * _loop_dirichlet(fields.c, grid, sqrt=True)

    m1 = vol * math.fsum(a[i] + c[i] for i in range(n)) / domain.volume
    m2 = vol * math.fsum(b[i] + c[i] for i in range(n)) / domain.volume

    l1a = vol * math.fsum(abs(a[i] - eq.a_inf) for i in range(n))
    l1b = vol * math.fsum(abs(b[i] - eq.b_inf) for i in range(n))
    l1c = vol * math.fsum(abs(c[i] - eq.c_inf) for i in range(n))

    def sqrt_dev2(u):
        flat = [math.sqrt(v) for v in u.ravel()]
        mean = math.fsum(flat) / n
        return vol * math.fsum((v - mean) ** 2 for v in flat)

    abc = vol * math.fsum(
        (math.sqrt(a[i]) * math.sqrt(b[i]) - math.sqrt(c[i])) ** 2 for i in range(n)
    )

    kappa = (3.0 + 2.0 * math.sqrt(2.0)) / (9.0 + 2.0 * math.sqrt(2.0))
    ckp = kappa * domain.volume * (
        l1a * l1a / (2.0 * eq.M1)
        + l1b * l1b / (2.0 * eq.M2)
        + l1c * l1c / (eq.M1 + eq.M2)
    )

    def lp(u, p):
        if p == math.inf:
            return max(abs(v) for v in u.ravel())
        return (vol * math.fsum(abs(v) ** p for v in u.ravel())) ** (1.0 / p)

    fa = vol * math.fsum(a[i] * a[i] + a[i] * c[i] for i in range(n))
    fb = vol * math.fsum(b[i] * b[i] + b[i] * c[i] for i in range(n))
    if running is not None:
        running.update(t, fa, fb)
        int_a2ac, int_b2bc = running.int_a2ac, running.int_b2bc
    else:
        int_a2ac = int_b2bc = 0.0

    return {
        "t": t,
        "E": ent,
        "E_rel": e_rel,
        "D": diss,
        "M1": m1,
        "M2": m2,
        "l1_a": l1a,
        "l1_b": l1b,
        "l1_c": l1c,
        "dev_A2": sqrt_dev2(fields.a),
        "dev_B2": sqrt_dev2(fields.b),
        "dev_C2": sqrt_dev2(fields.c),
        "abc_defect": abc,
        "ckp_lhs": ckp,
        "b_l32": lp(fields.b, 1.5),
        "a_l32": lp(fields.a, 1.5),
        "b_lN2": lp(fields.b, max(1.0, domain.dimension / 2.0)),
        "c_l3": lp(fields.c, 3.0),
        "int_a2ac": int_a2ac,
        "int_b2bc": int_b2bc,
    }


def _loop_dirichlet(u, grid, sqrt=False):
    """Per-face Dirichlet energy by explicit loops (any dimension <= 3)."""
    w = np.sqrt(u) if sqrt else np.asarray(u, dtype=float)
    total = []
    vol = grid.cell_volume
    for ax, hax in enumerate(grid.spacings):
        nax = w.shape[ax]
        for i in range(nax - 1):
            left = np.take(w, i, axis=ax).ravel()
            right = np.take(w, i + 1, axis=ax).ravel()
            for lv, rv in zip(left, right):
                total.append(vol * ((rv - lv) / hax) ** 2)
    return math.fsum(total)
