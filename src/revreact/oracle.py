"""Independent reference solutions used by the test-suite and `verify`.

The homogeneous oracle integrates the spatially uniform reaction ODE with
classical RK4, one call advancing a whole array of initial states together
in numpy (bit-identical, member by member, to a plain-float loop over one
state); the solver's closed-form reaction substep and its runs from
uniform data are checked against it.  The brute-force sampler
re-implements every recorded functional with plain Python loops and
math.fsum, sharing no code path with the production functionals module:
of it, it takes only the RunningIntegrals accumulator, whose fields it
advances by its own trapezoid rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import InvalidArgument, InvalidState
from .functionals import RunningIntegrals

__all__ = [
    "OdeState",
    "homogeneous_ode",
    "brute_force_sample",
]


@dataclass(frozen=True)
class OdeState:
    """State at time t: Python floats for a scalar start, else arrays of its shape."""

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray
    t: float


def homogeneous_ode(a0, b0, c0, t_end: float, substeps: int) -> OdeState:
    """RK4 integration of a' = c - ab, b' = c - ab, c' = ab - c.

    a0, b0, c0 are scalars or arrays of one shape; each member (index) is
    an independent initial state, and all members are advanced together
    with the fixed step t_end / substeps.  The arithmetic is the plain-float
    RK4 loop's, operation for operation, so every member is bit-identical
    to integrating it alone.  A scalar start returns Python floats.

    Raises InvalidState if a member does not start strictly positive, and
    InvalidArgument (step too large) after the first substep in which a
    member leaves the positive orthant by more than 1e-12 * max(a, b, c, 1)
    of its own start or turns NaN; both name the first such member by its
    flat index.
    """
    if substeps < 1:
        raise InvalidArgument("substeps must be >= 1")
    shape = np.shape(a0)
    if not shape == np.shape(b0) == np.shape(c0):
        raise InvalidArgument(
            f"oracle states must share one shape, got {shape}, {np.shape(b0)}, {np.shape(c0)}"
        )
    start = np.array([a0, b0, c0], dtype=float).reshape(3, -1)
    positive = np.min(start, axis=0) > 0.0
    if not positive.all():
        i = int(np.argmin(positive))
        raise InvalidState(
            f"oracle initial state must be strictly positive, member {i} is "
            f"{tuple(start[:, i].tolist())}"
        )
    # the orthant tolerance of each member, -1e-12 * max(a0, b0, c0, 1)
    tol = -1e-12 * np.maximum(np.max(start, axis=0), 1.0)
    if shape:
        (a, b, c), tol, all_ = start.reshape(3, *shape), tol.reshape(shape), np.all
    else:
        # one state: Python floats run the same loop without numpy's per-scalar cost
        (a, b, c), tol, all_ = start[:, 0].tolist(), float(tol[0]), bool
    h = t_end / substeps
    half = 0.5 * h
    sixth = h / 6.0
    # each stage's rhs is (w, w, -w); c + half * (-w) is c - half * w exactly
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(substeps):
            w1 = c - a * b
            x = half * w1
            w2 = (c - x) - (a + x) * (b + x)
            x = half * w2
            w3 = (c - x) - (a + x) * (b + x)
            x = h * w3
            w4 = (c - x) - (a + x) * (b + x)
            step = sixth * (((w1 + 2.0 * w2) + 2.0 * w3) + w4)
            a = a + step
            b = b + step
            c = c - step
            # NaN fails every comparison, so a member that turned NaN is caught too
            inside = (a >= tol) & (b >= tol) & (c >= tol)
            if not all_(inside):
                i = int(np.argmin(np.ravel(inside)))
                state = (float(np.ravel(u)[i]) for u in (a, b, c))
                raise InvalidArgument(
                    "RK4 step too large: member {} left the positive orthant at "
                    "({}, {}, {})".format(i, *state)
                )
    return OdeState(a=a, b=b, c=c, t=t_end)


def brute_force_sample(fields, t: float, eq, params, grid,
                       running: RunningIntegrals | None = None) -> dict:
    """Naive re-evaluation of every recorded functional of one snapshot
    (test oracle).

    The contract of functionals.sample for the SpeciesFields of one
    snapshot at a scalar t, with Python floats for its values and the box
    read from the grid too; it takes no block of records.  Computed
    with per-cell Python loops, math.fsum reductions, and the direct
    textbook formulas; a running accumulator is advanced by the trapezoid
    rule written out here.
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
        return (x - y) * math.log(x / y)

    diss = vol * math.fsum(react(i) for i in range(n))
    diss += 4.0 * params.d_a * _loop_dirichlet(fields.a, grid, sqrt=True)
    if params.d_b > 0.0:
        diss += 4.0 * params.d_b * _loop_dirichlet(fields.b, grid, sqrt=True)
    if params.d_c > 0.0:
        diss += 4.0 * params.d_c * _loop_dirichlet(fields.c, grid, sqrt=True)

    m1 = vol * math.fsum(a[i] + c[i] for i in range(n)) / grid.volume
    m2 = vol * math.fsum(b[i] + c[i] for i in range(n)) / grid.volume

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
    ckp = kappa * grid.volume * (
        l1a * l1a / (2.0 * eq.M1)
        + l1b * l1b / (2.0 * eq.M2)
        + l1c * l1c / (eq.M1 + eq.M2)
    )

    def lp(u, p):
        return (vol * math.fsum(abs(v) ** p for v in u.ravel())) ** (1.0 / p)

    fa = vol * math.fsum(a[i] * a[i] + a[i] * c[i] for i in range(n))
    fb = vol * math.fsum(b[i] * b[i] + b[i] * c[i] for i in range(n))
    if running is not None:
        # the trapezoid of the last record gap, added here to the
        # accumulator's fields rather than by RunningIntegrals.update, the
        # rule under test; the first record's gap has width 0
        width = 0.0 if running.t_prev is None else t - running.t_prev
        running.int_a2ac += width * (running.fa_prev + fa) / 2.0
        running.int_b2bc += width * (running.fb_prev + fb) / 2.0
        running.t_prev, running.fa_prev, running.fb_prev = t, fa, fb
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
        "b_lN2": lp(fields.b, max(1.0, len(grid.cells) / 2.0)),
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
