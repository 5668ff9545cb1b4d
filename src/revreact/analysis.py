"""Post-run verification: decay-envelope fits, entropy-balance audit and
growth diagnostics.

The decay theorems provide upper envelopes S1*exp(-S2*(1+t)**alpha) with
non-constructive constants, so fitting is one-sided: a PASS means the
fitted exponent is at least the theorem exponent and the envelope holds at
every fitted sample.  Empirical decay may be faster (exponential,
alpha = 1) than the proven sub-exponential rate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import math

import numpy as np

from .errors import (
    AlreadyConverged,
    InvalidArgument,
    InvalidSampling,
    MissingDiagnostic,
    NonDecaying,
    Unsupported,
)

__all__ = [
    "DecayFit",
    "GrowthDiagnostic",
    "EnvelopeReport",
    "fit_subexponential",
    "envelope_holds",
    "check_theorem_envelope",
    "entropy_balance_audit",
    "growth_diagnostics",
    "growth_diagnostics_from_series",
    "theorem_alpha",
    "EPSILON",
    "FIT_FLOOR",
]

#: epsilon in the decay exponents; the bounds hold for any small positive
#: value, so one is pinned for reproducible thresholds
EPSILON = 0.01

#: samples with relative entropy at or below this floor are excluded from fits
FIT_FLOOR = 1e-14

#: multiplicative slack of the envelope invariant
ENVELOPE_SLACK = 1e-9

_ALPHA_GRID = [k / 100.0 for k in range(5, 151)]


@dataclass
class DecayFit:
    """Fitted sub-exponential envelope E_rel <= S1 * exp(-S2 * (1+t)**alpha)."""

    alpha: float
    S1: float
    S2: float
    rms_residual: float
    n_samples: int
    t_window: tuple[float, float]
    theoretical_alpha: float | None = None


@dataclass
class GrowthDiagnostic:
    """Smallest K with value(t) <= K * (1+t)**exponent_target over the samples."""

    label: str
    exponent_target: float
    fitted_constant: float
    max_ratio_time: float


@dataclass
class EnvelopeReport:
    mode: str
    dimension: int
    fitted_alpha: float
    theoretical_alpha: float
    envelope_ok: bool
    passed: bool
    lines: list = field(default_factory=list)


def fit_subexponential(times, e_rel_values) -> DecayFit:
    """Grid-search alpha, linear least squares in ln E_rel vs (1+t)**alpha.

    Samples at or below FIT_FLOOR are dropped (floating-point floor); at
    least 10 must remain.  For each alpha on [0.05, 1.5] step 0.01 the
    straight line ln E = ln S1 - S2 * (1+t)**alpha is fitted; the alpha
    with the smallest rms residual and S2 > 0 wins.  S1 is then inflated
    so the envelope holds at every fitted sample.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(e_rel_values, dtype=float)
    if t.shape != e.shape or t.ndim != 1:
        raise InvalidArgument("times and values must be 1-d arrays of equal length")
    keep = e > FIT_FLOOR
    t = t[keep]
    e = e[keep]
    if t.size < 10:
        raise AlreadyConverged(
            f"only {t.size} samples above the {FIT_FLOOR:g} floor; nothing to fit"
        )
    ln_e = np.log(e)

    best = None  # (rms, alpha, intercept, slope)
    for alpha in _ALPHA_GRID:
        z = (1.0 + t) ** alpha
        zm = z.mean()
        lm = ln_e.mean()
        dz = z - zm
        denom = float(np.sum(dz * dz))
        if denom == 0.0:
            continue
        slope = float(np.sum(dz * (ln_e - lm))) / denom
        intercept = lm - slope * zm
        resid = ln_e - (intercept + slope * z)
        rms = math.sqrt(float(np.mean(resid * resid)))
        # a decaying envelope must explain a log-drop above rounding noise
        if slope < 0.0 and -slope * (z.max() - z.min()) > 1e-12:
            if best is None or rms < best[0]:
                best = (rms, alpha, intercept, slope)

    if best is None:
        raise NonDecaying("no decaying envelope found (best fit has S2 <= 0)")
    rms, alpha, intercept, slope = best
    s2 = -slope
    z = (1.0 + t) ** alpha
    s1 = float(np.max(e * np.exp(s2 * z)))  # envelope property by construction
    return DecayFit(
        alpha=alpha,
        S1=s1,
        S2=s2,
        rms_residual=rms,
        n_samples=int(t.size),
        t_window=(float(t[0]), float(t[-1])),
    )


def envelope_holds(fit: DecayFit, times, e_rel_values) -> bool:
    """Check E_rel(t) <= S1*exp(-S2*(1+t)**alpha) * (1 + 1e-9) on fitted samples."""
    t = np.asarray(times, dtype=float)
    e = np.asarray(e_rel_values, dtype=float)
    keep = e > FIT_FLOOR
    bound = fit.S1 * np.exp(-fit.S2 * (1.0 + t[keep]) ** fit.alpha)
    return bool(np.all(e[keep] <= bound * (1.0 + ENVELOPE_SLACK)))


def theorem_alpha(mode: str, dimension: int) -> float:
    """Decay exponent target for the given degeneracy mode and dimension.

    db0: (1-eps)/(N-1) for N >= 4 (reported only; grids stop at N = 3),
    (1-eps)/6 for N < 4.  dc0: (2-eps)/3 for N <= 3, no statement for
    N >= 4.  full: 0.95, the exponential-regime consistency target for the
    non-degenerate system.
    """
    if mode == "db0":
        if dimension >= 4:
            return (1.0 - EPSILON) / (dimension - 1)
        return (1.0 - EPSILON) / 6.0
    if mode == "dc0":
        if dimension >= 4:
            raise Unsupported("no decay statement for dc0 in dimension >= 4")
        return (2.0 - EPSILON) / 3.0
    if mode == "full":
        return 0.95
    raise InvalidArgument(f"unknown mode {mode!r}")


def check_theorem_envelope(fit: DecayFit, mode: str, dimension: int,
                           times=None, e_rel_values=None) -> EnvelopeReport:
    """PASS iff fitted alpha >= theorem alpha and the envelope invariant holds."""
    target = theorem_alpha(mode, dimension)
    fit.theoretical_alpha = target
    env_ok = True
    if times is not None and e_rel_values is not None:
        env_ok = envelope_holds(fit, times, e_rel_values)
    passed = fit.alpha >= target and env_ok
    lines = [
        f"decay fit: alpha = {fit.alpha:.2f}, S1 = {fit.S1:.6g}, S2 = {fit.S2:.6g}, "
        f"rms = {fit.rms_residual:.3g} over {fit.n_samples} samples "
        f"t in [{fit.t_window[0]:g}, {fit.t_window[1]:g}]",
        f"theorem exponent ({mode}, N={dimension}): {target:.6g}",
        f"envelope property: {'holds' if env_ok else 'VIOLATED'}",
        f"envelope check: {'PASS' if passed else 'FAIL'}",
    ]
    return EnvelopeReport(
        mode=mode,
        dimension=dimension,
        fitted_alpha=fit.alpha,
        theoretical_alpha=target,
        envelope_ok=env_ok,
        passed=passed,
        lines=lines,
    )


def entropy_balance_audit(times, e_rel_values, dissipation_values) -> float:
    """Max relative residual of dE_rel/dt = -D over interior sample times.

    Central differences at uniform sample spacing; the residual at each
    interior sample is |dE/dt + D| / max(D, 1e-14).
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(e_rel_values, dtype=float)
    d = np.asarray(dissipation_values, dtype=float)
    if t.size < 3:
        raise InvalidSampling("need at least 3 samples for the balance audit")
    steps = np.diff(t)
    dt = steps[0]
    if dt <= 0.0 or np.any(np.abs(steps - dt) > 1e-9 * dt):
        raise InvalidSampling("balance audit requires uniform record spacing")
    dedt = (e[2:] - e[:-2]) / (2.0 * dt)
    resid = np.abs(dedt + d[1:-1]) / np.maximum(d[1:-1], 1e-14)
    return float(np.max(resid))


# diagnostics per degeneracy mode: (diag_norms key, growth exponent in (1+t))
def _diagnostic_plan(mode: str, dimension: int):
    if mode == "db0":
        plan = [("b_l32", 5.0 / 6.0)]
        if dimension >= 2:
            # L^{N/2} growth; exponent (N-2)/(N-1) is singular for N = 1
            plan.append(("b_lN2", (dimension - 2.0) / (dimension - 1.0)))
        return plan
    if mode == "dc0":
        return [
            ("a_l32", 1.0 / 3.0),
            ("b_l32", 1.0 / 3.0),
            ("c_l3", 1.0),
            ("int_a2ac", 1.0),
            ("int_b2bc", 1.0),
        ]
    return []


def growth_diagnostics(trajectory, mode: str, dimension: int) -> list[GrowthDiagnostic]:
    """Fit the smallest constant K per applicable polynomial growth bound."""
    times = np.asarray(trajectory.times, dtype=float)
    series = {
        key: np.array([s.diag_norms[key] for s in trajectory.samples])
        for key in trajectory.samples[0].diag_norms
    }
    return growth_diagnostics_from_series(times, series, mode, dimension)


def growth_diagnostics_from_series(times, series, mode: str,
                                   dimension: int) -> list[GrowthDiagnostic]:
    """Growth-bound constants from explicit arrays (label -> value series)."""
    times = np.asarray(times, dtype=float)
    series = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    out = []
    for label, exponent in _diagnostic_plan(mode, dimension):
        if label not in series:
            raise MissingDiagnostic(f"diagnostic {label!r} was not recorded")
        ratio = series[label] / (1.0 + times) ** exponent
        i = int(np.argmax(ratio))
        out.append(
            GrowthDiagnostic(
                label=label,
                exponent_target=exponent,
                fitted_constant=float(ratio[i]),
                max_ratio_time=float(times[i]),
            )
        )
    return out
