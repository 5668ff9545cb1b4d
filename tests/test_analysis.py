import math

import numpy as np
import pytest

from revreact.analysis import (
    EPSILON,
    DecayFit,
    _diagnostic_plan,
    check_theorem_envelope,
    entropy_balance_audit,
    envelope_holds,
    fit_subexponential,
    growth_diagnostics_from_series,
    theorem_alpha,
)
from revreact.errors import (
    AlreadyConverged,
    InvalidSampling,
    MissingDiagnostic,
    NonDecaying,
    Unsupported,
)
from revreact.functionals import CSV_COLUMNS


class TestFitSubexponential:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 10.0, 101)
        e = 3.0 * np.exp(-2.0 * t)
        fit = fit_subexponential(t, e)
        assert fit.alpha == pytest.approx(1.0, abs=0.0101)
        assert fit.S2 == pytest.approx(2.0, rel=0.02)
        # 3 e^{-2t} = (3 e^2) e^{-2(1+t)}
        assert fit.S1 == pytest.approx(3.0 * math.e**2, rel=0.02)
        assert fit.rms_residual < 1e-10

    def test_half_power_envelope(self):
        t = np.linspace(0.0, 20.0, 201)
        e = np.exp(-((1.0 + t) ** 0.5))
        fit = fit_subexponential(t, e)
        assert fit.alpha == pytest.approx(0.5, abs=0.0101)
        assert fit.S2 == pytest.approx(1.0, rel=0.02)

    def test_constant_series_is_nondecaying(self):
        t = np.linspace(0.0, 5.0, 60)
        with pytest.raises(NonDecaying):
            fit_subexponential(t, np.full(60, 0.25))

    def test_floor_series_already_converged(self):
        t = np.linspace(0.0, 5.0, 60)
        with pytest.raises(AlreadyConverged):
            fit_subexponential(t, np.full(60, 1e-16))

    def test_floor_samples_excluded(self):
        t = np.linspace(0.0, 30.0, 301)
        e = np.maximum(np.exp(-2.0 * t), 1e-16)  # plateau after t ~ 18
        fit = fit_subexponential(t, e)
        assert fit.alpha == pytest.approx(1.0, abs=0.0101)

    def test_envelope_invariant_enforced(self, rng):
        t = np.linspace(0.0, 10.0, 101)
        e = 2.0 * np.exp(-1.3 * t) * np.exp(rng.normal(0.0, 0.05, size=101))
        fit = fit_subexponential(t, e)
        assert envelope_holds(fit, t, e)


class TestTheoremEnvelope:
    def test_exponent_targets(self):
        assert theorem_alpha("db0", 1) == pytest.approx((1.0 - EPSILON) / 6.0)
        assert theorem_alpha("db0", 3) == pytest.approx((1.0 - EPSILON) / 6.0)
        assert theorem_alpha("db0", 5) == pytest.approx((1.0 - EPSILON) / 4.0)
        assert theorem_alpha("dc0", 3) == pytest.approx((2.0 - EPSILON) / 3.0)
        assert theorem_alpha("full", 2) == 0.95
        with pytest.raises(Unsupported):
            theorem_alpha("dc0", 4)

    def _check(self, alpha, mode, dimension):
        # samples exactly on the fitted envelope exp(-(1+t)**alpha), S1 = S2 = 1
        fit = DecayFit(alpha=alpha, S1=1.0, S2=1.0, rms_residual=0.0,
                       n_samples=50, t_window=(0.0, 10.0))
        t = np.linspace(0.0, 10.0, 50)
        return check_theorem_envelope(fit, mode, dimension, t, np.exp(-(1.0 + t) ** alpha))

    def test_db0_dimension_one_passes(self):
        report = self._check(0.97, "db0", 1)
        assert report.passed
        assert report.theoretical_alpha == pytest.approx(0.99 / 6.0)

    def test_dc0_dimension_three_fails_below_target(self):
        report = self._check(0.50, "dc0", 3)
        assert not report.passed
        assert report.theoretical_alpha == pytest.approx(1.99 / 3.0)

    def test_boundary_alpha_passes(self):
        report = self._check((1.0 - EPSILON) / 6.0, "db0", 2)
        assert report.passed


class TestBalanceAudit:
    def test_synthetic_exponential_residual(self):
        # E = D = e^{-t}: central difference inflates E' by sinh(h)/h
        h = 0.1
        t = np.arange(0.0, 5.0 + h / 2, h)
        e = np.exp(-t)
        resid = entropy_balance_audit(t, e, e)
        expected = math.sinh(h) / h - 1.0
        assert resid == pytest.approx(expected, rel=1e-6)

    def test_zero_trajectory(self):
        t = np.linspace(0.0, 1.0, 11)
        z = np.zeros(11)
        assert entropy_balance_audit(t, z, z) == 0.0

    def test_residual_drops_with_spacing(self):
        for h, bound in ((0.1, 0.00167), (0.05, 0.000417)):
            t = np.arange(0.0, 5.0 + h / 2, h)
            e = np.exp(-t)
            assert entropy_balance_audit(t, e, e) == pytest.approx(bound, rel=0.01)

    def test_non_uniform_spacing_rejected(self):
        t = np.array([0.0, 0.1, 0.25, 0.3])
        e = np.exp(-t)
        with pytest.raises(InvalidSampling):
            entropy_balance_audit(t, e, e)

    def test_too_few_samples_rejected(self):
        with pytest.raises(InvalidSampling):
            entropy_balance_audit(np.array([0.0, 0.1]), np.ones(2), np.ones(2))


class TestGrowthDiagnostics:
    def test_constant_series_binds_at_zero(self):
        t = np.linspace(0.0, 10.0, 50)
        series = {"b_l32": np.full(50, 0.8), "b_lN2": np.full(50, 0.8)}
        diags = growth_diagnostics_from_series(t, series, "db0", 3)
        by_label = {d.label: d for d in diags}
        assert by_label["b_l32"].fitted_constant == pytest.approx(0.8)
        assert by_label["b_l32"].max_ratio_time == 0.0

    def test_exact_saturation(self):
        t = np.linspace(0.0, 10.0, 50)
        series = {"b_l32": (1.0 + t) ** (5.0 / 6.0), "b_lN2": np.ones(50)}
        diags = growth_diagnostics_from_series(t, series, "db0", 2)
        d = {g.label: g for g in diags}["b_l32"]
        assert d.fitted_constant == pytest.approx(1.0, rel=1e-12)

    def test_dimension_one_skips_lN2_target(self):
        t = np.linspace(0.0, 10.0, 50)
        series = {"b_l32": np.ones(50)}
        diags = growth_diagnostics_from_series(t, series, "db0", 1)
        assert [d.label for d in diags] == ["b_l32"]

    def test_dc0_plan(self):
        t = np.linspace(0.0, 4.0, 30)
        series = {
            "a_l32": np.ones(30), "b_l32": np.ones(30), "c_l3": np.ones(30),
            "int_a2ac": t, "int_b2bc": t,
        }
        diags = growth_diagnostics_from_series(t, series, "dc0", 1)
        assert [d.label for d in diags] == ["a_l32", "b_l32", "c_l3", "int_a2ac", "int_b2bc"]
        assert all(math.isfinite(d.fitted_constant) for d in diags)

    def test_time_shift_never_increases_constant(self, rng):
        # for a non-increasing series, relabeling t -> t + s only shrinks the
        # ratio against (1+t)^e
        t = np.linspace(0.0, 8.0, 40)
        values = np.sort(rng.uniform(0.1, 2.0, size=40))[::-1]
        for shift in (0.5, 2.0, 7.0):
            base = growth_diagnostics_from_series(
                t, {"b_l32": values}, "db0", 1)[0].fitted_constant
            shifted = growth_diagnostics_from_series(
                t + shift, {"b_l32": values}, "db0", 1)[0].fitted_constant
            assert shifted <= base + 1e-15

    @pytest.mark.parametrize("mode", ["full", "db0", "dc0"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_plan_labels_are_csv_columns(self, mode, dim):
        # analyze looks the labels up among the CSV columns: a label that is
        # not one would raise MissingDiagnostic on every recorded run
        assert {label for label, _ in _diagnostic_plan(mode, dim)} <= set(CSV_COLUMNS)

    def test_missing_diagnostic(self):
        t = np.linspace(0.0, 1.0, 12)
        with pytest.raises(MissingDiagnostic):
            growth_diagnostics_from_series(t, {"b_l32": np.ones(12)}, "dc0", 1)
