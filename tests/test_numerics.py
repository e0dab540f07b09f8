"""Special functions and random-variate primitives."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import mimo_recal as mr
from tests.conftest import mc_bussgang, soft_limiter

# frozen oracle values; the generating oracles are re-run in the tests below
ERFC_1 = 0.15729920705028513       # adaptive quadrature of the defining integral
EI_MINUS_1 = -0.21938393439552026  # series, cross-checked by quadrature
EI_SCALED_40 = -0.02440411507962858  # asymptotic series -(1/40)(1 - 1/40 + 2/40^2 - ...)
MU_1_MC = 0.621070734316445        # 1e7-sample regression oracle, seed 20260808
LAM_11_MC = 0.017932499410377348   # 1e7-sample variance oracle, seed 20260809


class TestErfc:
    def test_symmetry_point(self):
        assert mr.erfc(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_large_argument_limit(self):
        assert mr.erfc(40.0) < 1e-300

    def test_quadrature_value(self):
        # oracle: erfc(1) = 1 - 2/sqrt(pi) * int_0^1 exp(-t^2) dt
        val, _ = scipy.integrate.quad(lambda t: math.exp(-t * t), 0.0, 1.0,
                                      epsabs=1e-15, epsrel=1e-14)
        oracle = 1.0 - 2.0 / math.sqrt(math.pi) * val
        assert oracle == pytest.approx(ERFC_1, abs=1e-14)
        assert mr.erfc(1.0) == pytest.approx(ERFC_1, abs=1e-13)

    def test_absolute_error_on_interval(self):
        x = np.linspace(-6.0, 6.0, 4001)
        assert np.max(np.abs(mr.erfc(x) - scipy.special.erfc(x))) <= 1e-12

    def test_scaled_identity(self):
        # erfcx computed directly agrees with erfc * exp(x^2) of unscaled parts
        x = np.linspace(0.0, 5.0, 501)
        direct = mr.erfcx(x)
        composed = mr.erfc(x) * np.exp(x**2)
        assert np.max(np.abs(direct - composed) / np.abs(direct)) <= 1e-10

    def test_scaled_large_argument(self):
        # erfcx stays finite and accurate where erfc*exp overflows
        for x in (30.0, 100.0, 1000.0):
            assert mr.erfcx(x) == pytest.approx(scipy.special.erfcx(x), rel=1e-12)


class TestExpIntegral:
    def test_series_value(self):
        assert mr.exp_integral_ei(-1.0) == pytest.approx(EI_MINUS_1, rel=1e-10)

    def test_scaled_asymptotic_value(self):
        # oracle: exp(40)*Ei(-40) = -(1/40)(1 - 1/40 + 2/40^2 - 6/40^3 + 24/40^4 - ...)
        y = 40.0
        terms = [1.0, -1.0 / y, 2.0 / y**2, -6.0 / y**3, 24.0 / y**4, -120.0 / y**5]
        oracle = -sum(terms) / y
        assert oracle == pytest.approx(EI_SCALED_40, rel=1e-6)
        assert mr.exp_integral_ei_scaled(-40.0) == pytest.approx(EI_SCALED_40, rel=1e-10)

    def test_matches_scipy_on_range(self):
        x = -np.linspace(0.01, 30.0, 500)
        mine = mr.exp_integral_ei(x)
        ref = scipy.special.expi(x)
        assert np.max(np.abs(mine - ref) / np.abs(ref)) <= 1e-10

    def test_logarithmic_divergence(self):
        assert mr.exp_integral_ei(-1e-12) < -20.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mr.exp_integral_ei(0.0)
        with pytest.raises(ValueError):
            mr.exp_integral_ei(1.0)


class TestBussgangMu:
    def test_zero(self):
        assert mr.bussgang_mu(0.0) == 0.0

    def test_deep_linear_limit(self):
        # mu(x) = 1 - 1/x^2 + O(1/x^4); within 1e-3 at x = 40 and 1e-6 at x = 2000
        assert mr.bussgang_mu(40.0) == pytest.approx(1.0, abs=1e-3)
        assert abs(mr.bussgang_mu(40.0) - (1.0 - 1.0 / 40.0**2)) < 1e-5
        assert mr.bussgang_mu(2000.0) == pytest.approx(1.0, abs=1e-6)

    def test_against_mc_regression_oracle(self):
        assert mr.bussgang_mu(1.0) == pytest.approx(MU_1_MC, abs=1e-3)

    def test_against_quadrature(self):
        for a in (0.3, 1.0, 3.0, 10.0):
            val, _ = scipy.integrate.quad(
                lambda t: t * math.exp(-t) / math.sqrt(1.0 + t / a**2), 0.0, np.inf,
                epsabs=1e-14, epsrel=1e-13, limit=300)
            assert mr.bussgang_mu(a) == pytest.approx(val, rel=1e-10)

    def test_monotone_and_bounded(self):
        x = np.linspace(0.0, 200.0, 5001)
        vals = mr.bussgang_mu(x)
        assert np.all(np.diff(vals) >= -1e-14)
        assert np.all(vals >= 0.0) and np.all(vals < 1.0)

    def test_appendix_expansion_cubic_decay(self):
        # |mu(1/x) - (1 - x^2)| = O(x^3): the error ratio decays at least cubically
        xs = [0.1, 0.05, 0.01]
        errs = [abs(mr.bussgang_mu(1.0 / x) - (1.0 - x * x)) for x in xs]
        for (x1, e1), (x2, e2) in zip(zip(xs, errs), zip(xs[1:], errs[1:])):
            assert e1 / e2 >= 0.9 * (x1 / x2) ** 3

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mr.bussgang_mu(-0.5)

    @given(st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=60, deadline=None)
    def test_range_property(self, x):
        v = mr.bussgang_mu(x)
        assert 0.0 <= v < 1.0


class TestBussgangLambda:
    def test_vanishing_input_power(self):
        assert mr.bussgang_lambda(1.0, 1e-6) < 1e-22

    def test_mc_variance_oracle(self):
        assert mr.bussgang_lambda(1.0, 1.0) == pytest.approx(LAM_11_MC, rel=3e-2)

    def test_sixth_power_scaling(self):
        # lambda ~ sigma^6/(2 A^4) in the backed-off regime
        val = mr.bussgang_lambda(10.0, 1.0)
        assert val == pytest.approx(0.5 / 10.0**4, rel=0.12)

    def test_positive(self):
        assert mr.bussgang_lambda(1.0, 1.0) > 0.0

    def test_limit_large_backoff(self):
        assert mr.bussgang_lambda(1e4, 1.0) < 1e-14

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mr.bussgang_lambda(-1.0, 1.0)
        with pytest.raises(ValueError):
            mr.bussgang_lambda(1.0, 0.0)

    @given(st.floats(min_value=0.05, max_value=50.0),
           st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_property(self, a_sat, sigma):
        assert mr.bussgang_lambda(a_sat, sigma) >= 0.0


class TestBussgangOrthogonality:
    def test_residual_correlation(self):
        # E{x*(f(x) - g x)} -> 0 for the fitted g; 1e7 samples
        rng = np.random.default_rng(11)
        g = mr.bussgang_mu(1.0)
        resid = 0.0 + 0.0j
        den = 0.0
        for _ in range(10):
            x = (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000))
            x /= np.sqrt(2.0)
            f = soft_limiter(x, 1.0)
            resid += np.vdot(x, f - g * x)
            den += float(np.real(np.vdot(x, x)))
        assert abs(resid) / den <= 1e-3


def _max_rel_err(got, ref):
    return float(np.max(np.abs(np.asarray(got) / ref - 1.0)))


class TestAgainstMpmath:
    """Relative error against 50-digit mpmath references."""

    def test_erfcx(self):
        # both sides of the switch from erfc exp(x^2) to the continued fraction at 10
        x = np.concatenate([np.linspace(0.0, 50.0, 2001),
                            [np.nextafter(10.0, 0.0), 10.0, np.nextafter(10.0, 11.0), 1e3, 1e6]])
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.erfc(v) * mpmath.exp(mpmath.mpf(v) ** 2)) for v in x])
        assert _max_rel_err(mr.erfcx(x), ref) <= 2e-15

    def test_scaled_e1(self):
        y = np.geomspace(1e-6, 1e4, 801)
        with mpmath.workdps(50):
            ref = np.array([float(-mpmath.e1(v) * mpmath.exp(v)) for v in y])
        assert _max_rel_err(mr.exp_integral_ei_scaled(-y), ref) <= 1e-14

    @pytest.mark.parametrize("lo, hi, tol", [
        (0.0, 2.0, 6e-13), (2.0, 10.0, 2.1e-14), (10.0, 50.0, 4.6e-13), (50.0, 1e4, 1.8e-15)])
    def test_bussgang_mu(self, lo, hi, tol):
        # each bound is the largest error that the series and continued-fraction
        # erfcx gave on its range; the math.erfc form must not exceed it
        x = np.linspace(lo, hi, 1001)[1:-1] if hi <= 50.0 else np.geomspace(lo, hi, 401)[1:]
        with mpmath.workdps(50):
            ref = np.array([float(0.5 * v * (2 * v - mpmath.sqrt(mpmath.pi) * mpmath.erfc(v)
                                              * mpmath.exp(mpmath.mpf(v) ** 2)
                                              * (2 * mpmath.mpf(v) ** 2 - 1))) for v in x])
        assert _max_rel_err(mr.bussgang_mu(x), ref) <= tol


class TestDrawComplexGain:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        dist = mr.MismatchDistribution(0.0, 0.0)
        g = mr.draw_complex_gain(rng, dist, size=16)
        assert np.all(g == 1.0 + 0.0j)

    def test_log_amplitude_variance(self):
        rng = np.random.default_rng(1)
        dist = mr.MismatchDistribution(0.05, math.pi / 6)
        g = mr.draw_complex_gain(rng, dist, size=1_000_000)
        assert np.var(np.log(np.abs(g))) == pytest.approx(0.05, rel=0.01)

    def test_phase_uniformity(self):
        rng = np.random.default_rng(2)
        dist = mr.MismatchDistribution(0.05, math.pi / 6)
        g = mr.draw_complex_gain(rng, dist, size=1_000_000)
        phases = np.angle(g)
        stat = scipy.stats.kstest(phases, scipy.stats.uniform(-math.pi / 6, math.pi / 3).cdf)
        assert stat.pvalue > 0.01

    def test_reproducible(self):
        dist = mr.MismatchDistribution(0.1, 0.3)
        a = mr.draw_complex_gain(np.random.default_rng(42), dist, size=8)
        b = mr.draw_complex_gain(np.random.default_rng(42), dist, size=8)
        assert np.array_equal(a, b)

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            mr.MismatchDistribution(-0.1, 0.0)
        with pytest.raises(ValueError):
            mr.MismatchDistribution(0.1, 4.0)


def test_mc_oracle_reproduces_frozen_values():
    # the frozen constants at the top of this file come from these oracles
    g, lam = mc_bussgang(1.0, 1.0, 10_000_000, seed=20260808)
    assert g == pytest.approx(MU_1_MC, abs=1e-9)
    g2, lam2 = mc_bussgang(1.0, 1.0, 10_000_000, seed=20260809)
    assert lam2 == pytest.approx(LAM_11_MC, abs=1e-9)
