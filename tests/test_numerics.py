"""Special functions and random-variate primitives."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mimo_recal as mr
from mimo_recal import _kernels
from tests.conftest import mc_bussgang, soft_limiter

# frozen oracle values; the generating oracles are re-run in the tests below
ERFC_1 = 0.15729920705028513       # adaptive quadrature of the defining integral
EI_MINUS_1 = -0.21938393439552026  # series, cross-checked by quadrature
EI_SCALED_40 = -0.02440411507962858  # asymptotic series -(1/40)(1 - 1/40 + 2/40^2 - ...)
MU_1_MC = 0.621070734316445        # 1e7-sample regression oracle, seed 20260808
LAM_11_MC = 0.017932499410377348   # 1e7-sample variance oracle, seed 20260809


class TestErfc:
    def test_symmetry_point(self):
        assert _kernels.erfc(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_large_argument_limit(self):
        assert _kernels.erfc(40.0) < 1e-300

    def test_quadrature_value(self):
        # oracle: erfc(1) = 1 - 2/sqrt(pi) * int_0^1 exp(-t^2) dt
        val, _ = scipy.integrate.quad(lambda t: math.exp(-t * t), 0.0, 1.0,
                                      epsabs=1e-15, epsrel=1e-14)
        oracle = 1.0 - 2.0 / math.sqrt(math.pi) * val
        assert oracle == pytest.approx(ERFC_1, abs=1e-14)
        assert _kernels.erfc(1.0) == pytest.approx(ERFC_1, abs=1e-13)

    def test_absolute_error_on_interval(self):
        x = np.linspace(-6.0, 6.0, 4001)
        assert np.max(np.abs(_kernels.erfc(x) - scipy.special.erfc(x))) <= 1e-12

    def test_scaled_identity(self):
        # mu's erfc(x) exp(x^2) with x^2 split exactly agrees with the product
        # of unscaled parts on (0, 4), the range of mu that uses it
        x = np.linspace(0.0, 4.0, 401)[1:-1]
        direct = _kernels.mu(x)
        composed = 0.5 * x * (2.0 * x - math.sqrt(math.pi) * _kernels.erfc(x) * np.exp(x**2)
                              * (2.0 * x**2 - 1.0))
        assert np.max(np.abs(direct - composed) / np.abs(direct)) <= 1e-10


class TestExpIntegral:
    """``e1_scaled(y)`` = exp(y) E1(y) = -exp(y) Ei(-y) for y > 0."""

    def test_series_value(self):
        assert -_kernels.e1_scaled(1.0) * math.exp(-1.0) == pytest.approx(EI_MINUS_1, rel=1e-10)

    def test_scaled_asymptotic_value(self):
        # oracle: exp(40)*Ei(-40) = -(1/40)(1 - 1/40 + 2/40^2 - 6/40^3 + 24/40^4 - ...)
        y = 40.0
        terms = [1.0, -1.0 / y, 2.0 / y**2, -6.0 / y**3, 24.0 / y**4, -120.0 / y**5]
        oracle = -sum(terms) / y
        assert oracle == pytest.approx(EI_SCALED_40, rel=1e-6)
        assert -_kernels.e1_scaled(y) == pytest.approx(EI_SCALED_40, rel=1e-10)

    def test_matches_scipy_on_range(self):
        y = np.linspace(0.01, 30.0, 500)
        mine = -_kernels.e1_scaled(y) * np.exp(-y)
        ref = scipy.special.expi(-y)
        assert np.max(np.abs(mine - ref) / np.abs(ref)) <= 1e-10

    def test_logarithmic_divergence(self):
        assert -_kernels.e1_scaled(1e-12) * math.exp(-1e-12) < -20.0


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

    @pytest.mark.parametrize("x", [math.nan, np.array([1.0, math.nan])])
    def test_nan_rejected(self, x):
        # bussgang_mu(nan) returned nan
        with pytest.raises(ValueError, match="x >= 0"):
            mr.bussgang_mu(x)

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

    @pytest.mark.parametrize("a_sat, sigma", [(math.nan, 1.0), (1.0, np.array([1.0, math.nan]))])
    def test_nan_rejected(self, a_sat, sigma):
        with pytest.raises(ValueError, match="(a_sat|sigma_x) must be finite and positive"):
            mr.bussgang_lambda(a_sat, sigma)

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


def _arg(bounds):
    """An argument on either side of one of the branch boundaries ``bounds``,
    up to a factor of 3 away."""
    return st.builds(lambda b, f: b * f, st.sampled_from(bounds), st.floats(1.0 / 3.0, 3.0))


class TestOneValuePerArgument:
    """A vector call equals its one-element calls bit for bit: no value
    depends on the other arguments of its call."""

    @staticmethod
    def _elementwise(f, *args):
        whole = f(*args)
        singles = [f(*(a[i:i + 1] for a in args))[0] for i in range(len(args[0]))]
        return np.array_equal(whole, singles)

    @settings(max_examples=100, deadline=None)
    @given(x=st.lists(_arg([1.0, 4.0, 10.0, 25.0, 50.0]), min_size=2, max_size=10))
    def test_one_argument_kernels(self, x):
        x = np.array(x)
        for f in (_kernels.mu, _kernels.e1_scaled):
            assert self._elementwise(f, x), f.__name__

    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(_arg([1.0, 4.0, 25.0, 50.0]), st.floats(0.1, 10.0)),
                          min_size=2, max_size=10))
    # a pair whose lambda moved by 2.5e-13 when the depth followed the call
    @example(pairs=[(2.414759435840466, 1.6994837140678953),
                    (1.213973154075501, 6.692427245084409)])
    def test_lam(self, pairs):
        # the ratio A/s sets the branch, and y = (A/s)^2 that of e1_scaled
        ratio, sigma = np.array(pairs).T
        assert self._elementwise(_kernels.lam, ratio * sigma, sigma)


def _max_rel_err(got, ref):
    return float(np.max(np.abs(np.asarray(got) / ref - 1.0)))


class TestAgainstMpmath:
    """Relative error against 50-digit mpmath references."""

    def test_scaled_e1(self):
        y = np.geomspace(1e-6, 1e4, 801)
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.e1(v) * mpmath.exp(v)) for v in y])
        assert _max_rel_err(_kernels.e1_scaled(y), ref) <= 1e-14

    @pytest.mark.parametrize("lo, hi, tol", [
        (0.0, 2.0, 6e-13), (2.0, 10.0, 2.1e-14), (10.0, 50.0, 4.6e-13), (50.0, 1e4, 1.8e-15)])
    def test_bussgang_mu(self, lo, hi, tol):
        # each bound is the largest error that an earlier series and
        # continued-fraction erfcx gave on its range; mu must not exceed it
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


_NO_MISMATCH = mr.HardwareMismatch.none()


@pytest.mark.parametrize("name, call", [
    ("a0", lambda: mr.draw_system_hardware(np.random.default_rng(0), 16, 4, _NO_MISMATCH, 1.0,
                                           a0=math.inf)),
    ("a_sat", lambda: mr.draw_system_hardware(np.random.default_rng(0), 16, 4, _NO_MISMATCH,
                                              math.inf)),
    ("a0", lambda: mr.HpaModel(a0=math.inf, t=1.0 + 0j, a_sat=1.0)),
    ("sigma_x", lambda: mr.bussgang_decompose(mr.HpaModel(a0=10.0, t=1.0 + 0j, a_sat=1.0),
                                              math.inf)),
    ("sigma_x", lambda: mr.bussgang_lambda(1.0, math.inf)),
    ("sigma_ref", lambda: mr.PolyMismatch(tau=np.ones((2, 2), complex),
                                          sigma_ref=np.array([1.0, math.nan]))),
    ("m", lambda: mr.a_sat_for_ibo(10.0, 1.0, math.inf)),
], ids=["hardware-a0", "hardware-a_sat", "hpa-a0", "decompose-sigma", "lambda-sigma",
        "poly-sigma_ref", "ibo-m"])
def test_non_finite_magnitude_rejected(name, call):
    # each got through: an infinite a0 or a_sat built hardware, an infinite
    # sigma gave sigma_d^2 = NaN, a NaN sigma_ref a model and m = inf a
    # saturation level of 0
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
        call()
