"""The benchmark's oracles against quadrature, closed cases and the library."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles

GOOD_ANALYSIS = """scenario,sweep_param,sweep_value,method,rate_mean,rate_stderr,n_trials
rate_vs_snr,snr_db,10,closed_form,4.6,0.06,2
rate_vs_snr,snr_db,10,mc,4.55,0.06,2
rate_vs_snr,snr_db,10,ideal,{ideal},0,2
rate_vs_snr,snr_db,10,lrm_closed,4.4,0,2
"""
ANALYSIS_CFG = {"scenario": "rate_vs_snr", "m": 64, "k": 8,
                "sweep": {"param": "snr_db", "values": [10.0]}, "mc": {"n_hardware": 2}}
GOOD_CAL = """scenario,sweep_param,sweep_value,method,rate_mean,rate_stderr,n_trials
cal_rate_vs_snr,snr_db,10,none,3.8,0,1
cal_rate_vs_snr,snr_db,10,linear_rc,5.4,0,1
cal_rate_vs_snr,snr_db,10,poly_nrc,5.3,0,1
cal_rate_vs_snr,snr_db,10,perfect_nrc,5.35,0,1
"""
CAL_CFG = dict(ANALYSIS_CFG, scenario="cal_rate_vs_snr", mc={"n_hardware": 1})


def good_analysis():
    return GOOD_ANALYSIS.format(ideal=f"{math.log2(71.0):.9g}")


def test_ideal_rate():
    assert oracles.ideal_rate(64, 8, 10.0) == pytest.approx(math.log2(71.0), rel=1e-15)
    assert oracles.ideal_rate(256, 20, 0.0) == pytest.approx(math.log2(1 + 236 / 20))


def mu_quadrature(a):
    # definition: E[|x|^2 / sqrt(1 + |x|^2/A^2)] / sigma^2 for CN(0, sigma^2)
    return quad(lambda t: t * math.exp(-t) / math.sqrt(1.0 + t / a**2), 0.0, math.inf,
                epsabs=1e-14, epsrel=1e-13)[0]


@pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 3.0, 10.0, 49.0, 51.0, 400.0])
def test_mu_matches_quadrature(a):
    assert oracles.mu_soft_limiter(a) == pytest.approx(mu_quadrature(a), rel=1e-10)


def test_mu_is_monotone_and_tends_to_one():
    x = np.concatenate([np.linspace(0.0, 60.0, 2001), [1e3, 1e6, np.inf]])
    mu = oracles.mu_soft_limiter(x)
    assert np.all(np.diff(mu) >= -1e-15)
    assert mu[0] == 0.0 and mu[-1] == 1.0


def test_mu_agrees_with_library():
    from mimo_recal.numerics import bussgang_mu

    x = np.geomspace(1e-3, 1e4, 200)
    np.testing.assert_allclose(oracles.mu_soft_limiter(x), bussgang_mu(x), rtol=1e-11)


def test_bisection_on_equal_antennas_spends_the_power():
    m, rho_t = 16, 2.0
    sigma = np.full(m, 0.3)
    c_max = np.full(m, 100.0)
    g0 = oracles.maxmin_gain_bisection(np.ones(m), np.full(m, 1.0), sigma, rho_t, c_max)
    c = math.sqrt(rho_t / (m * 0.3**2))
    assert g0 == pytest.approx(c * float(oracles.mu_soft_limiter(1.0 / (c * 0.3))), rel=1e-9)


def test_bisection_matches_library_slp():
    import mimo_recal as mr

    rng = np.random.default_rng(5)
    rho = 3.0
    hw = mr.draw_system_hardware(rng, 8, 2, mr.HardwareMismatch.uniform(0.05, math.pi / 6),
                                 mr.a_sat_for_ibo(8.0, rho, 8))
    sigma_x = hw.sigma_x(rho)
    c_max = float(np.exp(np.mean(np.log(hw.a_sat)))) / sigma_x
    res = mr.slp_solve(mr.TrueMismatch(hw), sigma_x, rho, c_max, strict=False)
    want = oracles.maxmin_gain_bisection(np.abs(hw.t / hw.bs_rx), hw.a_sat, sigma_x, rho, c_max)
    assert res.g0 == pytest.approx(want, rel=1e-4)
    instance = {"ratio_abs": np.abs(hw.t / hw.bs_rx), "a_sat": hw.a_sat, "sigma_x": sigma_x,
                "c_max": c_max, "rho_t": rho, "g0": res.g0}
    assert oracles.check_slp([], instance, required=True) == []
    assert oracles.check_slp([], dict(instance, g0=res.g0 * 1.01), required=True)


def test_slp_constraints():
    ok = {"power": 1.0, "rho_t": 1.0, "cap_excess": 0.0}
    assert oracles.check_slp([ok], None, required=False) == []
    assert oracles.check_slp([ok], None, required=True)  # no oracle instance seen
    assert oracles.check_slp([dict(ok, power=1.0 + 1e-6)], None, required=False)
    assert oracles.check_slp([dict(ok, cap_excess=1e-6)], None, required=False)


def test_good_points_pass():
    assert oracles.check_point(ANALYSIS_CFG, good_analysis()) == []
    assert oracles.check_point(CAL_CFG, GOOD_CAL) == []


@pytest.mark.parametrize("edit", [
    lambda t: t.replace(",n_trials", ""),                       # header
    lambda t: t.replace("4.55,0.06,2", "4.55,0.06"),            # a short row
    lambda t: t.replace("4.55,0.06,2", "4.55,0.06,3"),          # n_trials
    lambda t: t.replace("4.55,0.06", "nan,0.06"),               # non-finite
    lambda t: t.replace("4.55,0.06", "-1,0.06"),                # non-positive
    lambda t: t.replace("4.55,0.06", "4.2,0.06"),               # mc far from closed form
    lambda t: t.replace("4.6,0.06", "6.2,0.06").replace("4.55", "6.1"),  # both above ideal
    lambda t: t.replace(f"{math.log2(71.0):.9g}", "6.15"),      # ideal off the formula
    lambda t: t.replace(",10,mc", ",20,mc"),                    # another sweep point
    lambda t: "\n".join(t.splitlines()[:-1]) + "\n",            # a method missing
])
def test_bad_analysis_points_fail(edit):
    assert oracles.check_point(ANALYSIS_CFG, edit(good_analysis()))


def test_calibration_must_beat_no_calibration():
    assert oracles.check_point(CAL_CFG, GOOD_CAL.replace("5.3,0", "3.7,0"))


def test_rate_tolerance_follows_the_gap():
    assert oracles.rate_tolerance(64, 8) == pytest.approx(math.log2(1.13) + 0.05)
    assert oracles.rate_tolerance(128, 8) == pytest.approx(math.log2(1.065) + 0.05)


def test_zf_ideal():
    m, k, a0, rho = 64, 8, 10.0, 1.0
    es = a0 * rho * (m - k) / k
    zf = {"m": m, "k": k, "a0": a0, "rho_t": rho, "es": [es] * k, "si": [0.0] * k,
          "mui": [1e-20] * k}
    assert oracles.check_zf_ideal(zf) == []
    assert oracles.check_zf_ideal(dict(zf, si=[1e-3] * k))
    assert oracles.check_zf_ideal(dict(zf, es=[es * (1 + 1e-6)] * k))
