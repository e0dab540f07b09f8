"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.

Criterion 1 is asserted exactly as stated; its SI/MUI clause fails: those
closed-form terms drop a finite-M moment of the Wishart uplink Gram matrix.
For constant |r_m| they are exact once multiplied by
kappa_SI = M^2/(M^2-1) ((M-1)/(M-K) - 1/M) and
kappa_MUI = M^2/(M^2-1) M/(M-K), i.e. 1.110 and 1.143 at M=64, K=8, which
leaves the measured ~10-13% gap; kappa - 1 shrinks like K/M (see
test_analysis.py's scaling test).  The remaining criteria pass.
"""

import math

import numpy as np
import pytest

import mimo_recal as mr
from mimo_recal import _kernels
from mimo_recal.calibration import estimate_poly_coeffs_anchored
from tests.conftest import (
    assemble_psi_matrix,
    beta_zf_empirical,
    estimate_poly_coeffs,
    gauge_fit_error,
    mc_bussgang,
    mean_rate_mc,
    slp_bisection_oracle,
    synth_poly_training,
)

A0 = 10.0
NOISE = 1.0
MIS = mr.HardwareMismatch.uniform(0.05, math.pi / 6)


def _line(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.mark.slow
def test_criterion_1_closed_form_vs_monte_carlo():
    """Prop.-1 terms vs surrogate MC at M=64, K=8, IBO=10 dB, 5% per term."""
    m, k = 64, 8
    n_hw, n_channels = 20, 10_000
    phi = np.ones(k)
    worst = {t: 0.0 for t in ("es", "si", "mui", "nld")}
    for snr_db in (0.0, 10.0, 20.0):
        rho = 10.0 ** (snr_db / 10.0) * NOISE / A0
        a_sat = mr.a_sat_for_ibo(10.0, rho, m)
        sums_c = {t: 0.0 for t in worst}
        sums_e = {t: 0.0 for t in worst}
        for i, child in enumerate(np.random.SeedSequence((1, int(snr_db))).spawn(n_hw)):
            rng = np.random.default_rng(child)
            hw = mr.draw_system_hardware(rng, m, k, MIS, a_sat)
            closed = mr.sindr_zf_closed_all(hw, phi, rho, NOISE)
            est = mr.estimate_sindr_mc(hw, phi, rho, A0, NOISE, n_channels, 1,
                                       "surrogate", rng)
            for t in worst:
                sums_c[t] += float(np.mean([getattr(b, t) for b in closed]))
                sums_e[t] += float(np.mean([getattr(b, t) for b in est]))
        for t in worst:
            rel = abs(sums_c[t] - sums_e[t]) / sums_e[t]
            worst[t] = max(worst[t], rel)
    ok = all(v <= 0.05 for v in worst.values())
    _line(1, "closed form vs Monte Carlo",
          ok, " ".join(f"{t}={v:.1%}" for t, v in worst.items())
          + "  [SI/MUI lack the finite-M Wishart factor kappa at M=64]")
    for t, v in worst.items():
        assert v <= 0.05, (
            f"term {t} off by {v:.1%} (> 5%): the paper's {t.upper()} closed form "
            "drops the finite-M Wishart moment; for constant |r| SI is exact times "
            "M^2/(M^2-1)((M-1)/(M-K) - 1/M) and MUI times M^2/(M^2-1) M/(M-K), "
            "and the gap shrinks like K/M"
        )


def test_criterion_2_rate_decomposition():
    """Prop.-2 decomposition: 0.1-bit consistency, d_ue >= 0, exact zero."""
    m, k, rho = 64, 8, 10.0
    a_sat = mr.a_sat_for_ibo(10.0, rho, m)
    phi = np.ones(k)
    worst = 0.0
    checked = 0
    violations = 0
    for child in np.random.SeedSequence(20).spawn(1000):
        rng = np.random.default_rng(child)
        hw = mr.draw_system_hardware(rng, m, k, MIS, a_sat)
        dec = mr.avg_rate_decomposition(hw, phi, rho, NOISE)
        if dec.d_ue < 0:
            violations += 1
        gammas = [b.sindr for b in mr.sindr_zf_closed_all(hw, phi, rho, NOISE)]
        if min(gammas) >= 10.0:
            worst = max(worst, abs(dec.r - float(np.mean(np.log2(gammas)))))
            checked += 1
    ident = mr.draw_system_hardware(
        np.random.default_rng(0), m, k,
        mr.HardwareMismatch(a=MIS.a, t=MIS.t, r=MIS.r,
                            u=mr.MismatchDistribution(0.0, 0.0),
                            v=mr.MismatchDistribution(0.0, 0.0)),
        a_sat)
    d_ue_ident = mr.avg_rate_decomposition(ident, phi, rho, NOISE).d_ue
    ok = worst <= 0.1 and violations == 0 and d_ue_ident == 0.0
    _line(2, "rate decomposition", ok,
          f"|r - mean log2(gamma)| max {worst:.2e} over {checked} draws, "
          f"d_ue violations {violations}/1000, identical-UE d_ue {d_ue_ident}")
    assert worst <= 0.1
    assert violations == 0
    assert d_ue_ident == 0.0


def test_criterion_3_large_ibo_formula():
    """Prop. 3: within 10% for IBO >= 12 dB; truncation error decays with IBO."""
    m, k, rho, n_hw = 64, 8, 1.0, 200
    no_ue = mr.HardwareMismatch(a=MIS.a, t=MIS.t, r=MIS.r,
                                u=mr.MismatchDistribution(0.0, 0.0),
                                v=mr.MismatchDistribution(0.0, 0.0))
    errs_10pct = {}
    for ibo in (12.0, 15.0, 20.0):
        a_sat = mr.a_sat_for_ibo(ibo, rho, m)
        rng = np.random.default_rng(30)
        g_closed = np.mean([
            mr.sindr_zf_closed_all(mr.draw_system_hardware(rng, m, k, no_ue, a_sat),
                                   np.ones(k), rho, NOISE)[0].sindr
            for _ in range(n_hw)])
        g_libo = mr.sindr_large_ibo(m, rho, A0, a_sat, np.ones(k), no_ue, NOISE)[0]
        errs_10pct[ibo] = abs(g_libo - g_closed) / g_closed

    # monotone decay of the expansion truncation: saturation spread only, so
    # the O(1/M) mismatch floor of the ensemble constants does not mask it
    exp_only = mr.HardwareMismatch(a=MIS.a,
                                   t=mr.MismatchDistribution(0.0, 0.0),
                                   r=mr.MismatchDistribution(0.0, 0.0),
                                   u=mr.MismatchDistribution(0.0, 0.0),
                                   v=mr.MismatchDistribution(0.0, 0.0))
    decay = []
    for ibo in (8.0, 10.0, 12.0, 15.0, 20.0):
        a_sat = mr.a_sat_for_ibo(ibo, rho, m)
        rng = np.random.default_rng(31)  # common draws across IBO points
        g_closed = np.mean([
            mr.sindr_zf_closed_all(mr.draw_system_hardware(rng, m, k, exp_only, a_sat),
                                   np.ones(k), rho, NOISE)[0].sindr
            for _ in range(n_hw)])
        g_libo = mr.sindr_large_ibo(m, rho, A0, a_sat, np.ones(k), exp_only, NOISE)[0]
        decay.append(abs(g_libo - g_closed) / g_closed)
    monotone = all(a > b for a, b in zip(decay, decay[1:]))
    ok = all(v <= 0.10 for v in errs_10pct.values()) and monotone
    _line(3, "large-IBO formula", ok,
          "err@{12,15,20}dB=" + "/".join(f"{errs_10pct[i]:.2%}" for i in (12., 15., 20.))
          + " decay=" + "/".join(f"{e:.1e}" for e in decay))
    assert all(v <= 0.10 for v in errs_10pct.values())
    assert monotone


def test_criterion_4_bussgang_layer():
    """mu/lambda vs 1e7-sample oracles; expansion error decays cubically."""
    g_mc, _ = mc_bussgang(1.0, 1.0, 10_000_000, seed=20260808)
    mu_err = abs(mr.bussgang_mu(1.0) - g_mc)
    _, lam_mc = mc_bussgang(1.0, 1.0, 10_000_000, seed=20260809)
    lam_err = abs(mr.bussgang_lambda(1.0, 1.0) - lam_mc) / lam_mc
    xs = [0.1, 0.05, 0.01]
    errs = [abs(mr.bussgang_mu(1.0 / x) - (1.0 - x * x)) for x in xs]
    cubic = all(e1 / e2 >= 0.9 * (x1 / x2) ** 3
                for (x1, e1), (x2, e2) in zip(zip(xs, errs), zip(xs[1:], errs[1:])))
    ok = mu_err <= 2e-3 and lam_err <= 0.03 and cubic
    _line(4, "Bussgang layer", ok,
          f"mu err {mu_err:.1e} (<=2e-3), lambda err {lam_err:.2%} (<=3%), "
          f"cubic decay {cubic}")
    assert mu_err <= 2e-3
    assert lam_err <= 0.03
    assert cubic


def test_criterion_5_beta_zf():
    """Closed-form beta: exact K/(M-K) at identity; 2% vs 1e4-draw empirical."""
    m, k = 64, 8
    ident = mr.draw_system_hardware(np.random.default_rng(0), m, k,
                                    mr.HardwareMismatch.none(), 1e9, ue_pilot_amp=1e-9)
    exact = mr.beta_zf_closed(ident, np.ones(k))
    exact_ok = exact == k / (m - k)

    # constant |r_m| keeps the Gram exactly Wishart (the regime the paper's
    # inverse-Wishart step actually covers); all other roles fully mismatched
    mis = mr.HardwareMismatch(a=MIS.a, t=MIS.t,
                              r=mr.MismatchDistribution(0.0, math.pi / 6),
                              u=MIS.u, v=MIS.v)
    hw = mr.draw_system_hardware(np.random.default_rng(50), m, k, mis, 1e6)
    phi = np.random.default_rng(51).uniform(0.5, 2.0, k)
    closed = mr.beta_zf_closed(hw, phi)
    rng = np.random.default_rng(52)
    h = np.empty((k, m), dtype=np.complex128)
    emp = beta_zf_empirical(_kernels.uplink(mr.draw_channels(rng, phi, h), hw.bs_rx, hw.ue_tx_gain)
                            for _ in range(10_000))
    rel = abs(emp - closed) / closed
    ok = exact_ok and rel <= 0.02
    _line(5, "beta_ZF", ok,
          f"identity value {exact} == {k}/{m - k}; closed vs empirical {rel:.2%}")
    assert exact_ok
    assert rel <= 0.02


def test_criterion_6_polynomial_estimation():
    """Prop.-4 recovery, fit quality, and the over-fitting trend of Fig.-8 type."""
    # (a) noiseless synthetic recovery to 1e-8
    rng = np.random.default_rng(60)
    hw = mr.draw_system_hardware(rng, 8, 2, MIS, mr.a_sat_for_ibo(10.0, 1.0, 8))
    omega = mr.draw_inter_antenna_channel(rng, 8)
    plan = mr.PilotPlan.for_hardware(hw, 10, 3)
    order = 5
    tau = rng.standard_normal((8, order + 1)) + 1j * rng.standard_normal((8, order + 1))
    tau /= tau[0, 0]
    x, y = synth_poly_training(hw, plan, omega, tau, order, rng)
    est = estimate_poly_coeffs(assemble_psi_matrix(plan, x, y, order), order)
    rec_err = float(np.max(np.abs(est.tau - tau)) / np.max(np.abs(tau)))

    # (b) fitted mu within 1% of true g/r on [0, sigma_max], noiseless training
    hw_b = mr.draw_system_hardware(np.random.default_rng(61), 16, 2, MIS,
                                   mr.a_sat_for_ibo(10.0, 1.0, 16))
    omega_b = mr.draw_inter_antenna_channel(np.random.default_rng(62), 16)
    # amplitude cap 5 dB below the geometric-mean saturation level
    base_b = float(np.exp(np.mean(np.log(hw_b.a_sat))))
    plan_b = mr.PilotPlan(7, 10, base_b * 10.0 ** (-5.0 / 10.0))
    recs_b = mr.simulate_ota_training(hw_b, plan_b, omega_b, 0.0, "surrogate",
                                      np.random.default_rng(63))
    fit_err = gauge_fit_error(estimate_poly_coeffs_anchored(recs_b, 5),
                              mr.TrueMismatch(hw_b), plan_b)

    # (c) over-fitting trend: rate vs order rises then falls at Q=2; at Q=50
    # it is non-decreasing up to order 6 within MC error
    orders = list(range(0, 9))
    trend = {}
    for q in (2, 50):
        out = {o: [] for o in orders}
        for child in np.random.SeedSequence(99).spawn(25):
            rng_i = np.random.default_rng(child)
            mis_c = mr.HardwareMismatch.uniform(0.1, math.pi / 6)
            rho = 10.0 ** 1.5 / A0
            hw_i = mr.draw_system_hardware(rng_i, 8, 2, mis_c,
                                           mr.a_sat_for_ibo(10.0, rho, 8))
            omega_i = mr.draw_inter_antenna_channel(rng_i, 8)
            plan_i = mr.PilotPlan.for_hardware(hw_i, 10, q)
            recs_i = mr.simulate_ota_training(hw_i, plan_i, omega_i, 4.0,
                                              "surrogate", rng_i)
            kid = child.spawn(1)[0]
            for o in orders:
                # order 0 is the conventional single-power calibration
                if o == 0:
                    c = mr.calibration_stack(hw_i, recs_i, 0, rho)[1]
                else:
                    c = mr.calibrate(hw_i, recs_i, o, rho).c
                out[o].append(mean_rate_mc(hw_i, np.ones(2), rho, A0, NOISE, c,
                                           np.random.default_rng(kid)))
        trend[q] = {o: np.array(v) for o, v in out.items()}

    means2 = np.array([trend[2][o].mean() for o in orders])
    peak = int(np.argmax(means2))
    rise = trend[2][orders[peak]] - trend[2][0]
    fall = trend[2][orders[peak]] - trend[2][orders[-1]]
    rise_se = rise.std(ddof=1) / math.sqrt(len(rise))
    fall_se = fall.std(ddof=1) / math.sqrt(len(fall))
    rises_then_falls = (0 < peak < orders[-1]
                        and rise.mean() > 2 * rise_se and fall.mean() > 2 * fall_se)

    chain_ok = True
    for i in range(1, 6):
        a = trend[50][orders[i]]
        b = trend[50][orders[i + 1]]
        se = math.sqrt(a.std(ddof=1) ** 2 + b.std(ddof=1) ** 2) / math.sqrt(len(a))
        if b.mean() < a.mean() - 2 * se:
            chain_ok = False

    ok = rec_err <= 1e-8 and fit_err <= 0.01 and rises_then_falls and chain_ok
    _line(6, "polynomial estimation", ok,
          f"recovery {rec_err:.1e} (<=1e-8), fit {fit_err:.2%} (<=1%), "
          f"Q=2 peak@{orders[peak]} rise {rise.mean() / rise_se:.1f}se fall "
          f"{fall.mean() / fall_se:.1f}se, Q=50 non-decreasing {chain_ok}")
    assert rec_err <= 1e-8
    assert fit_err <= 0.01
    assert rises_then_falls
    assert chain_ok


def test_criterion_7_slp_optimizer():
    """SLP vs bisection on 100 instances; monotone progress; constraints."""
    instances, g0 = [], []
    for i, child in enumerate(np.random.SeedSequence(777).spawn(100)):
        rng = np.random.default_rng(child)
        m = (8, 64, 256)[i % 3]
        ibo = rng.uniform(3.0, 15.0)
        rho = 10.0 ** rng.uniform(-0.5, 1.5)
        hw = mr.draw_system_hardware(rng, m, max(1, m // 8), MIS,
                                     mr.a_sat_for_ibo(ibo, rho, m))
        model = mr.TrueMismatch(hw)
        sigma_x = hw.sigma_x(rho)
        c_max = float(np.exp(np.mean(np.log(hw.a_sat)))) / sigma_x
        history = []
        res = mr.slp_solve(model, sigma_x, rho, c_max, strict=False,
                           monitor=lambda it, c, g: history.append(g))
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
        assert float(np.sum(np.abs(res.c) ** 2 * sigma_x**2)) <= rho + 1e-9
        assert np.all(np.abs(res.c) <= c_max + 1e-9)
        instances.append((model, sigma_x, rho, c_max))
        g0.append(res.g0)
    oracle = slp_bisection_oracle(instances)
    worst = float(np.max(np.abs(np.array(g0) - oracle) / oracle))

    hw_eq = mr.draw_system_hardware(np.random.default_rng(0), 16, 2,
                                    mr.HardwareMismatch.none(), 2.0, ue_pilot_amp=1e-9)
    sigma_eq = hw_eq.sigma_x(1.0)
    res_eq = mr.slp_solve(mr.TrueMismatch(hw_eq), sigma_eq, 1.0, np.full(16, 5.0))
    equal = np.allclose(np.abs(res_eq.c), np.abs(res_eq.c[0]), rtol=1e-6)
    binding = float(np.sum(np.abs(res_eq.c) ** 2 * sigma_eq**2)) == pytest.approx(
        1.0, abs=1e-9)
    ok = worst <= 1e-4 and equal and binding
    _line(7, "SLP optimizer", ok,
          f"worst vs bisection {worst:.2e} (<=1e-4), equal-hardware equal "
          f"coefficients {equal}, binding power {binding}")
    assert worst <= 1e-4
    assert equal and binding


def test_criterion_8_end_to_end_calibration():
    """Figs. 6-7 trends: method ordering at IBO 10 dB; convergence at 25 dB."""
    def experiment(ibo, seed, n_hw=50):
        # one training set per hardware draw, shared by linear_rc and
        # poly_nrc, and every method scored on the same 400 channel draws,
        # as in the calibration scenarios of the CLI
        rho = 10.0 ** 1.8 / A0  # transmit SNR 18 dB
        rates = {kk: [] for kk in mr.CALIBRATION_METHODS}
        for child in np.random.SeedSequence(seed).spawn(n_hw):
            rng = np.random.default_rng(child)
            hw = mr.draw_system_hardware(rng, 32, 4, MIS,
                                         mr.a_sat_for_ibo(ibo, rho, 32))
            omega = mr.draw_inter_antenna_channel(rng, 32)
            plan = mr.PilotPlan.for_hardware(hw, 7, 10)
            training = mr.simulate_ota_training(hw, plan, omega, 1.0, "surrogate", rng)
            scored = mr.estimate_sindr_mc(hw, np.ones(4), rho, A0, NOISE, 400, 1,
                                          "surrogate", rng,
                                          c=mr.calibration_stack(hw, training, 5, rho))
            for name, breakdowns in zip(rates, scored):
                rates[name].append(np.mean([mr.rate_from_sindr(b.sindr)
                                            for b in breakdowns]))
        return {kk: np.array(v) for kk, v in rates.items()}

    r10 = experiment(10.0, 42)
    gaps = {}
    ordering_ok = True
    for hi, lo in (("perfect_nrc", "poly_nrc"), ("poly_nrc", "linear_rc"),
                   ("linear_rc", "none")):
        d = r10[hi] - r10[lo]
        se = d.std(ddof=1) / math.sqrt(len(d))
        gaps[f"{hi}>{lo}"] = d.mean() / se
        if d.mean() <= 2 * se:
            ordering_ok = False

    r25 = experiment(25.0, 43)
    diff = abs(r25["poly_nrc"].mean() - r25["linear_rc"].mean())
    se25 = math.sqrt(r25["poly_nrc"].std(ddof=1) ** 2
                     + r25["linear_rc"].std(ddof=1) ** 2) / math.sqrt(len(r25["none"]))
    converge_ok = diff <= 2 * se25

    ok = ordering_ok and converge_ok
    _line(8, "end-to-end calibration", ok,
          "IBO10 gaps(se): " + " ".join(f"{kk}={v:.1f}" for kk, v in gaps.items())
          + f"; IBO25 |poly-linear|={diff:.4f} vs 2se={2 * se25:.4f}")
    assert ordering_ok
    assert converge_ok


def test_criterion_9_overhead_accounting():
    m = 16
    counts = []
    for n_levels, q in ((5, 10), (7, 3), (3, 50)):
        hw = mr.draw_system_hardware(np.random.default_rng(0), m, 2, MIS, 2.0)
        plan = mr.PilotPlan.for_hardware(hw, n_levels, q)
        omega = mr.draw_inter_antenna_channel(np.random.default_rng(1), m)
        order = min(5, n_levels - 2)
        training = mr.simulate_ota_training(hw, plan, omega, 0.0, "surrogate",
                                            np.random.default_rng(2))
        res = mr.calibrate(hw, training, order, 1.0)
        counts.append(res.overhead == m * n_levels * q)
    ok = all(counts)
    _line(9, "overhead accounting", ok, f"M*N*Q exact for {sum(counts)}/3 configs")
    assert ok
