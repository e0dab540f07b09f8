"""ZF precoder, normalisation scalar, downlink transmit chain, calibration hook."""

import math

import numpy as np
import pytest

import mimo_recal as mr


def _system(m, k, mismatch, a_sat, seed, rho=1.0):
    rng = np.random.default_rng(seed)
    hw = mr.draw_system_hardware(rng, m, k, mismatch, a_sat)
    phi = np.ones(k)
    ch = mr.draw_channel(rng, m, phi**2)
    return hw, phi, ch


class TestZfPrecoder:
    def test_inversion_residual(self, default_mismatch):
        hw, phi, ch = _system(16, 4, default_mismatch, 10.0, 0)
        h_ul = mr.uplink_channel(ch, hw)
        prec = mr.zf_precoder(h_ul, beta=1.0)
        resid = np.linalg.norm(h_ul.T @ prec.w - np.eye(4))
        assert resid <= 1e-10

    def test_square_case_exact_inverse(self):
        rng = np.random.default_rng(1)
        h_ul = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        prec = mr.zf_precoder(h_ul, beta=4.0)
        assert np.allclose(h_ul.T @ prec.w, np.eye(5) / 2.0, atol=1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        h_ul = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        w1 = mr.zf_precoder(h_ul, beta=1.0).w
        w2 = mr.zf_precoder(3.0 * h_ul, beta=1.0).w
        assert np.allclose(w2, w1 / 3.0, atol=1e-12)

    def test_rank_deficiency_reported(self):
        h_ul = np.ones((8, 2), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            mr.zf_precoder(h_ul, beta=1.0)


class TestBetaZf:
    def test_identity_hardware_closed_form(self):
        hw = mr.draw_system_hardware(np.random.default_rng(0), 64, 8,
                                     mr.HardwareMismatch.none(), 1.0, ue_pilot_amp=1e-9)
        beta = mr.beta_zf_closed(hw, np.ones(8))
        assert beta == pytest.approx(8.0 / 56.0, rel=1e-12)

    def test_scalar_ue_case(self):
        hw = mr.draw_system_hardware(np.random.default_rng(1), 16, 1,
                                     mr.HardwareMismatch.none(), 1.0, ue_pilot_amp=1e-9)
        phi = np.array([0.5])
        beta = mr.beta_zf_closed(hw, phi)
        tr_rr = float(np.sum(np.abs(hw.bs_rx) ** 2))
        assert beta == pytest.approx(16.0 / (tr_rr * 15.0 * 0.5**2), rel=1e-12)

    def test_empirical_agreement_exact_wishart(self):
        # constant |r_m| keeps the Gram exactly Wishart: the closed form is
        # exact and the empirical mean matches within MC error
        mis = mr.HardwareMismatch(a=mr.MismatchDistribution(0.05, 0.0),
                                  t=mr.MismatchDistribution(0.05, np.pi / 6),
                                  r=mr.MismatchDistribution(0.0, np.pi / 6),
                                  u=mr.MismatchDistribution(0.05, np.pi / 6),
                                  v=mr.MismatchDistribution(0.05, np.pi / 6))
        hw = mr.draw_system_hardware(np.random.default_rng(2), 64, 8, mis, 1e6)
        phi = np.random.default_rng(42).uniform(0.5, 2.0, 8)
        closed = mr.beta_zf_closed(hw, phi)

        def samples(n):
            rng = np.random.default_rng(3)
            for _ in range(n):
                yield mr.uplink_channel(mr.draw_channel(rng, 64, phi**2), hw)

        assert mr.beta_zf_empirical(samples(2000)) == pytest.approx(closed, rel=0.02)

    def test_empirical_agreement_amplitude_spread(self, default_mismatch):
        # with log-normal |r_m| the inverse-Wishart step is approximate;
        # the systematic gap stays within a few percent at M=64, K=8
        hw = mr.draw_system_hardware(np.random.default_rng(2), 64, 8, default_mismatch, 1e6)
        phi = np.ones(8)
        closed = mr.beta_zf_closed(hw, phi)

        def samples(n):
            rng = np.random.default_rng(3)
            for _ in range(n):
                yield mr.uplink_channel(mr.draw_channel(rng, 64, phi**2), hw)

        assert mr.beta_zf_empirical(samples(2000)) == pytest.approx(closed, rel=0.05)

    def test_singular_draws_skipped(self):
        good = np.random.default_rng(0).standard_normal((8, 2)) + 0j
        bad = np.ones((8, 2), dtype=complex)  # rank-1 Gram
        with pytest.warns(RuntimeWarning):
            val = mr.beta_zf_empirical([good, bad, good])
        ref = mr.beta_zf_empirical([good, good])
        assert val == pytest.approx(ref)

    def test_near_singular_draws_skipped(self):
        # a proportional column leaves the Gram exactly singular in theory but
        # invertible in floating point; the ZF rank rule must still reject it
        rng = np.random.default_rng(0)
        good = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        bad = good.copy()
        bad[:, 1] = (0.3 + 0.7j) * bad[:, 0]
        with pytest.raises(np.linalg.LinAlgError):
            mr.zf_precoder(bad, beta=1.0)
        with pytest.warns(RuntimeWarning, match="skipped 1"):
            val = mr.beta_zf_empirical([good, bad])
        assert val == pytest.approx(mr.beta_zf_empirical([good]))

    def test_small_m_rejected(self, default_mismatch):
        hw = mr.draw_system_hardware(np.random.default_rng(4), 4, 3, default_mismatch, 1.0)
        with pytest.raises(ValueError):
            mr.beta_zf_closed(hw, np.ones(3))


class TestTransmitDownlink:
    def test_ideal_noiseless_inversion(self):
        # no mismatch, linear regime, no noise: y_k = sqrt(a0) s_k / sqrt(beta)
        hw = mr.draw_system_hardware(np.random.default_rng(0), 16, 4,
                                     mr.HardwareMismatch.none(), 1e6, ue_pilot_amp=1e-9)
        phi = np.ones(4)
        ch = mr.draw_channel(np.random.default_rng(1), 16, phi**2)
        beta = mr.beta_zf_closed(hw, phi)
        prec = mr.zf_precoder(mr.uplink_channel(ch, hw), beta)
        outs = list(mr.transmit_downlink(prec, hw, ch, rho_t=1.0, n_symbols=32,
                                         mode="physical", noise_var=0.0,
                                         rng=np.random.default_rng(2)))
        assert len(outs) == 32
        for out in outs:
            expected = math.sqrt(hw.a0) * out.s / math.sqrt(beta)
            assert np.allclose(out.y, expected, rtol=1e-8)

    def _empirical_rms(self, hw, phi, n_draws, n_sym, seed):
        beta = mr.beta_zf_closed(hw, phi)
        acc = np.zeros(hw.m)
        n = 0
        rng = np.random.default_rng(seed)
        for _ in range(n_draws):
            ch = mr.draw_channel(rng, hw.m, phi**2)
            prec = mr.zf_precoder(mr.uplink_channel(ch, hw), beta)
            for out in mr.transmit_downlink(prec, hw, ch, 1.0, n_sym, "surrogate",
                                            0.0, rng):
                acc += np.abs(out.x_b) ** 2
                n += 1
        return np.sqrt(acc / n)

    def test_per_antenna_rms_matches_closed_form(self):
        # sigma_x,m is an ensemble quantity; with constant |r_m| the formula
        # is exact by symmetry and the 1e5-symbol average matches within 2%
        mis = mr.HardwareMismatch(a=mr.MismatchDistribution(0.05, 0.0),
                                  t=mr.MismatchDistribution(0.05, np.pi / 6),
                                  r=mr.MismatchDistribution(0.0, np.pi / 6),
                                  u=mr.MismatchDistribution(0.05, np.pi / 6),
                                  v=mr.MismatchDistribution(0.05, np.pi / 6))
        hw = mr.draw_system_hardware(np.random.default_rng(3), 64, 8, mis, 1e6)
        emp = self._empirical_rms(hw, np.ones(8), 4000, 25, 4)
        sigma_closed = hw.sigma_x(1.0)
        assert np.max(np.abs(emp - sigma_closed) / sigma_closed) < 0.02

    def test_per_antenna_rms_amplitude_spread_bias(self, default_mismatch):
        # log-normal |r_m| gives the closed-form per-antenna rms a leverage
        # bias; it stays bounded and the total power follows the beta ratio
        hw = mr.draw_system_hardware(np.random.default_rng(3), 64, 8,
                                     default_mismatch, 1e6)
        emp = self._empirical_rms(hw, np.ones(8), 2500, 25, 4)
        sigma_closed = hw.sigma_x(1.0)
        rel = np.abs(emp - sigma_closed) / sigma_closed
        assert np.max(rel) < 0.20
        assert np.mean(rel) < 0.06

    def test_surrogate_physical_power_agreement(self, default_mismatch):
        # soft-limiter hardware at IBO 10 dB: received power agrees within 3%
        # (channel draws paired across the two modes)
        rho = 1.0
        a_sat = mr.a_sat_for_ibo(10.0, rho, 16)
        hw, phi, ch = _system(16, 4, default_mismatch, a_sat, 5)
        beta = mr.beta_zf_closed(hw, phi)
        power = {"surrogate": np.zeros(4), "physical": np.zeros(4)}
        n = 0
        ch_rng = np.random.default_rng(6)
        for seed in range(150):
            ch_i = mr.draw_channel(ch_rng, 16, phi**2)
            prec = mr.zf_precoder(mr.uplink_channel(ch_i, hw), beta)
            for mode in power:
                rng = np.random.default_rng((7, seed))
                for out in mr.transmit_downlink(prec, hw, ch_i, rho, 200, mode, 0.0, rng):
                    power[mode] += np.abs(out.y) ** 2
            n += 200
        rel = np.abs(power["surrogate"] - power["physical"]) / power["physical"]
        assert np.max(rel) < 0.03

    def test_moment_power_accounting(self, default_mismatch):
        # a0 rho E{|h_eq,kk|^2} = es + si from the estimator's moments
        rho = 1.0
        a_sat = mr.a_sat_for_ibo(10.0, rho, 32)
        hw, phi, _ = _system(32, 4, default_mismatch, a_sat, 8)
        bs = mr.estimate_sindr_mc(hw, phi, rho, 10.0, 1.0, 4000, 1, "surrogate",
                                  np.random.default_rng(9))
        for b in bs:
            assert b.es >= 0 and b.si >= 0
        # es + si equals a0 rho E|h_kk|^2 by construction of the estimator;
        # verify the decomposition is internally consistent
        assert all(b.sindr == pytest.approx(b.es / (b.si + b.mui + b.nld + b.noise))
                   for b in bs)

    def test_parameter_validation(self, default_mismatch):
        hw, phi, ch = _system(8, 2, default_mismatch, 1.0, 10)
        prec = mr.zf_precoder(mr.uplink_channel(ch, hw), 1.0)
        with pytest.raises(ValueError):
            list(mr.transmit_downlink(prec, hw, ch, -1.0, 4, "surrogate", 0.0,
                                      np.random.default_rng(0)))
        with pytest.raises(ValueError):
            list(mr.transmit_downlink(prec, hw, ch, 1.0, 4, "bogus", 0.0,
                                      np.random.default_rng(0)))

    def test_surrogate_one_bussgang_call(self, default_mismatch, monkeypatch):
        # the Bussgang pairs of all M antennas come from one vector call
        from mimo_recal import hardware

        hw, phi, ch = _system(16, 4, default_mismatch, 1.0, 17)
        prec = mr.zf_precoder(mr.uplink_channel(ch, hw), mr.beta_zf_closed(hw, phi))
        mu = hardware.bussgang_mu
        shapes = []
        monkeypatch.setattr(hardware, "bussgang_mu", lambda x: shapes.append(np.shape(x)) or mu(x))
        list(mr.transmit_downlink(prec, hw, ch, 1.0, 8, "surrogate", 0.0,
                                  np.random.default_rng(18)))
        assert shapes == [(16,)]


class TestApplyCalibration:
    def test_unit_vector_identity(self, default_mismatch):
        hw, phi, ch = _system(8, 2, default_mismatch, 1.0, 11)
        prec = mr.zf_precoder(mr.uplink_channel(ch, hw), 1.0)
        cal = mr.apply_calibration(prec, np.ones(8, dtype=complex))
        assert np.array_equal(cal.w, prec.w)
        assert cal.mode == "calibrated"

    def test_common_phase_leaves_sindr(self, default_mismatch):
        rho = 1.0
        a_sat = mr.a_sat_for_ibo(10.0, rho, 16)
        hw = mr.draw_system_hardware(np.random.default_rng(12), 16, 4,
                                     default_mismatch, a_sat)
        phi = np.ones(4)
        base = mr.estimate_sindr_mc(hw, phi, rho, 10.0, 1.0, 500, 1, "surrogate",
                                    np.random.default_rng(13))
        rot = mr.estimate_sindr_mc(hw, phi, rho, 10.0, 1.0, 500, 1, "surrogate",
                                   np.random.default_rng(13),
                                   c=np.exp(0.4j) * np.ones(16))
        for a, b in zip(base, rot):
            assert b.sindr == pytest.approx(a.sindr, rel=1e-9)

    def test_renormalised_power_preserved(self, default_mismatch):
        hw, phi, ch = _system(8, 2, default_mismatch, 1.0, 14)
        prec = mr.zf_precoder(mr.uplink_channel(ch, hw), 1.0)
        rng = np.random.default_rng(15)
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        cal = mr.apply_calibration(prec, c, renormalize=True)
        assert np.sum(np.abs(cal.w) ** 2) == pytest.approx(np.sum(np.abs(prec.w) ** 2),
                                                           rel=1e-10)

    def test_zero_vector_rejected(self, default_mismatch):
        hw, phi, ch = _system(8, 2, default_mismatch, 1.0, 16)
        prec = mr.zf_precoder(mr.uplink_channel(ch, hw), 1.0)
        with pytest.raises(ValueError):
            mr.apply_calibration(prec, np.zeros(8, dtype=complex))


def test_zero_noise_interference_floor(default_mismatch):
    # ideal hardware, zero noise: inter-user interference vanishes numerically
    hw = mr.draw_system_hardware(np.random.default_rng(20), 16, 4,
                                 mr.HardwareMismatch.none(), 1e9, ue_pilot_amp=1e-9)
    phi = np.ones(4)
    ch = mr.draw_channel(np.random.default_rng(21), 16, phi**2)
    prec = mr.zf_precoder(mr.uplink_channel(ch, hw), mr.beta_zf_closed(hw, phi))
    outs = list(mr.transmit_downlink(prec, hw, ch, 1.0, 64, "physical", 0.0,
                                     np.random.default_rng(22)))
    sig = np.mean([np.abs(o.y) ** 2 for o in outs])
    cross = []
    for o in outs:
        # reconstruct what UE k receives from symbol i != k via the effective channel
        y_pred = math.sqrt(hw.a0) * o.s / math.sqrt(prec.beta)
        cross.append(np.abs(o.y - y_pred) ** 2)
    assert np.mean(cross) <= 1e-20 * sig
