"""The ZF precoders of ``_kernels.zf_apply`` and, in ``analysis``, the
closed-form normalisation ``beta_zf_closed``, the downlink transmit chain
``transmit_block`` and ``estimate_sindr_mc``'s refusal of a zero
calibration vector."""

import math

import numpy as np
import pytest

import mimo_recal as mr
from mimo_recal import _kernels
from tests.conftest import beta_zf_empirical, one_channel, one_precoder


def _system(m, k, mismatch, a_sat, seed, rho=1.0):
    rng = np.random.default_rng(seed)
    hw = mr.draw_system_hardware(rng, m, k, mismatch, a_sat)
    phi = np.ones(k)
    return hw, phi, one_channel(rng, m, phi)


class TestZfPrecoder:
    """``_kernels.zf_apply``."""

    def test_inversion_residual(self, default_mismatch):
        hw, phi, h = _system(16, 4, default_mismatch, 10.0, 0)
        h_ul = _kernels.uplink(h, hw.bs_rx, hw.ue_tx_gain)
        w = _kernels.zf_apply(h_ul[None], 1.0)[0]
        resid = np.linalg.norm(h_ul.T @ w - np.eye(4))
        assert resid <= 1e-10

    def test_square_case_exact_inverse(self):
        rng = np.random.default_rng(1)
        h_ul = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        w = _kernels.zf_apply(h_ul[None], 4.0)[0]
        assert np.allclose(h_ul.T @ w, np.eye(5) / 2.0, atol=1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(2)
        h_ul = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        w1 = _kernels.zf_apply(h_ul[None], 1.0)[0]
        w2 = _kernels.zf_apply(3.0 * h_ul[None], 1.0)[0]
        assert np.allclose(w2, w1 / 3.0, atol=1e-12)

    def test_rank_deficiency_reported(self):
        h_ul = np.ones((1, 8, 2), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            _kernels.zf_apply(h_ul, 1.0)


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
                yield _kernels.uplink(one_channel(rng, 64, phi), hw.bs_rx, hw.ue_tx_gain)

        assert beta_zf_empirical(samples(2000)) == pytest.approx(closed, rel=0.02)

    def test_empirical_agreement_amplitude_spread(self, default_mismatch):
        # with log-normal |r_m| the inverse-Wishart step is approximate;
        # the systematic gap stays within a few percent at M=64, K=8
        hw = mr.draw_system_hardware(np.random.default_rng(2), 64, 8, default_mismatch, 1e6)
        phi = np.ones(8)
        closed = mr.beta_zf_closed(hw, phi)

        def samples(n):
            rng = np.random.default_rng(3)
            for _ in range(n):
                yield _kernels.uplink(one_channel(rng, 64, phi), hw.bs_rx, hw.ue_tx_gain)

        assert beta_zf_empirical(samples(2000)) == pytest.approx(closed, rel=0.05)

    def test_singular_draws_skipped(self):
        good = np.random.default_rng(0).standard_normal((8, 2)) + 0j
        bad = np.ones((8, 2), dtype=complex)  # rank-1 Gram
        with pytest.warns(RuntimeWarning):
            val = beta_zf_empirical([good, bad, good])
        ref = beta_zf_empirical([good, good])
        assert val == pytest.approx(ref)

    @pytest.mark.parametrize("samples", [[], iter(())])
    def test_no_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="no usable H_UL samples"):
            beta_zf_empirical(samples)

    def test_near_singular_draws_skipped(self):
        # a proportional column leaves the Gram exactly singular in theory but
        # invertible in floating point; the ZF rank rule must still reject it
        rng = np.random.default_rng(0)
        good = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        bad = good.copy()
        bad[:, 1] = (0.3 + 0.7j) * bad[:, 0]
        with pytest.raises(np.linalg.LinAlgError):
            _kernels.zf_apply(bad[None], 1.0)
        with pytest.warns(RuntimeWarning, match="skipped 1"):
            val = beta_zf_empirical([good, bad])
        assert val == pytest.approx(beta_zf_empirical([good]))

    def test_small_m_rejected(self, default_mismatch):
        hw = mr.draw_system_hardware(np.random.default_rng(4), 4, 3, default_mismatch, 1.0)
        with pytest.raises(ValueError):
            mr.beta_zf_closed(hw, np.ones(3))


def _symbols(rng, n, k, rho_t=1.0):
    """n i.i.d. CN(0, rho_t) symbols per UE, shape (n, k)."""
    return math.sqrt(rho_t / 2.0) * (rng.standard_normal((n, k))
                                     + 1j * rng.standard_normal((n, k)))


class TestTransmitDownlink:
    """``analysis.transmit_block``."""

    def test_ideal_noiseless_inversion(self):
        # no mismatch, linear regime, no noise: y_k = sqrt(a0) s_k / sqrt(beta)
        hw = mr.draw_system_hardware(np.random.default_rng(0), 16, 4,
                                     mr.HardwareMismatch.none(), 1e6, ue_pilot_amp=1e-9)
        phi = np.ones(4)
        h = one_channel(np.random.default_rng(1), 16, phi)
        beta = mr.beta_zf_closed(hw, phi)
        w = one_precoder(h, hw, beta)
        s = _symbols(np.random.default_rng(2), 32, 4)
        y = mr.transmit_block(hw, h, w, s)
        assert y.shape == (32, 4)
        assert np.allclose(y, math.sqrt(hw.a0) * s / math.sqrt(beta), rtol=1e-8)

    def test_precoder_stack_equals_single_calls(self, default_mismatch):
        # a (C, M, K) stack of precoders c_j W is the C single calls, bit for
        # bit, through amplifiers that saturate
        hw, phi, h = _system(16, 4, default_mismatch, 0.3, 3)
        w = one_precoder(h, hw, mr.beta_zf_closed(hw, phi))
        rng = np.random.default_rng(4)
        c = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        s = _symbols(rng, 32, 4)
        y = mr.transmit_block(hw, h, c[:, :, None] * w, s)
        assert y.shape == (3, 32, 4)
        for j in range(3):
            assert np.array_equal(y[j], mr.transmit_block(hw, h, c[j][:, None] * w, s))

    def _empirical_rms(self, hw, phi, n_draws, n_sym, seed):
        # rms of the pre-amplifier antenna samples x = s W^T over the draws
        beta = mr.beta_zf_closed(hw, phi)
        acc = np.zeros(hw.m)
        rng = np.random.default_rng(seed)
        for _ in range(n_draws):
            w = one_precoder(one_channel(rng, hw.m, phi), hw, beta)
            acc += np.sum(np.abs(_symbols(rng, n_sym, hw.k) @ w.T) ** 2, axis=0)
        return np.sqrt(acc / (n_draws * n_sym))

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
        # soft-limiter hardware at IBO 10 dB: the received power of the
        # sample-level chain agrees within 3% with its Bussgang expectation
        # a0 |u_k|^2 (rho_t ||(h_k o g) W||^2 + sum_m |h_km|^2 sigma_d,m^2)
        rho = 1.0
        a_sat = mr.a_sat_for_ibo(10.0, rho, 16)
        hw, phi, _ = _system(16, 4, default_mismatch, a_sat, 5)
        beta = mr.beta_zf_closed(hw, phi)
        pair = mr.bussgang_decompose(hw, hw.sigma_x(rho))
        u2 = np.abs(hw.ue_rx) ** 2
        power = {"surrogate": np.zeros(4), "physical": np.zeros(4)}
        ch_rng = np.random.default_rng(6)
        for seed in range(150):
            h = one_channel(ch_rng, 16, phi)
            w = one_precoder(h, hw, beta)
            s = _symbols(np.random.default_rng((7, seed)), 200, 4, rho)
            power["physical"] += np.mean(np.abs(mr.transmit_block(hw, h, w, s)) ** 2,
                                         axis=0)
            linear = np.sum(np.abs((h * pair.g) @ w) ** 2, axis=1)
            power["surrogate"] += hw.a0 * u2 * (rho * linear
                                                + np.abs(h) ** 2 @ pair.sigma_d2)
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
        # the chain's operating point rejects a bad rho_t
        hw, _, _ = _system(8, 2, default_mismatch, 1.0, 10)
        for rho_t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rho_t"):
                hw.sigma_x(rho_t)

    def test_surrogate_one_bussgang_call(self, default_mismatch, monkeypatch):
        # the Bussgang pairs of all M antennas come from one vector call, in
        # the closed form and in surrogate Monte Carlo, where one vector is
        # the one-row (1, M) stack
        from mimo_recal import hardware

        hw, phi, _ = _system(16, 4, default_mismatch, 1.0, 17)
        mu = hardware.bussgang_mu
        shapes = []
        monkeypatch.setattr(hardware, "bussgang_mu", lambda x: shapes.append(np.shape(x)) or mu(x))
        mr.sindr_zf_closed_all(hw, phi, 1.0, 1.0)
        assert shapes == [(16,)]
        shapes.clear()
        mr.estimate_sindr_mc(hw, phi, 1.0, 10.0, 1.0, 8, 1, "surrogate",
                             np.random.default_rng(18))
        assert shapes == [(1, 16)]


class TestApplyCalibration:
    """``estimate_sindr_mc`` refuses a zero calibration vector."""

    def test_zero_vector_rejected(self, default_mismatch):
        # diag(c) W with c = 0 sends nothing; both Monte-Carlo modes refuse it
        hw, phi, _ = _system(8, 2, default_mismatch, 1.0, 16)
        for mode in ("surrogate", "physical"):
            with pytest.raises(ValueError, match="calibration row 0"):
                mr.estimate_sindr_mc(hw, phi, 1.0, 10.0, 1.0, 4, 8, mode,
                                     np.random.default_rng(0), c=np.zeros(8, dtype=complex))


def test_zero_noise_interference_floor(default_mismatch):
    # ideal hardware, zero noise: inter-user interference vanishes numerically
    hw = mr.draw_system_hardware(np.random.default_rng(20), 16, 4,
                                 mr.HardwareMismatch.none(), 1e9, ue_pilot_amp=1e-9)
    phi = np.ones(4)
    h = one_channel(np.random.default_rng(21), 16, phi)
    beta = mr.beta_zf_closed(hw, phi)
    w = one_precoder(h, hw, beta)
    s = _symbols(np.random.default_rng(22), 64, 4)
    y = mr.transmit_block(hw, h, w, s)
    sig = np.mean(np.abs(y) ** 2)
    # what each UE receives beyond its own symbol through the effective channel
    cross = np.abs(y - math.sqrt(hw.a0) * s / math.sqrt(beta)) ** 2
    assert np.mean(cross) <= 1e-20 * sig
