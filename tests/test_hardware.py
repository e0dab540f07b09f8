"""RF-chain models: SSPA transfer, Bussgang decomposition, hardware draws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimo_recal as mr


def _random_hardware(rng, m):
    """BS hardware with random transmit gains and saturation levels."""
    t = rng.lognormal(0.0, 0.2, m) * np.exp(1j * rng.uniform(-0.5, 0.5, m))
    return mr.SystemHardware(a0=10.0, t=t, a_sat=rng.lognormal(0.0, 0.5, m),
                             bs_rx=np.ones(m, complex), ue_tx_gain=np.ones(1, complex),
                             ue_rx=np.ones(1, complex))


def _antenna(hw, i):
    """Antenna i of the BS hardware as one amplifier."""
    return mr.HpaModel(a0=hw.a0, t=hw.t[i], a_sat=hw.a_sat[i])


def _one(a0, t, a_sat):
    """One amplifier as BS hardware with one antenna."""
    return mr.SystemHardware(a0=a0, t=np.array([t], complex), a_sat=np.array([a_sat]),
                             bs_rx=np.ones(1, complex), ue_tx_gain=np.ones(1, complex),
                             ue_rx=np.ones(1, complex))


def _apply(one, x):
    """``sspa_apply`` of a one-antenna hardware on samples x of any shape."""
    return mr.sspa_apply(one, np.asarray(x, complex)[..., None])[..., 0]


class TestSystemHardware:
    def _fields(self, **over):
        fields = dict(a0=10.0, t=np.ones(4, complex), a_sat=np.full(4, 2.0),
                      bs_rx=np.ones(4, complex), ue_tx_gain=np.ones(2, complex),
                      ue_rx=np.ones(2, complex))
        return {**fields, **over}

    def test_valid(self):
        hw = mr.SystemHardware(**self._fields())
        assert (hw.m, hw.k, hw.a0) == (4, 2, 10.0)

    @pytest.mark.parametrize("name,value", [
        ("t", np.ones(3, complex)), ("a_sat", np.full(5, 2.0)), ("bs_rx", np.ones(3, complex)),
        ("ue_rx", np.ones(3, complex))])
    def test_length_mismatch(self, name, value):
        with pytest.raises(ValueError, match="same length"):
            mr.SystemHardware(**self._fields(**{name: value}))

    @pytest.mark.parametrize("name,value", [
        ("a0", 0.0), ("a0", -1.0), ("a_sat", np.array([2.0, 2.0, 0.0, 2.0])),
        ("a_sat", np.array([2.0, -1.0, 2.0, 2.0]))])
    def test_non_positive_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            mr.SystemHardware(**self._fields(**{name: value}))

    def test_dead_receive_chain_rejected(self):
        bs_rx = np.array([1.0, 1.0, 0.0, 1.0], complex)
        with pytest.raises(ValueError, match=r"receive chains must be live \(no zero entries"):
            mr.SystemHardware(**self._fields(bs_rx=bs_rx))


@pytest.mark.parametrize("a0, a_sat", [(math.nan, 1.0), (1.0, math.nan), (0.0, 1.0),
                                        (1.0, -2.0)])
def test_hpa_model_rejects_nan_and_non_positive(a0, a_sat):
    with pytest.raises(ValueError, match="(a0|a_sat) must be finite and positive"):
        mr.HpaModel(a0=a0, t=1.0 + 0j, a_sat=a_sat)


class TestDrawSystemHardware:
    def test_degenerate_draw(self):
        rng = np.random.default_rng(0)
        hw = mr.draw_system_hardware(rng, 8, 2, mr.HardwareMismatch.none(), 2.0,
                                     ue_pilot_amp=1e-9)
        assert np.allclose(hw.t, 1.0)
        assert np.allclose(hw.bs_rx, 1.0)
        assert np.allclose(hw.ue_rx, 1.0)
        assert np.allclose(hw.ue_tx_gain, 1.0, atol=1e-12)
        assert np.allclose(hw.a_sat, 2.0)

    def test_log_normal_spread(self, default_mismatch):
        rng = np.random.default_rng(1)
        hw = mr.draw_system_hardware(rng, 256, 20, default_mismatch, 2.0)
        assert np.var(np.log(np.abs(hw.t))) == pytest.approx(0.05, rel=0.30)

    def test_deterministic(self, default_mismatch):
        a = mr.draw_system_hardware(np.random.default_rng(7), 16, 4, default_mismatch, 2.0)
        b = mr.draw_system_hardware(np.random.default_rng(7), 16, 4, default_mismatch, 2.0)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.bs_rx, b.bs_rx)
        assert np.array_equal(a.ue_tx_gain, b.ue_tx_gain)

    def test_dimension_validation(self, default_mismatch):
        with pytest.raises(ValueError):
            mr.draw_system_hardware(np.random.default_rng(0), 4, 4, default_mismatch, 1.0)

    def test_ue_gain_compression(self):
        # b_k evaluates the UE amplifier gain at the pilot amplitude
        rng = np.random.default_rng(3)
        hw = mr.draw_system_hardware(rng, 8, 2, mr.HardwareMismatch.none(), 2.0,
                                     ue_pilot_amp=1.0)
        assert np.allclose(np.abs(hw.ue_tx_gain), 1.0 / math.sqrt(2.0))


class TestSspaApply:
    def test_zero(self):
        assert _apply(_one(10.0, 1.0, 1.0), 0.0) == 0.0

    def test_small_signal_linearity(self):
        t = 0.8 + 0.1j
        x = 2e-6 * np.exp(0.7j)
        expected = math.sqrt(10.0) * t * x
        assert abs(_apply(_one(10.0, t, 2.0), x) - expected) / abs(expected) < 1e-9

    def test_saturation_point(self):
        # |x| = a_sat: output amplitude sqrt(a0)|t| a_sat / sqrt(2)
        out = _apply(_one(4.0, 1.2 * np.exp(0.3j), 1.5), 1.5 + 0.0j)
        assert abs(out) == pytest.approx(2.0 * 1.2 * 1.5 / math.sqrt(2.0), rel=1e-12)

    def test_phase_preserved(self):
        x = 3.0 * np.exp(1.1j)
        assert np.angle(_apply(_one(1.0, 1.0, 1.0), x)) == pytest.approx(1.1, abs=1e-12)

    def test_bounded_output(self):
        x = np.linspace(0, 1e4, 100) * np.exp(0.2j)
        assert np.all(np.abs(_apply(_one(1.0, 1.0, 1.0), x)) < 1.0)

    @given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_amplitude_monotone(self, r1, r2):
        one = _one(2.0, 1.0 + 0.5j, 1.3)
        lo, hi = sorted((r1, r2))
        assert abs(_apply(one, lo)) <= abs(_apply(one, hi)) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_whole_hardware_matches_per_antenna(self, n, m, seed):
        rng = np.random.default_rng(seed)
        hw = _random_hardware(rng, m)
        x = rng.lognormal(0.0, 1.0, (n, m)) * np.exp(2j * np.pi * rng.uniform(size=(n, m)))
        out = mr.sspa_apply(hw, x)
        ref = np.stack([_apply(_one(hw.a0, hw.t[i], hw.a_sat[i]), x[:, i]) for i in range(m)],
                       axis=1)
        assert np.max(np.abs(out - ref) / np.abs(ref)) <= 1e-14

    @pytest.mark.parametrize("shape", [(5, 1), (5, 5), ()], ids=["one-antenna", "m-plus-1", "0-d"])
    def test_whole_hardware_needs_m_antennas_on_last_axis(self, shape):
        # an (N, 1) stream or a scalar was broadcast into all M amplifiers
        hw = _random_hardware(np.random.default_rng(0), 4)
        with pytest.raises(ValueError, match="M = 4"):
            mr.sspa_apply(hw, np.ones(shape, complex))

    def test_single_amplifier_keeps_any_shape(self):
        # the antenna axis comes last, after any leading axes
        one = _one(2.0, 0.9 + 0.1j, 1.3)
        out = mr.sspa_apply(one, np.array([0.5 + 0.2j]))
        block = mr.sspa_apply(one, np.full((2, 3, 7, 1), 0.5 + 0.2j))
        assert block.shape == (2, 3, 7, 1)
        assert block[1, 2, 6, 0] == out[0]

    def test_zero_maps_to_zero(self):
        hw = _random_hardware(np.random.default_rng(1), 6)
        out = mr.sspa_apply(hw, np.zeros((3, 6), complex))
        assert out.shape == (3, 6) and np.all(out == 0)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), m=st.integers(1, 6))
    def test_matches_textbook_transfer(self, data, n, m):
        # the envelope factor is formed from re^2 + im^2 and multiplied into
        # both parts, in place; |x|/A spans the linear to the deeply saturated
        # regime
        def floats(lo, hi, size):
            return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=size,
                                               max_size=size)))

        t = floats(0.1, 10.0, m) * np.exp(1j * floats(-math.pi, math.pi, m))
        a_sat = floats(1e-3, 1e3, m)
        hw = mr.SystemHardware(a0=10.0, t=t, a_sat=a_sat, bs_rx=np.ones(m, complex),
                               ue_tx_gain=np.ones(1, complex), ue_rx=np.ones(1, complex))
        ratio = floats(1e-6, 1e6, n * m).reshape(n, m)
        x = ratio * a_sat * np.exp(1j * floats(-math.pi, math.pi, n * m).reshape(n, m))
        before = x.copy()
        out = mr.sspa_apply(hw, x)
        ref = math.sqrt(hw.a0) * t * x / np.sqrt(1.0 + (np.abs(x) / a_sat) ** 2)
        assert np.array_equal(x, before)
        assert np.max(np.abs(out - ref) / np.abs(ref)) <= 2e-15


class TestBussgangDecompose:
    def test_linear_regime(self):
        # 1 - mu(x) = 1/x^2 + O(1/x^4): |g - t| ~ |t|/x^2
        hpa = mr.HpaModel(a0=10.0, t=0.9 + 0.2j, a_sat=40.0)
        pair = mr.bussgang_decompose(hpa, 1.0)
        assert abs(pair.g - hpa.t) < 1e-3
        assert pair.sigma_d2 < 1e-6  # lambda ~ sigma^6/(2 a_sat^4)
        deep = mr.bussgang_decompose(mr.HpaModel(a0=10.0, t=0.9 + 0.2j,
                                                 a_sat=2000.0), 1.0)
        assert abs(deep.g - hpa.t) < 1e-5

    def test_unit_drive(self):
        hpa = mr.HpaModel(a0=1.0, t=1.0 + 0j, a_sat=1.0)
        pair = mr.bussgang_decompose(hpa, 1.0)
        assert pair.g == pytest.approx(mr.bussgang_mu(1.0), rel=1e-12)
        assert pair.sigma_d2 == pytest.approx(mr.bussgang_lambda(1.0, 1.0), rel=1e-12)

    def test_mc_regression_recovery(self):
        # sample-level SSPA regressed over 1e6 Gaussian samples
        hpa = mr.HpaModel(a0=9.0, t=1.1 - 0.3j, a_sat=1.7)
        sigma = 1.3
        pair = mr.bussgang_decompose(hpa, sigma)
        rng = np.random.default_rng(5)
        x = (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000))
        x *= sigma / np.sqrt(2.0)
        f = _apply(_one(hpa.a0, hpa.t, hpa.a_sat), x) / math.sqrt(hpa.a0)
        g_hat = np.vdot(x, f) / np.vdot(x, x)
        assert abs(g_hat - pair.g) < 1e-3

    def test_mc_distortion_variance(self):
        hpa = mr.HpaModel(a0=1.0, t=0.8 + 0.4j, a_sat=1.2)
        sigma = 1.0
        pair = mr.bussgang_decompose(hpa, sigma)
        rng = np.random.default_rng(6)
        total = 0.0
        count = 0
        for _ in range(10):
            x = (rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000))
            x *= sigma / np.sqrt(2.0)
            f = _apply(_one(hpa.a0, hpa.t, hpa.a_sat), x)
            total += float(np.sum(np.abs(f - pair.g * x) ** 2))
            count += len(x)
        assert total / count == pytest.approx(pair.sigma_d2, rel=0.03)

    def test_domain_error(self):
        hpa = mr.HpaModel(a0=1.0, t=1.0 + 0j, a_sat=1.0)
        with pytest.raises(ValueError):
            mr.bussgang_decompose(hpa, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_whole_hardware_matches_per_antenna(self, m, seed):
        # each value depends on its own antenna only, so the vector pair is
        # the per-antenna pairs bit for bit
        rng = np.random.default_rng(seed)
        hw = _random_hardware(rng, m)
        sigma = rng.lognormal(0.0, 1.0, m)
        pair = mr.bussgang_decompose(hw, sigma)
        for i in range(m):
            ref = mr.bussgang_decompose(_antenna(hw, i), sigma[i])
            assert pair.g[i] == ref.g
            assert pair.sigma_d2[i] == ref.sigma_d2

    @pytest.mark.parametrize("sigma", [math.nan, np.array([1.0, math.nan])])
    def test_nan_rms_rejected(self, sigma):
        hpa = mr.HpaModel(a0=1.0, t=1.0 + 0j, a_sat=1.0)
        with pytest.raises(ValueError, match="sigma_x"):
            mr.bussgang_decompose(hpa, sigma)


class TestIbo:
    def test_a_sat_for_ibo(self):
        # IBO = 10 log10(A_sat / sigma_x): amplitude ratio under 10log10
        a = mr.a_sat_for_ibo(10.0, 4.0, 16)
        assert 10.0 * math.log10(a / math.sqrt(4.0 / 16)) == pytest.approx(10.0)

    @pytest.mark.parametrize("ibo, rho_t", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
                                            (10.0, math.nan), (10.0, math.inf), (10.0, 0.0)])
    def test_non_finite_rejected(self, ibo, rho_t):
        # a NaN ibo or rho_t gave a NaN level, and an infinite ibo an infinite one
        with pytest.raises(ValueError, match="(ibo|rho_t) must be finite"):
            mr.a_sat_for_ibo(ibo, rho_t, 16)


def test_sigma_x_profile(default_mismatch):
    # per-antenna rms |r_m| sqrt(rho/tr RR*) sums to the power budget
    hw = mr.draw_system_hardware(np.random.default_rng(8), 32, 4, default_mismatch, 2.0)
    sigma = hw.sigma_x(rho_t=2.5)
    assert float(np.sum(sigma**2)) == pytest.approx(2.5, rel=1e-12)
