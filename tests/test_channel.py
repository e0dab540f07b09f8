"""Propagation channel, path loss, and effective uplink assembly."""

import math

import numpy as np
import pytest
import scipy.stats

import mimo_recal as mr
from mimo_recal import _kernels, analysis
from tests.conftest import one_channel


class _FixedUniform:
    """Generator stand-in whose uniform draws all equal ``u``."""

    def __init__(self, u):
        self.u = u

    def uniform(self, low, high, size):
        return np.full(size, self.u)


class TestPathloss:
    def test_reference_distance(self):
        # u = 1 places every UE at the cell edge, where phi = ZETA
        phi = mr.draw_ue_pathloss(_FixedUniform(1.0), 4)
        assert np.allclose(phi, analysis.ZETA, rtol=1e-4)

    def test_min_distance_value(self):
        # u = 0 places every UE at the minimum distance 0.01: 0.01 * 0.01^-3.7
        phi = mr.draw_ue_pathloss(_FixedUniform(0.0), 4)
        assert np.allclose(phi, 0.01 * 10.0**7.4, rtol=1e-3)

    def test_area_uniform_placement(self):
        # P(d <= x) = (x^2 - r0^2)/(R^2 - r0^2) for area-uniform placement
        phi = mr.draw_ue_pathloss(np.random.default_rng(3), 200_000)
        d = (analysis.ZETA / phi) ** (1.0 / analysis.XI)
        r0, radius = analysis.MIN_DIST, analysis.CELL_RADIUS
        cdf = lambda x: (x**2 - r0**2) / (radius**2 - r0**2)
        stat = scipy.stats.kstest(d, cdf)
        assert stat.pvalue > 0.01

    @pytest.mark.parametrize("call, message", [
        (lambda: mr.draw_ue_pathloss(np.random.default_rng(0), 0), "k must be >= 1"),
    ], ids=["no-ue"])
    def test_bad_input_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestDrawChannel:
    def test_row_power(self):
        # a batch of draws with a path-loss spread of 1e4 in power, filled in
        # place: each row's mean-square is phi_k^2 and its pseudo-variance
        # E[h^2] vanishes
        phi = np.array([0.01, 0.1, 1.0, 3.0])
        out = np.empty((500, 4, 64), dtype=np.complex128)
        h = mr.draw_channels(np.random.default_rng(0), phi, out)
        assert h is out
        power = np.mean(np.abs(h) ** 2, axis=(0, 2))
        assert np.max(np.abs(power / phi**2 - 1.0)) <= 0.02
        assert np.all(np.abs(np.mean(h**2, axis=(0, 2))) <= 0.02 * phi**2)

    def test_deterministic(self):
        a = one_channel(np.random.default_rng(5), 8, np.ones(3))
        b = one_channel(np.random.default_rng(5), 8, np.ones(3))
        assert np.array_equal(a, b)

    def test_scalar_row_power(self):
        # 200,000 UE rows of one antenna each, amplitude 2: row power 4
        h = one_channel(np.random.default_rng(9), 1, np.full(200_000, 2.0))
        assert h.shape == (200_000, 1)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(4.0, rel=0.02)

    def test_one_generator_call_into_the_float_view(self):
        # re/im interleaved from one standard_normal stream, scaled by phi/sqrt(2)
        phi = np.array([0.5, 2.0])
        h = mr.draw_channels(np.random.default_rng(13), phi, np.empty((3, 2, 5), complex))
        z = np.random.default_rng(13).standard_normal((3, 2, 10))
        ref = phi[:, None] * (z[..., 0::2] + 1j * z[..., 1::2]) / np.sqrt(2.0)
        assert np.array_equal(h, ref)

    def test_invalid_phi(self):
        # a negative entry once ran on |phi|; phi must be K finite positive amplitudes
        for phi in ([1.0, -1.0], [1.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [1.0],
                    [1.0, 1.0, 1.0], [[1.0, 1.0]]):
            with pytest.raises(ValueError, match="phi"):
                mr.draw_channels(np.random.default_rng(0), phi, np.empty((2, 4), complex))


class TestUplinkChannel:
    """``_kernels.uplink``."""

    def test_identity_hardware(self, default_mismatch):
        hw = mr.draw_system_hardware(np.random.default_rng(1), 8, 3,
                                     mr.HardwareMismatch.none(), 1.0, ue_pilot_amp=1e-9)
        h = one_channel(np.random.default_rng(2), 8, np.ones(3))
        h_ul = _kernels.uplink(h, hw.bs_rx, hw.ue_tx_gain)
        assert np.allclose(h_ul, h.T, atol=1e-12)

    def test_row_scaling_linearity(self, default_mismatch):
        hw = mr.draw_system_hardware(np.random.default_rng(3), 8, 3, default_mismatch, 1.0)
        h = one_channel(np.random.default_rng(4), 8, np.ones(3))
        h1 = _kernels.uplink(h, hw.bs_rx, hw.ue_tx_gain)
        doubled = mr.SystemHardware(
            a0=hw.a0, t=hw.t, a_sat=hw.a_sat,
            bs_rx=hw.bs_rx * np.where(np.arange(8) == 2, 2.0, 1.0),
            ue_tx_gain=hw.ue_tx_gain, ue_rx=hw.ue_rx)
        h2 = _kernels.uplink(h, doubled.bs_rx, doubled.ue_tx_gain)
        assert np.allclose(h2[2], 2.0 * h1[2])
        assert np.allclose(h2[[0, 1, 3]], h1[[0, 1, 3]])

    def test_elementwise_triple_product(self, default_mismatch):
        hw = mr.draw_system_hardware(np.random.default_rng(5), 16, 4, default_mismatch, 1.0)
        h = one_channel(np.random.default_rng(6), 16, np.full(4, 0.7))
        h_ul = _kernels.uplink(h, hw.bs_rx, hw.ue_tx_gain)
        brute = np.empty_like(h_ul)
        for m in range(16):
            for k in range(4):
                brute[m, k] = hw.bs_rx[m] * h[k, m] * hw.ue_tx_gain[k]
        assert np.max(np.abs(h_ul - brute)) <= 1e-14

    def test_shared_propagation_matrix(self, default_mismatch):
        # reciprocity: the uplink assembly references the same H object used
        # downstream, only the RF matrices differ
        hw = mr.draw_system_hardware(np.random.default_rng(7), 8, 2, default_mismatch, 1.0)
        h = one_channel(np.random.default_rng(8), 8, np.ones(2))
        h_ul = _kernels.uplink(h, hw.bs_rx, hw.ue_tx_gain)
        recovered = h_ul / hw.bs_rx[:, None] / hw.ue_tx_gain[None, :]
        assert np.allclose(recovered, h.T, atol=1e-12)


def test_gram_inverse_diagonal_approximation(default_mismatch):
    # the off-diagonal mass of (H_UL^T H_UL^*)^{-1} shrinks as M grows
    k = 8
    ratios = []
    for m in (32, 128, 512):
        acc = 0.0
        for seed in range(20):
            rng = np.random.default_rng((m, seed))
            hw = mr.draw_system_hardware(rng, m, k, default_mismatch, 1e6)
            h_ul = _kernels.uplink(one_channel(rng, m, np.ones(k)), hw.bs_rx, hw.ue_tx_gain)
            inv = np.linalg.inv(h_ul.T @ np.conj(h_ul))
            off = inv - np.diag(np.diag(inv))
            acc += np.linalg.norm(off) / np.linalg.norm(np.diag(np.diag(inv)))
        ratios.append(acc / 20)
    assert ratios[0] > ratios[1] > ratios[2]
