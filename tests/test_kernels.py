"""Kernel checks: the library's import footprint, and the batched
zero-forcing core against the single-draw precoder and the lhs-based
effective-channel kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimo_recal as mr
from mimo_recal import _kernels

from tests.conftest import ref_effective_channels


def test_cli_import_loads_neither_scipy_nor_numba():
    # every CLI run pays this import; scipy alone would add about 0.3 s and
    # 23 MB to it
    import subprocess
    import sys

    code = ("import sys, mimo_recal.cli;"
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numba'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@settings(max_examples=60, deadline=None)
@given(n_draws=st.integers(1, 8), k=st.integers(1, 6), m=st.integers(3, 40),
       seed=st.integers(0, 2**32 - 1))
def test_effective_channels_match_single_draw_precoder(n_draws, k, m, seed):
    m = max(m, k + 2)
    rng = np.random.default_rng(seed)
    hw = mr.draw_system_hardware(rng, m, k, mr.HardwareMismatch.uniform(0.05, np.pi / 6), 1.0)
    phi = rng.uniform(0.3, 2.0, k)
    h = np.sqrt(phi)[:, None] * (rng.standard_normal((n_draws, k, m))
                                 + 1j * rng.standard_normal((n_draws, k, m)))
    g = rng.lognormal(0.0, 0.2, m) * np.exp(1j * rng.uniform(-0.5, 0.5, m))
    beta = mr.beta_zf_closed(hw, phi)
    h_eq = _kernels.effective_channels(h, hw.bs_rx, hw.ue_tx_gain, hw.ue_rx, g, beta)
    assert h_eq.shape == (n_draws, k, k)
    for t in range(n_draws):
        h_ul = mr.uplink_channel(mr.ChannelRealization(h=h[t], phi=phi), hw)
        w = mr.zf_precoder(h_ul, beta).w
        # the textbook formula, with an explicit inverse, as an independent oracle
        w_ref = np.conj(h_ul) @ np.linalg.inv(h_ul.T @ np.conj(h_ul)) / math.sqrt(beta)
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))
        ref = hw.ue_rx[:, None] * (h[t] * g) @ w
        assert np.max(np.abs(h_eq[t] - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=80, deadline=None)
@given(n_draws=st.integers(1, 8), k=st.integers(1, 6), m=st.integers(3, 40),
       seed=st.integers(0, 2**32 - 1))
def test_effective_channels_match_lhs_reference(n_draws, k, m, seed):
    # the K x K-product kernel against H G H_UL^* solved through the Gram
    # matrix, with UE path loss spanning 1e7
    m = max(m, k + 2)
    rng = np.random.default_rng(seed)
    hw = mr.draw_system_hardware(rng, m, k, mr.HardwareMismatch.uniform(0.05, np.pi / 6), 1.0)
    phi = 10.0 ** rng.uniform(-3.5, 3.5, k)
    phi[[0, -1]] = 10.0 ** -3.5, 10.0 ** 3.5
    h = phi[:, None] * (rng.standard_normal((n_draws, k, m))
                        + 1j * rng.standard_normal((n_draws, k, m)))
    g = rng.lognormal(0.0, 0.2, m) * np.exp(1j * rng.uniform(-0.5, 0.5, m))
    beta = mr.beta_zf_closed(hw, phi)
    h_eq = _kernels.effective_channels(h, hw.bs_rx, hw.ue_tx_gain, hw.ue_rx, g, beta)
    ref = ref_effective_channels(h, hw.bs_rx, hw.ue_tx_gain, hw.ue_rx, g, beta)
    assert h_eq.shape == ref.shape == (n_draws, k, k)
    for t in range(n_draws):
        assert np.max(np.abs(h_eq[t] - ref[t])) <= 1e-12 * np.max(np.abs(ref[t]))


def test_effective_channels_names_the_singular_draw():
    rng = np.random.default_rng(6)
    hw = mr.draw_system_hardware(rng, 10, 4, mr.HardwareMismatch.uniform(0.05, np.pi / 6), 1.0)
    h = rng.standard_normal((3, 4, 10)) + 1j * rng.standard_normal((3, 4, 10))
    h[1, 3] = (0.3 - 2.0j) * h[1, 0]
    args = (hw.bs_rx, hw.ue_tx_gain, hw.ue_rx, np.ones(10), 1.0)
    with pytest.raises(np.linalg.LinAlgError, match=r"draw 1 of 3 \(cond="):
        _kernels.effective_channels(h, *args)
    with pytest.raises(np.linalg.LinAlgError, match=r"draw 41 of 90 \(cond="):
        _kernels.effective_channels(h, *args, first=40, total=90)


def test_zf_core_names_the_singular_draw():
    rng = np.random.default_rng(4)
    h_ul = rng.standard_normal((3, 10, 4)) + 1j * rng.standard_normal((3, 10, 4))
    h_ul[2, :, 3] = 2.0 * h_ul[2, :, 0]
    with pytest.raises(np.linalg.LinAlgError, match=r"draw 2 of 3 \(cond="):
        _kernels.zf_apply(h_ul, 1.0)
    h_ul[2, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match=r"draw 2 of 3 \(cond=inf\)"):
        _kernels.zf_apply(h_ul, 1.0)
    with pytest.raises(np.linalg.LinAlgError, match=r"draw 7 of 9 \(cond=inf\)"):
        _kernels.zf_apply(h_ul, 1.0, first=5, total=9)


def test_zf_core_ignores_column_scale():
    # scaling UE k's uplink column by d_k scales W's column k by 1/d_k; a
    # path-loss spread of 1e7 must neither trip the rank test nor cost accuracy
    rng = np.random.default_rng(5)
    h_ul = rng.standard_normal((4, 12, 3)) + 1j * rng.standard_normal((4, 12, 3))
    d = np.array([1e-4, 1.0, 1e3])
    w = _kernels.zf_apply(h_ul, 2.0)
    w_scaled = _kernels.zf_apply(h_ul * d, 2.0)
    assert np.max(np.abs(w_scaled * d - w)) <= 1e-12 * np.max(np.abs(w))
