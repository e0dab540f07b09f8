"""The zero-forcing power normalisation and the downlink transmit chain."""

from __future__ import annotations

import numpy as np

from .channel import _check_phi
from .hardware import SystemHardware, sspa_apply

__all__ = [
    "beta_zf_closed",
    "transmit_block",
]


def beta_zf_closed(hw: SystemHardware, phi) -> float:
    """Closed-form beta_ZF = M tr{(B Phi^2 B^*)^{-1}} / (tr{RR^*} (M-K)).

    ``phi`` follows the path-loss amplitude convention of the closed-form
    layer (channel row mean-square phi^2), and must be K finite positive
    entries (ValueError).
    """
    m, k = hw.m, hw.k
    phi = _check_phi(phi, k)
    if m <= k + 1:
        raise ValueError("closed-form beta needs M > K + 1")
    tr_b_phi2_inv = float(np.sum(1.0 / (np.abs(hw.ue_tx_gain) ** 2 * phi**2)))
    tr_rr = float(np.sum(np.abs(hw.bs_rx) ** 2))
    return m * tr_b_phi2_inv / (tr_rr * (m - k))


def transmit_block(hw: SystemHardware, h: np.ndarray, w: np.ndarray,
                   s: np.ndarray) -> np.ndarray:
    """Noiseless received block of the downlink chain: the (N, K) symbols s
    through the precoder w (M, K), the per-antenna SSPAs, the channel h
    (K, M) and the UE receive gains, U H f(W s).  Returns (N, K), or
    (C, N, K) for a (C, M, K) stack of precoders; the amplifier output
    carries sqrt(a0)."""
    return sspa_apply(hw, s @ np.swapaxes(w, -1, -2)) @ (hw.ue_rx[:, None] * h).T
