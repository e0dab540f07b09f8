"""Zero-forcing precoding, power normalisation and the downlink transmit chain."""

from __future__ import annotations

import warnings
from typing import Iterable

import numpy as np

from . import _kernels
from .channel import _check_phi
from .hardware import SystemHardware, sspa_apply
from .numerics import _check_positive

__all__ = [
    "zf_precoder",
    "beta_zf_closed",
    "beta_zf_empirical",
    "transmit_block",
]


def zf_precoder(h_ul: np.ndarray, beta: float) -> np.ndarray:
    """ZF precoder W = (1/sqrt(beta)) H_UL^* (H_UL^T H_UL^*)^{-1}, shape (M, K);
    raises LinAlgError for a rank-deficient Gram matrix
    (``_kernels.equilibrated_gram``)."""
    m, k = h_ul.shape
    if m < k:
        raise ValueError("ZF requires M >= K")
    _check_positive("beta", beta)
    return _kernels.zf_apply(h_ul[None], beta)[0]


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


def beta_zf_empirical(h_ul_samples: Iterable[np.ndarray]) -> float:
    """Monte-Carlo mean of tr[(H_UL^T H_UL^*)^{-1}]; rank-deficient draws
    (``_kernels.equilibrated_gram``) are skipped with a warning."""
    traces = []
    skipped = 0
    for h_ul in h_ul_samples:
        gram, s, cond = _kernels.equilibrated_gram(h_ul.T @ np.conj(h_ul))
        if not cond <= _kernels.ZF_COND_MAX:
            skipped += 1
            continue
        # tr(Gram^{-1}) = tr(S E^{-1} S) for the equilibrated E = S Gram S
        traces.append(np.sum(s**2 * np.real(np.diagonal(np.linalg.inv(gram)))))
    if skipped:
        warnings.warn(f"beta_zf_empirical skipped {skipped} rank-deficient draws", RuntimeWarning)
    if not traces:
        raise ValueError("no usable H_UL samples")
    return float(np.mean(traces))


def transmit_block(hw: SystemHardware, h: np.ndarray, w: np.ndarray,
                   s: np.ndarray) -> np.ndarray:
    """Noiseless received block of the downlink chain: the (N, K) symbols s
    through the precoder w (M, K), the per-antenna SSPAs, the channel h
    (K, M) and the UE receive gains, U H f(W s).  Returns (N, K), or
    (C, N, K) for a (C, M, K) stack of precoders; the amplifier output
    carries sqrt(a0)."""
    return sspa_apply(hw, s @ np.swapaxes(w, -1, -2)) @ (hw.ue_rx[:, None] * h).T
