"""Zero-forcing precoding, power normalisation and the downlink transmit chain."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

import numpy as np

from . import _kernels
from .channel import ChannelRealization
from .hardware import SystemHardware, bussgang_decompose, sspa_apply

__all__ = [
    "Precoder",
    "DownlinkOutcome",
    "zf_precoder",
    "beta_zf_closed",
    "beta_zf_empirical",
    "transmit_downlink",
    "apply_calibration",
]


@dataclass(frozen=True)
class Precoder:
    """ZF precoding matrix W (M x K) with the normalisation scalar used."""

    w: np.ndarray
    beta: float
    mode: Literal["plain", "calibrated"] = "plain"

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("precoder columns must be finite")


@dataclass(frozen=True)
class DownlinkOutcome:
    """One downlink symbol slot: received samples y (K,), pre-HPA antenna
    samples x_b (M,), the per-antenna rms used, and the sent symbols s."""

    y: np.ndarray
    x_b: np.ndarray
    sigma_x: np.ndarray
    s: np.ndarray


def zf_precoder(h_ul: np.ndarray, beta: float) -> Precoder:
    """W = (1/sqrt(beta)) H_UL^* (H_UL^T H_UL^*)^{-1}; raises LinAlgError for a
    rank-deficient Gram matrix (``_kernels.equilibrated_gram``)."""
    m, k = h_ul.shape
    if m < k:
        raise ValueError("ZF requires M >= K")
    return Precoder(w=_kernels.zf_apply(h_ul[None], beta)[0], beta=float(beta))


def beta_zf_closed(hw: SystemHardware, phi, m: int | None = None, k: int | None = None) -> float:
    """Closed-form beta_ZF = M tr{(B Phi^2 B^*)^{-1}} / (tr{RR^*} (M-K)).

    ``phi`` follows the path-loss amplitude convention of the closed-form
    layer (channel row mean-square phi^2).
    """
    phi = np.asarray(phi, dtype=np.float64)
    m = hw.m if m is None else m
    k = hw.k if k is None else k
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


def transmit_downlink(
    prec: Precoder,
    hw: SystemHardware,
    ch: ChannelRealization,
    rho_t: float,
    n_symbols: int,
    mode: Literal["physical", "surrogate"],
    noise_var: float,
    rng: np.random.Generator,
    chunk: int = 2048,
) -> Iterator[DownlinkOutcome]:
    """Stream downlink symbol slots through the per-antenna transmit chain.

    Symbols are i.i.d. CN(0, rho_t) per UE.  Physical mode pushes every
    antenna sample through its SSPA; surrogate mode applies the Bussgang pair
    computed at the closed-form per-antenna rms sigma_x,m^2 =
    |r_m|^2 rho_t / tr{RR^*}.  The receiver applies U H and adds noise.
    """
    if rho_t <= 0:
        raise ValueError("rho_t must be positive")
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    m, k = prec.w.shape
    if m != hw.m or k != hw.k or ch.h.shape != (k, m):
        raise ValueError("inconsistent dimensions between precoder, hardware and channel")

    sigma_x = hw.sigma_x(rho_t)
    sqrt_a0 = math.sqrt(hw.a0)
    if mode == "surrogate":
        pair = bussgang_decompose(hw, sigma_x)
        g, sd = pair.g, np.sqrt(pair.sigma_d2)
    elif mode != "physical":
        raise ValueError(f"unknown mode {mode!r}")

    uh = hw.ue_rx[:, None] * ch.h  # K x M
    done = 0
    while done < n_symbols:
        n = min(chunk, n_symbols - done)
        s = math.sqrt(rho_t / 2.0) * (
            rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        )
        x_b = s @ prec.w.T  # n x M
        if mode == "physical":
            x_hat = sspa_apply(hw, x_b)
        else:
            d = sd[None, :] / math.sqrt(2.0) * (
                rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            )
            x_hat = sqrt_a0 * (x_b * g[None, :] + d)
        y = x_hat @ uh.T
        if noise_var > 0:
            y += math.sqrt(noise_var / 2.0) * (
                rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            )
        for j in range(n):
            yield DownlinkOutcome(y=y[j], x_b=x_b[j], sigma_x=sigma_x, s=s[j])
        done += n


def apply_calibration(prec: Precoder, c: np.ndarray, renormalize: bool = False) -> Precoder:
    """Calibrated precoder diag(c) W.

    With ``renormalize`` (the linear-calibration path) the result is rescaled
    so the total transmit power tr{W_c W_c^H} matches the uncalibrated
    precoder; the nonlinear path applies diag(c) directly and leaves power
    feasibility to the solver constraints.
    """
    c = np.asarray(c, dtype=np.complex128)
    if c.shape != (prec.w.shape[0],):
        raise ValueError("calibration vector length must equal the antenna count")
    if not np.all(np.isfinite(c)) or np.all(c == 0):
        raise ValueError("calibration vector must be finite and non-zero")
    w_c = c[:, None] * prec.w
    if renormalize:
        before = float(np.sum(np.abs(prec.w) ** 2))
        after = float(np.sum(np.abs(w_c) ** 2))
        w_c = w_c * math.sqrt(before / after)
    return Precoder(w=w_c, beta=prec.beta, mode="calibrated")
