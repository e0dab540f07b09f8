"""Closed-form SINDR/rate expressions and their Monte-Carlo counterparts.

Path-loss convention: every ``phi`` argument below is the large-scale
amplitude gain (zeta * d^-xi), and the channel row mean-square is phi^2.  The
Monte-Carlo estimators therefore draw channels with row power phi**2, which
keeps the closed forms and the simulation on the same footing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .hardware import SystemHardware, sspa_apply
from .numerics import bussgang_lambda, bussgang_mu, sinc
from .precoding import beta_zf_closed

# complex channel entries (1 MiB) per block of surrogate Monte-Carlo draws
_BLOCK_ENTRIES = 1 << 16


def _block_draws(k: int, m: int) -> int:
    """Channel draws of K x M entries in one surrogate Monte-Carlo block."""
    return max(1, _BLOCK_ENTRIES // (k * m))

__all__ = [
    "SindrBreakdown",
    "RateDecomposition",
    "sinr_linear_mismatch",
    "zf_gain_vector",
    "zf_distortion_vector",
    "sindr_zf_closed",
    "sindr_zf_closed_all",
    "rate_from_sindr",
    "avg_rate_decomposition",
    "sindr_large_ibo",
    "estimate_sindr_mc",
]


@dataclass(frozen=True)
class SindrBreakdown:
    """The four received-power terms plus noise and the resulting SINDR."""

    es: float
    si: float
    mui: float
    nld: float
    noise: float
    sindr: float

    @classmethod
    def from_terms(cls, es, si, mui, nld, noise) -> "SindrBreakdown":
        es, si, mui, nld, noise = (float(v) for v in (es, si, mui, nld, noise))
        if min(es, si, mui, nld, noise) < 0:
            raise ValueError("power terms must be non-negative")
        return cls(es=es, si=si, mui=mui, nld=nld, noise=noise,
                   sindr=es / (si + mui + nld + noise))


@dataclass(frozen=True)
class RateDecomposition:
    """Average rate split into the ideal value and the BS/UE-side losses."""

    r_ideal: float
    d_bs: float
    d_ue: float
    r: float


def rate_from_sindr(sindr: float) -> float:
    """Achievable rate log2(1 + sindr) in bits per channel use."""
    if sindr < 0:
        raise ValueError("sindr must be non-negative")
    return math.log2(1.0 + sindr)


def sinr_linear_mismatch(
    m: int,
    k: int,
    rho_t: float,
    a0: float,
    phi_k: float,
    tr_phi_inv2: float,
    delta_t2: float,
    delta_r2: float,
    delta_v2: float,
    theta_t: float,
    theta_r: float,
    noise_var: float,
) -> float:
    """Downlink ZF SINR under a constant (linear) reciprocity mismatch."""
    s_t = float(sinc(theta_t))
    s_r = float(sinc(theta_r))
    eps1 = (
        math.exp(2 * delta_t2)
        + math.exp(2 * delta_r2)
        - 2.0 * s_t * s_r * math.exp((delta_t2 - delta_r2) / 2.0)
    )
    num = a0 * rho_t * (m - k) / tr_phi_inv2 * s_t**2 * s_r**2
    den = math.exp(delta_r2 + delta_v2 - delta_t2) * (
        a0 * rho_t * phi_k**2 * (m - k) / m * eps1 + noise_var
    )
    return num / den


def zf_gain_vector(hw: SystemHardware, rho_t: float, c=None) -> np.ndarray:
    """Per-antenna Bussgang linear scales g_ZF,m = t_m mu(A_sat,m / sigma_x,m).

    With a calibration vector ``c`` the operating rms becomes |c_m| sigma_x,m
    (the rms the amplifier actually sees once diag(c) scales the precoder).
    """
    sigma = hw.sigma_x(rho_t)
    if c is not None:
        sigma = np.maximum(np.abs(np.asarray(c)), 1e-300) * sigma
    return hw.t * bussgang_mu(hw.a_sat / sigma)


def zf_distortion_vector(hw: SystemHardware, rho_t: float, c=None) -> np.ndarray:
    """Per-antenna distortion variances sigma_ZF,m^2 = |t_m|^2 lambda(A_sat,m, sigma_x,m)."""
    sigma = hw.sigma_x(rho_t)
    if c is not None:
        sigma = np.maximum(np.abs(np.asarray(c)), 1e-300) * sigma
    return np.abs(hw.t) ** 2 * bussgang_lambda(hw.a_sat, sigma)


def _closed_terms(hw: SystemHardware, phi, rho_t, a0, noise_var):
    phi = np.asarray(phi, dtype=np.float64)
    m, k = hw.m, hw.k
    r = hw.bs_rx
    b = hw.ue_tx_gain
    u = hw.ue_rx
    g = zf_gain_vector(hw, rho_t)
    sig2 = zf_distortion_vector(hw, rho_t)

    tr_rr = float(np.sum(np.abs(r) ** 2))
    s_b = float(np.sum(1.0 / (np.abs(b) ** 2 * phi**2)))
    tr_gr = complex(np.sum(g * np.conj(r)))
    alpha = complex(np.mean(g / r))
    t_delta = float(np.sum(np.abs(g - alpha * r) ** 2))
    tr_sig = float(np.sum(sig2))

    u2 = np.abs(u) ** 2
    b2 = np.abs(b) ** 2
    es = a0 * rho_t * (m - k) * u2 * abs(tr_gr) ** 2 / (m * b2 * s_b * tr_rr)
    si = a0 * rho_t * u2 * t_delta * (m - k) / (m**2 * b2 * s_b)
    mui_sum = np.sum(1.0 / (b2 * phi**2)) - 1.0 / (b2 * phi**2)
    mui = a0 * rho_t * phi**2 * u2 * t_delta * (m - k) / (m**2 * s_b) * mui_sum
    nld = a0 * u2 * phi**2 * tr_sig
    return es, si, mui, nld, np.full(k, float(noise_var))


def sindr_zf_closed(hw: SystemHardware, phi, rho_t: float, a0: float, noise_var: float,
                    k: int) -> SindrBreakdown:
    """Closed-form SINDR terms for UE ``k`` under nonlinear reciprocity mismatch."""
    es, si, mui, nld, noise = _closed_terms(hw, phi, rho_t, a0, noise_var)
    return SindrBreakdown.from_terms(es[k], si[k], mui[k], nld[k], noise[k])


def sindr_zf_closed_all(hw: SystemHardware, phi, rho_t: float, a0: float,
                        noise_var: float) -> list[SindrBreakdown]:
    """Closed-form SINDR breakdown for every UE."""
    es, si, mui, nld, noise = _closed_terms(hw, phi, rho_t, a0, noise_var)
    return [SindrBreakdown.from_terms(es[i], si[i], mui[i], nld[i], noise[i])
            for i in range(hw.k)]


def avg_rate_decomposition(hw: SystemHardware, phi, rho_t: float, a0: float,
                           noise_var: float) -> RateDecomposition:
    """Average achievable rate R = R_Ideal - dR_BS - dR_UE (bits/channel use).

    The UE-side loss uses the law-of-large-numbers form of the Jensen gap over
    |b_k|^2, which is non-negative for every draw and zero iff all |b_k| are
    equal.  Accuracy degrades when any SINDR drops below one; a warning is
    emitted in that regime.
    """
    phi = np.asarray(phi, dtype=np.float64)
    m, k = hw.m, hw.k
    gammas = np.array([s.sindr for s in sindr_zf_closed_all(hw, phi, rho_t, a0, noise_var)])
    if np.min(gammas) < 1.0:
        warnings.warn("avg_rate_decomposition: min SINDR < 1, decomposition accuracy degrades",
                      RuntimeWarning)

    tr_phi_inv2 = float(np.sum(1.0 / phi**2))
    r_ideal = math.log2((m - k) / tr_phi_inv2 * rho_t * a0 / noise_var)

    g = zf_gain_vector(hw, rho_t)
    sig2 = zf_distortion_vector(hw, rho_t)
    r = hw.bs_rx
    tr_rr = float(np.sum(np.abs(r) ** 2))
    tr_gr = complex(np.sum(g * np.conj(r)))
    alpha = complex(np.mean(g / r))
    eps2 = float(np.sum(np.abs(g - alpha * r) ** 2)) / m
    tr_sig = float(np.sum(sig2))

    u2 = np.abs(hw.ue_rx) ** 2
    sigma_eq2 = a0 * phi**2 * tr_sig + noise_var / u2
    num = (m - k) / m * rho_t * a0 * phi**2 * eps2 + sigma_eq2
    den = noise_var * abs(tr_gr) ** 2 / (m * tr_rr)
    d_bs = float(np.mean(np.log2(num / den)))

    inv_b2 = 1.0 / np.abs(hw.ue_tx_gain) ** 2
    d_ue = math.log2(float(np.mean(inv_b2))) - float(np.mean(np.log2(inv_b2)))

    return RateDecomposition(r_ideal=r_ideal, d_bs=d_bs, d_ue=d_ue,
                             r=r_ideal - d_bs - d_ue)


def sindr_large_ibo(
    m: int,
    k: int,
    rho_t: float,
    a0: float,
    a_sat: float,
    phi_k: float,
    tr_phi_inv2: float,
    delta_a2: float,
    delta_t2: float,
    delta_r2: float,
    theta_t: float,
    theta_r: float,
    noise_var: float,
) -> float:
    """Large-IBO SINDR approximation (perfect UE hardware assumed)."""
    expansion = rho_t * math.exp(delta_a2) / (m * a_sat**2)
    if expansion >= 0.5:
        warnings.warn(
            f"sindr_large_ibo outside validity region: rho_t e^da2/(M A^2) = {expansion:.3f} >= 0.5",
            RuntimeWarning,
        )
    s2 = float(sinc(theta_t)) ** 2 * float(sinc(theta_r)) ** 2
    eps3 = math.exp(2 * delta_t2) + (math.exp(2 * delta_r2) - 2.0) * math.exp(
        delta_t2 + delta_r2
    ) * s2
    eps4 = s2 * math.exp(delta_t2 - delta_r2)
    backoff = 1.0 - 2.0 * expansion
    num = a0 * eps4 * (m - k) / tr_phi_inv2 * backoff * rho_t
    den = (m - k) / m * a0 * phi_k**2 * eps3 * backoff * rho_t + noise_var
    return num / den


def estimate_sindr_mc(
    hw: SystemHardware,
    phi,
    rho_t: float,
    a0: float,
    noise_var: float,
    n_channels: int,
    n_symbols: int,
    mode: str,
    rng: np.random.Generator,
    c=None,
    batch: int = 512,
) -> list[SindrBreakdown]:
    """Monte-Carlo SINDR per UE with hardware held fixed.

    Surrogate mode forms the exact effective channels H_eq = U H G W per
    channel draw and accumulates the moments of Eq.-(22)-style terms
    (``n_symbols`` is not needed there).  Physical mode additionally streams
    ``n_symbols`` Gaussian symbols per draw through the sample-level SSPAs and
    estimates the effective channel by least squares, so the distortion power
    is measured rather than taken from the Bussgang pair; it needs
    ``n_symbols`` > K, so that the fit leaves a residual.  ``c`` applies a
    calibration vector diag(c) to the precoder.

    Channels are drawn ``batch`` draws per generator call.  Surrogate mode
    then works through each batch in blocks of about 1 MiB of channel
    entries, so no complex (batch, K, M) array is allocated beside the draw.
    Raises ValueError for ``n_channels`` or ``batch`` < 1 and LinAlgError for
    a rank-deficient channel draw.
    """
    if mode not in ("surrogate", "physical"):
        raise ValueError(f"unknown mode {mode!r}")
    m, k = hw.m, hw.k
    if n_channels < 1 or batch < 1:
        raise ValueError(f"n_channels and batch must be at least 1, got {n_channels} "
                         f"and {batch}")
    if mode == "physical" and n_symbols <= k:
        raise ValueError(f"physical mode needs n_symbols > K = {k} for a least-squares "
                         f"fit with a residual, got {n_symbols}")
    phi = np.asarray(phi, dtype=np.float64)
    beta = beta_zf_closed(hw, phi)
    row_scale = np.sqrt(phi**2)[:, None]
    block = _block_draws(k, m)
    c_vec = np.ones(m, dtype=np.complex128) if c is None else np.asarray(c, np.complex128)

    g_eff = zf_gain_vector(hw, rho_t, c=None if c is None else c_vec) * c_vec
    sig2 = zf_distortion_vector(hw, rho_t, c=None if c is None else c_vec)
    u2 = np.abs(hw.ue_rx) ** 2

    # moments of the deviations from the first draw: SI is a variance about
    # 800x below ES at M=256, K=20, and raw sums would amplify their rounding
    # by that factor
    shift = None
    sum_d = np.zeros((k, k), dtype=np.complex128)
    sum_d2 = np.zeros((k, k), dtype=np.float64)
    sum_nld = np.zeros(k, dtype=np.float64)
    sum_resid = np.zeros(k, dtype=np.float64)
    done = 0
    while done < n_channels:
        nb = min(batch, n_channels - done)
        z = rng.standard_normal((2, nb, k, m))
        h_eq = np.empty((nb, k, k), dtype=np.complex128)
        if mode == "surrogate":
            # channels, effective channels and the NLD term are built one
            # cache-sized block of draws at a time
            for lo in range(0, nb, block):
                h = _channels(z[:, lo:lo + block], row_scale)
                h_eq[lo:lo + block] = _kernels.effective_channels(
                    h, hw.bs_rx, hw.ue_tx_gain, hw.ue_rx, g_eff, beta, done + lo, n_channels)
                # NLD: a0 |u_k|^2 sum_m |h_km|^2 sigma_d,m^2 per draw
                sum_nld += u2 * np.einsum("bkm,m->k", np.abs(h) ** 2, sig2)
            del z
        else:
            h = _channels(z, row_scale)
            del z
            for t in range(nb):
                h_eq[t], resid = _physical_heq(hw, h[t], beta, rho_t, n_symbols, c_vec, rng,
                                               done + t, n_channels)
                sum_resid += resid
        if shift is None:
            shift = h_eq[0].copy()
        # summed over the whole batch, so the order of additions does not
        # depend on the block length
        dev = h_eq - shift
        sum_d += dev.sum(axis=0)
        sum_d2 += (np.abs(dev) ** 2).sum(axis=0)
        done += nb

    mean_d = sum_d / n_channels
    var_h = np.maximum(sum_d2 / n_channels - np.abs(mean_d) ** 2, 0.0)
    mean_h = shift + mean_d
    mean_h2 = var_h + np.abs(mean_h) ** 2
    out = []
    for i in range(k):
        es = a0 * rho_t * abs(mean_h[i, i]) ** 2
        si = a0 * rho_t * float(var_h[i, i])
        mui = a0 * rho_t * float(mean_h2[i].sum() - mean_h2[i, i])
        if mode == "surrogate":
            nld = a0 * sum_nld[i] / n_channels
        else:
            # symbols were streamed noiselessly, so the LS residual is the
            # distortion power alone (noise enters analytically below)
            nld = sum_resid[i] / n_channels
        out.append(SindrBreakdown.from_terms(es, si, mui, nld, noise_var))
    return out


def _channels(z, row_scale):
    """Channel draws sqrt(phi^2) (z_re + 1j z_im) / sqrt(2) from a (2, n, K, M)
    block of standard normals, which is scaled in place."""
    # numpy divides a complex array by a real scalar through its reciprocal,
    # so scaling by 1/sqrt(2) keeps the bits of the complex-array form
    z *= 1.0 / math.sqrt(2.0)
    h = np.empty(z.shape[1:], dtype=np.complex128)
    np.multiply(z[0], row_scale, out=h.real)
    np.multiply(z[1], row_scale, out=h.imag)
    return h


def _physical_heq(hw, h, beta, rho_t, n_symbols, c_vec, rng, draw, n_draws):
    """LS estimate of the effective channel and residual power for one draw,
    number ``draw`` of ``n_draws``."""
    # W per draw, not per batch: a batch of M x K precoders and its
    # temporaries outweigh the per-draw symbol buffers and raise peak memory
    w = c_vec[:, None] * _kernels.zf_apply(_kernels.uplink(h, hw.bs_rx, hw.ue_tx_gain)[None],
                                           beta, first=draw, total=n_draws)[0]
    k = hw.k
    s = math.sqrt(rho_t / 2.0) * (
        rng.standard_normal((n_symbols, k)) + 1j * rng.standard_normal((n_symbols, k))
    )
    x_hat = sspa_apply(hw, s @ w.T)
    y = x_hat @ (hw.ue_rx[:, None] * h).T  # noiseless; noise handled analytically
    h_eq, *_ = np.linalg.lstsq(s, y, rcond=None)
    resid = y - s @ h_eq
    # sspa_apply already carries sqrt(a0); strip it from the channel estimate
    # so the moments match the a0-factored closed-form terms, and report the
    # residual as received distortion power (a0 included)
    return h_eq.T / math.sqrt(hw.a0), np.mean(np.abs(resid) ** 2, axis=0)
