"""Closed-form SINDR/rate expressions and their Monte-Carlo counterparts.

Every ``phi`` argument is the path-loss amplitude gain of ``channel``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel import _check_phi, draw_channels
from .hardware import HardwareMismatch, SystemHardware, bussgang_decompose
# bussgang_mu is not called here: perfbench/tests/test_tracer.py checks that
# the tracer rebinds this module's name for it
from .numerics import _check_positive, bussgang_mu, sinc  # noqa: F401
from .precoding import beta_zf_closed, transmit_block

# complex channel entries (1 MiB) in the Monte-Carlo channel buffer
_BLOCK_ENTRIES = 1 << 16


def _block_draws(k: int, m: int, rows: int = 1) -> int:
    """Channel draws in one Monte-Carlo block that scores ``rows``
    calibration vectors.  The stacked product of ``effective_channels``
    takes (1 + rows) K x M complex entries per draw, and a block holds
    2 ``_BLOCK_ENTRIES`` of them whatever ``rows`` is; the channel buffer
    holds the ``rows`` = 1 block."""
    return max(1, 2 * _BLOCK_ENTRIES // ((1 + rows) * k * m))


def _precoder_draws(k: int, m: int) -> int:
    """Channel draws per ``zf_apply`` call in physical mode: 16 at M=64,
    K=8.  ``zf_apply`` holds about five M x K complex arrays per draw; the
    block is sized for eight, within one ``_BLOCK_ENTRIES``, because a
    longer block saves little time and raises peak memory."""
    return max(1, _BLOCK_ENTRIES // (8 * k * m))

__all__ = [
    "SindrBreakdown",
    "RateDecomposition",
    "sinr_linear_mismatch",
    "sindr_zf_closed_all",
    "rate_from_sindr",
    "avg_rate_decomposition",
    "sindr_large_ibo",
    "estimate_sindr_mc",
]


@dataclass(frozen=True)
class SindrBreakdown:
    """The four received-power terms plus noise, each finite and
    non-negative (ValueError), and the resulting SINDR."""

    es: float
    si: float
    mui: float
    nld: float
    noise: float

    def __post_init__(self):
        _check_positive("(es, si, mui, nld, noise)",
                        (self.es, self.si, self.mui, self.nld, self.noise), zero_ok=True)

    @property
    def sindr(self) -> float:
        return self.es / (self.si + self.mui + self.nld + self.noise)


@dataclass(frozen=True)
class RateDecomposition:
    """Average rate split into the ideal value and the BS/UE-side losses."""

    r_ideal: float
    d_bs: float
    d_ue: float

    @property
    def r(self) -> float:
        return self.r_ideal - self.d_bs - self.d_ue


def rate_from_sindr(sindr: float) -> float:
    """Achievable rate log2(1 + sindr) in bits per channel use."""
    return math.log2(1.0 + _check_positive("sindr", sindr, zero_ok=True))


def _zf_profile(m: int, phi, k: int | None = None, **scalars):
    """phi, K and tr Phi^-2 of a closed form with the ZF factor M - K;
    raises ValueError unless phi is K >= 1 finite positive entries (K = ``k``
    if given), M > K and every keyword scalar (rho_t, a0, noise_var, ...) is
    finite and positive, naming the first that is not."""
    for name, value in scalars.items():
        _check_positive(name, value)
    phi = _check_phi(phi, k)
    k = len(phi)
    if m <= k:
        raise ValueError(f"zero forcing needs M > K, got M = {m}, K = {k}")
    return phi, k, float(np.sum(1.0 / phi**2))


def sinr_linear_mismatch(m: int, rho_t: float, a0: float, phi, mismatch: HardwareMismatch,
                         noise_var: float) -> np.ndarray:
    """Downlink ZF SINR of every UE, (K,), under a constant (linear)
    reciprocity mismatch drawn from ``mismatch``; at zero mismatch
    (``HardwareMismatch.none()``) it is the ideal a0 rho_t (M - K) /
    (tr Phi^-2 noise_var).  It reads delta^2 and theta of the t and r laws
    and delta^2 of the v law; the a and u laws and v's phase do not enter
    the formula.  Raises ValueError unless ``phi`` is K >= 1 finite positive
    entries, M > K and rho_t, a0 and noise_var are finite and positive."""
    phi, k, tr_phi_inv2 = _zf_profile(m, phi, rho_t=rho_t, a0=a0, noise_var=noise_var)
    t, r = mismatch.t, mismatch.r
    s_t = float(sinc(t.phase_bound))
    s_r = float(sinc(r.phase_bound))
    eps1 = (
        math.exp(2 * t.log_amp_var)
        + math.exp(2 * r.log_amp_var)
        - 2.0 * s_t * s_r * math.exp((t.log_amp_var - r.log_amp_var) / 2.0)
    )
    num = a0 * rho_t * (m - k) / tr_phi_inv2 * s_t**2 * s_r**2
    den = math.exp(r.log_amp_var + mismatch.v.log_amp_var - t.log_amp_var) * (
        a0 * rho_t * phi**2 * (m - k) / m * eps1 + noise_var
    )
    return num / den


def _check_a0(hw: SystemHardware, a0) -> None:
    """``estimate_sindr_mc``'s a0 is the hardware's own: physical mode reads
    ``hw.a0`` in the amplifiers and ``a0`` in the power terms."""
    if a0 != hw.a0:
        raise ValueError(f"a0 must equal the hardware's a0 = {hw.a0}, got {a0}")


def _closed_terms(hw: SystemHardware, phi, rho_t, noise_var):
    """Closed-form SINDR breakdown of every UE, and the trace statistics of
    the ZF Bussgang pair it rests on: tr{RR^*}, tr{GR^*}, sum_m |g_m - alpha
    r_m|^2 with alpha = mean(g/r), and tr{sigma_d^2}.  Raises ValueError
    unless ``phi`` is K finite positive entries and M > K."""
    m, k, a0 = hw.m, hw.k, hw.a0
    phi = _zf_profile(m, phi, k)[0]
    r = hw.bs_rx
    b = hw.ue_tx_gain
    u = hw.ue_rx
    pair = bussgang_decompose(hw, hw.sigma_x(rho_t))
    g, sig2 = pair.g, pair.sigma_d2

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
    breakdowns = [SindrBreakdown(es[i], si[i], mui[i], nld[i], noise_var) for i in range(k)]
    return breakdowns, (tr_rr, tr_gr, t_delta, tr_sig)


def sindr_zf_closed_all(hw: SystemHardware, phi, rho_t: float,
                        noise_var: float) -> list[SindrBreakdown]:
    """Closed-form SINDR breakdown for every UE, at the hardware's a0."""
    return _closed_terms(hw, phi, rho_t, noise_var)[0]


def avg_rate_decomposition(hw: SystemHardware, phi, rho_t: float,
                           noise_var: float) -> RateDecomposition:
    """Average achievable rate R = R_Ideal - dR_BS - dR_UE (bits/channel use).

    The UE-side loss uses the law-of-large-numbers form of the Jensen gap over
    |b_k|^2, which is non-negative for every draw and zero iff all |b_k| are
    equal.  Accuracy degrades when any SINDR drops below one; a warning is
    emitted in that regime.
    """
    phi = np.asarray(phi, dtype=np.float64)
    m, k, a0 = hw.m, hw.k, hw.a0
    breakdowns, (tr_rr, tr_gr, t_delta, tr_sig) = _closed_terms(hw, phi, rho_t, noise_var)
    if min(b.sindr for b in breakdowns) < 1.0:
        warnings.warn("avg_rate_decomposition: min SINDR < 1, decomposition accuracy degrades",
                      RuntimeWarning)

    tr_phi_inv2 = float(np.sum(1.0 / phi**2))
    r_ideal = math.log2((m - k) / tr_phi_inv2 * rho_t * a0 / noise_var)

    u2 = np.abs(hw.ue_rx) ** 2
    sigma_eq2 = a0 * phi**2 * tr_sig + noise_var / u2
    num = (m - k) / m * rho_t * a0 * phi**2 * (t_delta / m) + sigma_eq2
    den = noise_var * abs(tr_gr) ** 2 / (m * tr_rr)
    d_bs = float(np.mean(np.log2(num / den)))

    inv_b2 = 1.0 / np.abs(hw.ue_tx_gain) ** 2
    d_ue = math.log2(float(np.mean(inv_b2))) - float(np.mean(np.log2(inv_b2)))

    return RateDecomposition(r_ideal=r_ideal, d_bs=d_bs, d_ue=d_ue)


def sindr_large_ibo(m: int, rho_t: float, a0: float, a_sat: float, phi,
                    mismatch: HardwareMismatch, noise_var: float) -> np.ndarray:
    """Large-IBO SINDR approximation of every UE, (K,), with perfect UE
    hardware, averaged over BS hardware drawn from ``mismatch``.  It reads
    delta^2 of the a law and delta^2 and theta of the t and r laws.  Raises
    ValueError unless the u and v laws are zero (delta^2 = theta = 0),
    ``phi`` is K >= 1 finite positive entries, M > K, rho_t, a0, a_sat and
    noise_var are finite and positive, and the back-off factor 1 - 2 rho_t
    e^{delta_a^2}/(M A^2) is positive: where it is not, the approximation
    gives a negative SINDR."""
    phi, k, tr_phi_inv2 = _zf_profile(m, phi, rho_t=rho_t, a0=a0, a_sat=a_sat,
                                      noise_var=noise_var)
    zero = HardwareMismatch.none()
    if (mismatch.u, mismatch.v) != (zero.u, zero.v):
        raise ValueError(f"sindr_large_ibo assumes perfect UE hardware: the u and v laws "
                         f"must be zero, got u={mismatch.u}, v={mismatch.v}")
    t, r = mismatch.t, mismatch.r
    expansion = rho_t * math.exp(mismatch.a.log_amp_var) / (m * a_sat**2)
    backoff = 1.0 - 2.0 * expansion
    if backoff <= 0:
        raise ValueError(f"sindr_large_ibo outside its validity region: the back-off factor "
                         f"1 - 2 rho_t e^da2/(M A^2) = {backoff:.3g} must be positive")
    s2 = float(sinc(t.phase_bound)) ** 2 * float(sinc(r.phase_bound)) ** 2
    eps3 = math.exp(2 * t.log_amp_var) + (math.exp(2 * r.log_amp_var) - 2.0) * math.exp(
        t.log_amp_var + r.log_amp_var
    ) * s2
    eps4 = s2 * math.exp(t.log_amp_var - r.log_amp_var)
    num = a0 * eps4 * (m - k) / tr_phi_inv2 * backoff * rho_t
    den = (m - k) / m * a0 * phi**2 * eps3 * backoff * rho_t + noise_var
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
) -> list:
    """Monte-Carlo SINDR per UE with hardware held fixed.

    Surrogate mode forms the exact effective channels H_eq = U H G W per
    channel draw and accumulates the moments of Eq.-(22)-style terms
    (``n_symbols`` is not needed there).  Physical mode additionally streams
    ``n_symbols`` Gaussian symbols per draw through the sample-level SSPAs and
    estimates the effective channel by least squares, so the distortion power
    is measured rather than taken from the Bussgang pair; it needs
    ``n_symbols`` > K, so that the fit leaves a residual.

    ``c`` applies a calibration vector diag(c) to the precoder.  It is None
    (no calibration), one (M,) vector, or a (C, M) stack; a stack scores
    every row on the same channel draws (and, in physical mode, the same
    symbols) and returns one list of ``SindrBreakdown`` per row, in row
    order.  One vector is the C = 1 case and consumes the generator as a
    one-row stack does.  One ``bussgang_decompose`` call gives every row
    its Bussgang pair at the rms |c_m| sigma_x,m that diag(c) gives each
    amplifier; each element depends on its own rms only, so rows do not
    perturb each other.

    Each call allocates one complex (B, K, M) channel buffer of about 1 MiB,
    B = ``_block_draws(K, M)``, whatever ``n_channels`` and C are, and
    ``draw_channels`` fills it once per block.  Surrogate mode works through
    a block in sub-blocks of ``_block_draws(K, M, C)`` draws and forms one
    uplink Gram matrix per draw for all rows.  Physical mode builds the
    precoders of ``_precoder_draws`` draws per ``zf_apply`` call and then
    streams the symbols draw by draw; each draw forms the symbol Gram matrix
    s^H s once and fits every row by the normal equations (s^H s) fit =
    s^H y.  Raises ValueError for an ``a0`` that is not ``hw.a0``,
    ``n_channels`` < 1, a ``phi`` that is not K finite positive entries, or a
    ``c`` that is not (M,) or (C, M) with C >= 1 or with a row that is not
    finite or is all zero, and LinAlgError for a rank-deficient channel draw.
    """
    if mode not in ("surrogate", "physical"):
        raise ValueError(f"unknown mode {mode!r}")
    m, k = hw.m, hw.k
    _check_a0(hw, a0)
    if n_channels < 1:
        raise ValueError(f"n_channels must be at least 1, got {n_channels}")
    if mode == "physical" and n_symbols <= k:
        raise ValueError(f"physical mode needs n_symbols > K = {k} for a least-squares "
                         f"fit with a residual, got {n_symbols}")
    c_arr = np.ones(m, dtype=np.complex128) if c is None else np.asarray(c, np.complex128)
    if c_arr.ndim not in (1, 2) or c_arr.shape[-1] != m or c_arr.size == 0:
        raise ValueError(f"c must be (M,) or (C, M) with M = {m} and C >= 1, "
                         f"got shape {c_arr.shape}")
    c_rows = c_arr.reshape(-1, m)
    bad = ~np.all(np.isfinite(c_rows), axis=1) | np.all(c_rows == 0, axis=1)
    if bad.any():
        raise ValueError(f"calibration row {int(np.flatnonzero(bad)[0])} must be finite "
                         "and not all zero")
    n_c = c_rows.shape[0]
    beta = beta_zf_closed(hw, phi)
    draws = _block_draws(k, m)
    block = _block_draws(k, m, n_c)
    pblock = _precoder_draws(k, m)

    pair = bussgang_decompose(hw, np.maximum(np.abs(c_rows), 1e-300) * hw.sigma_x(rho_t))
    g_eff = pair.g * c_rows

    # the block length does not depend on C, so every row of a stack sees
    # the draws, and the additions, of its single-vector call
    buf = np.empty((min(draws, n_channels), k, m), dtype=np.complex128)

    # moments of the deviations from the first draw: SI is a variance about
    # 800x below ES at M=256, K=20, and raw sums would amplify their rounding
    # by that factor
    shift = None
    sum_d = np.zeros((n_c, k, k), dtype=np.complex128)
    sum_d2 = np.zeros((n_c, k, k), dtype=np.float64)
    sum_sq = np.zeros((k, 2 * m), dtype=np.float64)
    sum_resid = np.zeros((n_c, k), dtype=np.float64)
    done = 0
    while done < n_channels:
        nb = min(draws, n_channels - done)
        h = draw_channels(rng, phi, buf[:nb])
        h_eq = np.empty((n_c, nb, k, k), dtype=np.complex128)
        if mode == "surrogate":
            for lo in range(0, nb, block):
                h_eq[:, lo:lo + block] = _kernels.effective_channels(
                    h[lo:lo + block], hw.bs_rx, hw.ue_tx_gain, hw.ue_rx, g_eff, beta,
                    done + lo, n_channels)
            hv = h.view(np.float64)
            sum_sq += np.einsum("nkj,nkj->kj", hv, hv)
        else:
            for lo in range(0, nb, pblock):
                w = _kernels.zf_apply(
                    _kernels.uplink(h[lo:lo + pblock], hw.bs_rx, hw.ue_tx_gain), beta,
                    first=done + lo, total=n_channels)
                for t in range(len(w)):
                    h_eq[:, lo + t], resid = _physical_heq(hw, h[lo + t], w[t], rho_t,
                                                           n_symbols, c_rows, rng)
                    sum_resid += resid
        if shift is None:
            shift = h_eq[:, 0].copy()
        # summed per block, so the additions do not depend on the sub-block length
        h_eq -= shift[:, None]
        sum_d += h_eq.sum(axis=1)
        sum_d2 += (np.abs(h_eq) ** 2).sum(axis=1)
        done += nb

    mean_d = sum_d / n_channels
    var_h = np.maximum(sum_d2 / n_channels - np.abs(mean_d) ** 2, 0.0)
    mean_h = shift + mean_d
    mean_h2 = var_h + np.abs(mean_h) ** 2
    if mode == "surrogate":
        # NLD: a0 |u_k|^2 sum_m E|h_km|^2 sigma_d,m^2, with |h_km|^2 the sum
        # of the interleaved squares re^2 + im^2; one reduction per row
        h2 = sum_sq.reshape(k, m, 2).sum(axis=-1)
        nld = (a0 * np.abs(hw.ue_rx) ** 2 * np.sum(pair.sigma_d2[:, None] * h2, axis=-1)
               / n_channels)
    else:
        # symbols were streamed noiselessly, so the LS residual is the
        # distortion power alone (noise enters analytically below)
        nld = sum_resid / n_channels
    out = []
    for j in range(n_c):
        terms = []
        for i in range(k):
            es = a0 * rho_t * abs(mean_h[j, i, i]) ** 2
            si = a0 * rho_t * float(var_h[j, i, i])
            mui = a0 * rho_t * float(mean_h2[j, i].sum() - mean_h2[j, i, i])
            terms.append(SindrBreakdown(es, si, mui, nld[j, i], noise_var))
        out.append(terms)
    return out if c_arr.ndim == 2 else out[0]


def _normal_fit(s, y):
    """Least-squares fit of y on the full-column-rank symbols s by the
    normal equations (s^H s) fit = s^H y.  y is (N, K) or a (C, N, K)
    stack that shares one Gram matrix s^H s."""
    s_h = s.conj().T
    return np.linalg.solve(s_h @ s, s_h @ y)


def _physical_heq(hw, h, w, rho_t, n_symbols, c_rows, rng):
    """LS estimates of the effective channel, (C, K, K), and residual powers,
    (C, K), for one draw h with precoder w: one symbol block, then one
    ``transmit_block`` of the stacked precoders c_j w and one fit of all rows."""
    k = hw.k
    # one (2, N, K) draw is the stream of an (N, K) real part, then imaginary part
    re_im = rng.standard_normal((2, n_symbols, k))
    s = np.empty((n_symbols, k), dtype=np.complex128)
    s.real, s.imag = re_im
    s *= math.sqrt(rho_t / 2.0)
    # noiseless; noise handled analytically
    y = transmit_block(hw, h, c_rows[:, :, None] * w, s)
    fit = _normal_fit(s, y)
    # the received block already carries sqrt(a0); strip it from the channel estimate
    # so the moments match the a0-factored closed-form terms, and report the
    # residual as received distortion power (a0 included)
    h_eq = np.swapaxes(fit, -1, -2) / math.sqrt(hw.a0)
    # residual power from the float view: re^2, im^2 summed over symbols, paired per UE
    err = np.subtract(y, s @ fit, out=y).view(np.float64).reshape(len(y), n_symbols, 2 * k)
    resid = np.einsum("cnj,cnj->cj", err, err).reshape(len(y), k, 2).sum(axis=-1) / n_symbols
    return h_eq, resid
