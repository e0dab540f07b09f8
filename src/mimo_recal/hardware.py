"""RF-chain models: BS and UE gains held as arrays, and the BS amplifier.

The BS transmit chains carry the soft envelope limiter (SSPA)

    f(x) = sqrt(a0) * t * x / sqrt(1 + (|x|/A_sat)^2),

whose Bussgang decomposition for complex Gaussian input with rms sigma_x is
g = t*mu(A_sat/sigma_x), sigma_d^2 = |t|^2 * lambda(A_sat, sigma_x), with the
closed forms for mu/lambda.  ``sspa_apply`` (sample level) takes the whole
BS (``SystemHardware``); ``bussgang_decompose`` takes it or one amplifier
(``HpaModel``), and the per-antenna arrays broadcast over the antenna axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (MismatchDistribution, _check_positive, bussgang_lambda, bussgang_mu,
                       draw_complex_gain)

__all__ = [
    "HpaModel",
    "SystemHardware",
    "BussgangPair",
    "HardwareMismatch",
    "draw_system_hardware",
    "sspa_apply",
    "bussgang_decompose",
    "a_sat_for_ibo",
]


@dataclass(frozen=True)
class HpaModel:
    """One amplifier: small-signal power gain a0, complex gain vibration t and
    saturation amplitude a_sat."""

    a0: float
    t: complex
    a_sat: float

    def __post_init__(self):
        _check_positive("a0", self.a0)
        _check_positive("a_sat", self.a_sat)


@dataclass(frozen=True)
class BussgangPair:
    """Linear scale g and distortion variance sigma_d^2, per amplifier."""

    g: complex | np.ndarray
    sigma_d2: float | np.ndarray

    def __post_init__(self):
        _check_positive("sigma_d2", self.sigma_d2, zero_ok=True)


@dataclass(frozen=True)
class HardwareMismatch:
    """Per-role mismatch laws: a (BS saturation spread), t/r (BS tx/rx gains),
    u/v (UE rx/tx gains)."""

    a: MismatchDistribution
    t: MismatchDistribution
    r: MismatchDistribution
    u: MismatchDistribution
    v: MismatchDistribution

    @classmethod
    def uniform(cls, delta2: float, theta: float) -> "HardwareMismatch":
        """Same delta^2 for every role and the same theta for every phase
        (the saturation role a is real positive, so no phase)."""
        amp_only = MismatchDistribution(delta2, 0.0)
        full = MismatchDistribution(delta2, theta)
        return cls(a=amp_only, t=full, r=full, u=full, v=full)

    @classmethod
    def none(cls) -> "HardwareMismatch":
        zero = MismatchDistribution(0.0, 0.0)
        return cls(a=zero, t=zero, r=zero, u=zero, v=zero)


@dataclass(frozen=True)
class SystemHardware:
    """All drawn RF-chain gains for one realization: per BS antenna the
    transmit gain t, saturation level a_sat and receive gain r (length M),
    per UE the transmit gain b and receive gain u (length K), and the BS
    amplifiers' common small-signal power gain a0."""

    a0: float
    t: np.ndarray
    a_sat: np.ndarray
    bs_rx: np.ndarray  # r, length M
    ue_tx_gain: np.ndarray  # b_k = B_k(ue_pilot_amp), length K
    ue_rx: np.ndarray  # u, length K

    def __post_init__(self):
        if not len(self.t) == len(self.a_sat) == len(self.bs_rx):
            raise ValueError("t, a_sat and bs_rx must have the same length")
        if len(self.ue_tx_gain) != len(self.ue_rx):
            raise ValueError("ue_tx_gain and ue_rx must have the same length")
        _check_positive("a0", self.a0)
        _check_positive("a_sat", self.a_sat)
        if np.any(self.bs_rx == 0):
            raise ValueError("receive chains must be live (no zero entries in r)")

    @property
    def m(self) -> int:
        return len(self.t)

    @property
    def k(self) -> int:
        return len(self.ue_rx)

    def sigma_x(self, rho_t: float) -> np.ndarray:
        """Per-antenna transmit rms under ZF, sigma_x,m = |r_m| sqrt(rho_t/tr{RR*}).

        Raises ValueError unless ``rho_t`` is finite and positive; the closed
        forms and both Monte-Carlo modes take their operating point here."""
        _check_positive("rho_t", rho_t)
        r2 = np.abs(self.bs_rx) ** 2
        return np.sqrt(r2 * rho_t / r2.sum())


def draw_system_hardware(
    rng: np.random.Generator,
    m: int,
    k: int,
    dists: HardwareMismatch,
    a_sat_base: float,
    ue_pilot_amp: float = 0.1,
    a0: float = 10.0,
) -> SystemHardware:
    """Draw one hardware realization: A_sat,m = a_sat_base * a_m with a_m
    log-normal, complex gains per role, and b_k = B_k(ue_pilot_amp)."""
    if not m > k >= 1:
        raise ValueError(f"need m > k >= 1, got m={m}, k={k}")
    # the saturation spread is an amplitude: its law's phase is never drawn
    a_m = np.exp(rng.normal(0.0, math.sqrt(dists.a.log_amp_var), size=m))
    t = draw_complex_gain(rng, dists.t, size=m)
    r = draw_complex_gain(rng, dists.r, size=m)
    u = draw_complex_gain(rng, dists.u, size=k)
    v_k = draw_complex_gain(rng, dists.v, size=k)
    # b_k = v_k / sqrt(1 + amp^2): UE soft-limiter gain at the pilot amplitude,
    # with the UE saturation amplitude as the unit of amp
    comp = (1.0 + ue_pilot_amp**2) ** 0.5
    return SystemHardware(a0=a0, t=t, a_sat=a_sat_base * a_m, bs_rx=r, ue_tx_gain=v_k / comp,
                          ue_rx=u)


def sspa_apply(hw: SystemHardware, x) -> np.ndarray:
    """Sample-level SSPA transfer sqrt(a0)*t*x / sqrt(1 + (|x|/a_sat)^2).

    t and a_sat are the per-antenna arrays of ``hw`` over the last axis of
    ``x``, which must have length M (ValueError otherwise); ``x`` is not
    modified.

    The output is the complex gain sqrt(a0)*t*x times the real envelope
    factor r = 1/sqrt(1 + |x|^2/a_sat^2), with |x|^2 formed as re^2 + im^2.
    That skips the ``hypot`` of ``np.abs`` and numpy's complex division by a
    real array, which multiplies both parts by the reciprocal of the divisor,
    as r does here.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 0 or x.shape[-1] != hw.m:
        raise ValueError(f"x must have the M = {hw.m} antennas on its last axis, "
                         f"got shape {x.shape}")
    env = x.real * x.real
    env += x.imag * x.imag
    env *= 1.0 / np.square(hw.a_sat)
    env += 1.0
    np.sqrt(env, out=env)
    np.reciprocal(env, out=env)
    out = x * (math.sqrt(hw.a0) * hw.t)
    # r promoted to complex: (re r - im 0, re 0 + im r), each part times r
    out *= env
    return out


def bussgang_decompose(hpa: HpaModel | SystemHardware, sigma_x) -> BussgangPair:
    """Bussgang pair at input rms sigma_x (a0 stays outside).

    ``hpa`` is one amplifier, or the BS hardware: then t, a_sat and a
    per-antenna ``sigma_x`` broadcast over the antenna axis.
    """
    _check_positive("sigma_x", sigma_x)
    g = hpa.t * bussgang_mu(hpa.a_sat / sigma_x)
    # |t|^2 from real and imaginary parts: numpy's complex abs takes one
    # algorithm for a scalar and another for an array
    t = hpa.t
    sigma_d2 = (t.real * t.real + t.imag * t.imag) * bussgang_lambda(hpa.a_sat, sigma_x)
    return BussgangPair(g=g, sigma_d2=sigma_d2)


def a_sat_for_ibo(ibo: float, rho_t: float, m: int) -> float:
    """Common saturation level a_sat = sigma 10^(ibo/10) for the mean
    per-antenna rms sigma = sqrt(rho_t/m).  So ibo = 10 log10(a_sat/sigma),
    an amplitude ratio under 10 log10, and the power back-off a_sat^2/sigma^2
    is 2 ibo dB."""
    if not math.isfinite(ibo):
        raise ValueError(f"ibo must be finite, got {ibo}")
    _check_positive("rho_t", rho_t)
    _check_positive("m", m)
    return math.sqrt(rho_t / m) * 10.0 ** (ibo / 10.0)
