"""Special functions and random-variate primitives shared by all modules.

All math is 64-bit.  These wrappers check the domain and keep scalars scalar;
the elementwise kernels behind them live in ``_kernels`` and run on numpy and
the standard library's ``math.erfc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "MismatchDistribution",
    "erfc",
    "erfcx",
    "exp_integral_ei",
    "exp_integral_ei_scaled",
    "bussgang_mu",
    "bussgang_lambda",
    "draw_complex_gain",
    "sinc",
]


@dataclass(frozen=True)
class MismatchDistribution:
    """Log-normal amplitude / uniform phase law of one RF-gain role.

    ``log_amp_var`` is the variance of ln|g| and ``phase_bound`` the half-width
    of the uniform phase in radians.
    """

    log_amp_var: float
    phase_bound: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.log_amp_var) or self.log_amp_var < 0:
            raise ValueError(f"log_amp_var must be finite and >= 0, got {self.log_amp_var}")
        if not 0.0 <= self.phase_bound <= math.pi:
            raise ValueError(f"phase_bound must lie in [0, pi], got {self.phase_bound}")


def _as_float_array(x):
    return np.asarray(x, dtype=np.float64)


def erfcx(x):
    """Scaled complementary error function erfc(x)*exp(x^2) for x >= 0."""
    arr = _as_float_array(x)
    if np.any(arr < 0):
        raise ValueError("erfcx is only implemented for x >= 0")
    out = _kernels.erfcx(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def erfc(x):
    """Complementary error function, valid for any real x."""
    arr = _as_float_array(x)
    if not np.all(np.isfinite(arr)):
        raise ValueError("erfc requires finite input")
    out = _kernels.erfc(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def exp_integral_ei(x):
    """Exponential integral Ei(x) for x < 0."""
    arr = _as_float_array(x)
    if np.any(arr >= 0):
        raise ValueError("exp_integral_ei is defined for x < 0 only")
    out = -_kernels.e1_scaled(-arr) * np.exp(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def exp_integral_ei_scaled(x):
    """Scaled form exp(-x)*Ei(x) for x < 0, safe for very negative x."""
    arr = _as_float_array(x)
    if np.any(arr >= 0):
        raise ValueError("exp_integral_ei_scaled is defined for x < 0 only")
    out = -_kernels.e1_scaled(-arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def bussgang_mu(x):
    """Bussgang linear gain of the smooth envelope limiter.

    ``x`` is the saturation-to-rms ratio A_sat/sigma_x; the result lies in
    [0, 1) and is monotone increasing.
    """
    arr = _as_float_array(x)
    if np.any(arr < 0):
        raise ValueError("bussgang_mu requires x >= 0")
    out = _kernels.mu(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def bussgang_lambda(a_sat, sigma_x):
    """Distortion variance per unit squared gain-vibration, lambda(A_sat, sigma)."""
    a = _as_float_array(a_sat)
    s = _as_float_array(sigma_x)
    if np.any(a <= 0) or np.any(s <= 0):
        raise ValueError("bussgang_lambda requires positive arguments")
    out = _kernels.lam(a, s)
    scalar = np.isscalar(a_sat) and np.isscalar(sigma_x)
    return float(out) if scalar else out


def draw_complex_gain(rng: np.random.Generator, dist: MismatchDistribution, size=None):
    """Draw |g| = exp(N(0, delta^2)) with phase uniform on (-theta, theta)."""
    amp = np.exp(rng.normal(0.0, math.sqrt(dist.log_amp_var), size=size))
    if dist.phase_bound > 0:
        phase = rng.uniform(-dist.phase_bound, dist.phase_bound, size=size)
    else:
        phase = np.zeros_like(np.asarray(amp, dtype=np.float64))
    return amp * np.exp(1j * phase)


def sinc(theta):
    """Unnormalised sinc sin(theta)/theta with sinc(0) = 1."""
    return np.sinc(np.asarray(theta, dtype=np.float64) / np.pi)
