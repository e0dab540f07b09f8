"""The Bussgang curves, random-variate primitives and the finite-positive
input check shared by all modules.

All math is 64-bit.  ``bussgang_mu`` and ``bussgang_lambda`` are the
library's special-function entry points: they check the domain and keep
scalars scalar, and the elementwise kernels behind them live in ``_kernels``
and run on numpy and the standard library's ``math.erfc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "MismatchDistribution",
    "bussgang_mu",
    "bussgang_lambda",
    "draw_complex_gain",
    "sinc",
]


def _check_positive(name: str, value, zero_ok: bool = False):
    """``value`` as float64, a float for a scalar; raises ValueError naming
    ``name`` unless every entry is finite and > 0, or >= 0 with ``zero_ok``."""
    arr = np.asarray(value, dtype=np.float64)
    # a NaN fails the comparison
    if not np.all((arr >= 0 if zero_ok else arr > 0) & (arr < math.inf)):
        kind = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be finite and {kind}, got {value}")
    return float(arr) if arr.ndim == 0 else arr


@dataclass(frozen=True)
class MismatchDistribution:
    """Log-normal amplitude / uniform phase law of one RF-gain role.

    ``log_amp_var`` is the variance of ln|g| and ``phase_bound`` the half-width
    of the uniform phase in radians.
    """

    log_amp_var: float
    phase_bound: float = 0.0

    def __post_init__(self):
        _check_positive("log_amp_var", self.log_amp_var, zero_ok=True)
        if not 0.0 <= self.phase_bound <= math.pi:
            raise ValueError(f"phase_bound must lie in [0, pi], got {self.phase_bound}")


def bussgang_mu(x):
    """Bussgang linear gain of the smooth envelope limiter.

    ``x`` is the saturation-to-rms ratio A_sat/sigma_x; the result lies in
    [0, 1) and is monotone increasing.
    """
    arr = np.asarray(x, dtype=np.float64)
    # a NaN fails the comparison
    if not np.all(arr >= 0):
        raise ValueError("bussgang_mu requires x >= 0")
    out = _kernels.mu(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def bussgang_lambda(a_sat, sigma_x):
    """Distortion variance per unit squared gain-vibration, lambda(A_sat, sigma)."""
    out = _kernels.lam(_check_positive("a_sat", a_sat), _check_positive("sigma_x", sigma_x))
    scalar = np.isscalar(a_sat) and np.isscalar(sigma_x)
    return float(out) if scalar else out


def draw_complex_gain(rng: np.random.Generator, dist: MismatchDistribution, size: int):
    """Draw ``size`` gains |g| = exp(N(0, delta^2)) with phase uniform on
    (-theta, theta), drawn at theta = 0 too: every law reads as many draws."""
    amp = np.exp(rng.normal(0.0, math.sqrt(dist.log_amp_var), size=size))
    return amp * np.exp(1j * rng.uniform(-dist.phase_bound, dist.phase_bound, size=size))


def sinc(theta):
    """Unnormalised sinc sin(theta)/theta with sinc(0) = 1."""
    return np.sinc(np.asarray(theta, dtype=np.float64) / np.pi)
