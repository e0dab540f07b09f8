"""The Bussgang curves, the special functions behind them and the
finite-positive input check shared by all modules.

All math is 64-bit.  ``bussgang_mu`` and ``bussgang_lambda`` are the
library's special-function entry points: they check the domain and keep
scalars scalar.  The unchecked elementwise kernels behind them run on numpy
and ``math.erfc``; each continued fraction has a fixed depth, so every value
depends on its own argument only.  The kernels call each other, never the
entry points.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bussgang_mu",
    "bussgang_lambda",
]

_SQRT_PI = math.sqrt(math.pi)
_EULER_GAMMA = 0.5772156649015328606
_ERFC = np.frompyfunc(math.erfc, 1, 1)
# at and above this ratio _mu uses the Laplace continued fraction
_MU_CF_FROM = 4.0
# continued-fraction depths: ceil(80/x) + 6 at x = 4 for the Laplace tail and
# ceil(100/y) + 6 at y = 1 for the scaled E1, the floors of their branches
_LAPLACE_DEPTH = 26
_E1_DEPTH = 106


def _check_positive(name: str, value, zero_ok: bool = False):
    """``value`` as float64, a float for a scalar; raises ValueError naming
    ``name`` unless every entry is finite and > 0, or >= 0 with ``zero_ok``."""
    arr = np.asarray(value, dtype=np.float64)
    # a NaN fails the comparison
    if not np.all((arr >= 0 if zero_ok else arr > 0) & (arr < math.inf)):
        kind = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be finite and {kind}, got {value}")
    return float(arr) if arr.ndim == 0 else arr


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function of a float64 array, by ``math.erfc``."""
    return np.asarray(_ERFC(x), dtype=np.float64)


def _laplace_tail(x: np.ndarray) -> np.ndarray:
    """F1 = x + 1/(x + (3/2)/(x + 2/(x + ...))) for x >= 4, so that
    sqrt(pi) erfcx(x) = 1/(x + (1/2)/F1).  Against depth 3000 on [4, 1e8],
    the depth that reaches 1.2e-16 is 24 at x = 4 and 11 at x = 10, below
    ``_LAPLACE_DEPTH``."""
    t = x.copy()
    for n in range(_LAPLACE_DEPTH, 1, -1):
        t = x + (0.5 * n) / t
    return t


def _e1_scaled(y: np.ndarray) -> np.ndarray:
    """exp(y) E1(y) for y > 0."""
    y = np.asarray(y, dtype=np.float64)
    out = np.empty_like(y)
    small = ~(y > 1.0)
    if np.any(small):
        # E1(y) = -gamma - ln y - sum_k (-y)^k / (k k!); 24 terms reach 1e-24
        ys = y[small]
        acc = -_EULER_GAMMA - np.log(ys)
        term = np.ones_like(ys)
        for k in range(1, 25):
            term *= -ys / k
            acc -= term / k
        out[small] = np.exp(ys) * acc
    if not np.all(small):
        # backward recurrence of F = (y+1) - 1/((y+3) - 4/((y+5) - ...)).
        # Against depth 400 on [1, 1e4], the depth that reaches 2.3e-16 is
        # 95 at y = 1 and 14 at y = 10, below ``_E1_DEPTH``.
        yl = y[~small]
        t = yl + (2.0 * _E1_DEPTH + 1.0)
        for i in range(_E1_DEPTH, 0, -1):
            t = (yl + (2.0 * i - 1.0)) - (i * i) / t
        out[~small] = 1.0 / t
    return out


def _mu(x: np.ndarray) -> np.ndarray:
    """Bussgang gain of the smooth envelope limiter at saturation-to-rms
    ratio x >= 0: (x/2) B with B = 2x - sqrt(pi) erfcx(x) (2x^2 - 1).  B
    cancels as x grows (16x at x = 4), so from 4 on it is (1 + x/F1)/(x +
    (1/2)/F1) with the Laplace tail F1, and past 50 the asymptotic series
    1 - u + 2.25u^2 - ... with u = 1/x^2 takes over."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    large = x > 50.0
    if np.any(large):
        u = (1.0 / x[large]) ** 2
        out[large] = 1.0 + u * (-1.0 + u * (2.25 + u * (-7.5 + u * 32.8125)))
    mid = (x >= _MU_CF_FROM) & ~large
    if np.any(mid):
        xm = x[mid]
        f1 = _laplace_tail(xm)
        out[mid] = 0.5 * xm * (1.0 + xm / f1) / (xm + 0.5 / f1)
    small = ~(large | mid)
    if np.any(small):
        # erfcx(x) = erfc(x) exp(x^2), with x^2 = hi + lo split exactly
        # (Dekker), so the rounding of x*x (up to 1.8e-15 relative below 4)
        # does not reach exp
        xs = x[small]
        c = 134217729.0 * xs
        xh = c - (c - xs)
        xl = xs - xh
        hi = xs * xs
        lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
        erfcx = _erfc(xs) * (np.exp(hi) * (1.0 + lo))
        out[small] = 0.5 * xs * (2.0 * xs - _SQRT_PI * erfcx * (2.0 * xs * xs - 1.0))
    return out


def _lam(a_sat: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Distortion variance per unit |t|^2 at saturation a_sat and input rms
    sigma: A^2 + (A^4/s^2) e^y Ei(-y) - s^2 mu^2 with y = A^2/s^2, where
    e^y Ei(-y) = -_e1_scaled(y).  Past A/s = 25 the direct form cancels and
    an asymptotic series takes over."""
    a_sat, sigma = np.broadcast_arrays(np.asarray(a_sat, dtype=np.float64),
                                       np.asarray(sigma, dtype=np.float64))
    a = a_sat / sigma
    out = np.empty_like(a)
    large = a > 25.0
    if np.any(large):
        u = (1.0 / a[large]) ** 2
        out[large] = sigma[large] ** 2 * u * u * (0.5 + u * (-4.5 + u * 34.3125))
    rest = ~large
    if np.any(rest):
        ar, sr, Ar = a[rest], sigma[rest], a_sat[rest]
        mu_r = _mu(ar)
        out[rest] = Ar ** 2 - (Ar ** 4 / sr ** 2) * _e1_scaled(ar * ar) - sr ** 2 * mu_r * mu_r
    return np.maximum(out, 0.0)


def bussgang_mu(x):
    """Bussgang linear gain of the smooth envelope limiter.

    ``x`` is the saturation-to-rms ratio A_sat/sigma_x; the result lies in
    [0, 1) and is monotone increasing.
    """
    arr = np.asarray(x, dtype=np.float64)
    # a NaN fails the comparison
    if not np.all(arr >= 0):
        raise ValueError("bussgang_mu requires x >= 0")
    out = _mu(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def bussgang_lambda(a_sat, sigma_x):
    """Distortion variance per unit squared gain-vibration, lambda(A_sat, sigma)."""
    out = _lam(_check_positive("a_sat", a_sat), _check_positive("sigma_x", sigma_x))
    scalar = np.isscalar(a_sat) and np.isscalar(sigma_x)
    return float(out) if scalar else out
