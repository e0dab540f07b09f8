"""Hot numeric kernels: special functions with a numba fast path and a
pure-numpy fallback, and the batched zero-forcing core.

The special-function backend is picked once at import time: numba is used
whenever it can be imported, unless the environment variable
``MIMO_RECAL_NO_NUMBA`` is set to a truthy value ("1", "true", "yes", "on").
The special functions behave identically on both backends.

The scalar special functions here (erfcx, scaled E1, the Bussgang gain and
distortion-variance curves) are written so the same source compiles under
``@numba.njit`` and runs as plain Python.  The array entry points either wrap
the scalars with ``numba.vectorize`` or use masked vectorised numpy.  The ZF
core is batched numpy (matmul and K x K solves) on both backends:
``zf_apply`` builds precoders, and ``effective_channels``, the Monte-Carlo
kernel, works from K x K products of the channel without forming one.
"""

from __future__ import annotations

import math
import os

import numpy as np

_ENV_FLAG = "MIMO_RECAL_NO_NUMBA"

_SQRT_PI = math.sqrt(math.pi)
_EULER_GAMMA = 0.5772156649015328606


def _numba_disabled() -> bool:
    return os.environ.get(_ENV_FLAG, "").strip().lower() in {"1", "true", "yes", "on"}


try:
    if _numba_disabled():
        raise ImportError("numba disabled via MIMO_RECAL_NO_NUMBA")
    import numba as _nb

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via env flag in CI
    _nb = None
    HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"


def backend_name() -> str:
    """Active kernel backend, either ``"numba"`` or ``"numpy"``."""
    return BACKEND


# ---------------------------------------------------------------------------
# scalar special functions (njit-compatible source)
# ---------------------------------------------------------------------------


def _erfcx_scalar(x: float) -> float:
    # x >= 0.  Maclaurin series of erf below the crossover, Laplace continued
    # fraction above; the crossover keeps both branches at ~1e-15 relative.
    if x < 2.0:
        x2 = x * x
        term = x
        acc = x
        k = 1
        while k < 80:
            term *= -x2 / k
            delta = term / (2 * k + 1)
            acc += delta
            if abs(delta) < 1e-18 * abs(acc):
                break
            k += 1
        erf = 2.0 / _SQRT_PI * acc
        return (1.0 - erf) * math.exp(x2)
    # modified Lentz on F = x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))
    f = x
    c = x
    d = 0.0
    for n in range(1, 300):
        a = 0.5 * n
        d = x + a * d
        if d == 0.0:
            d = 1e-300
        c = x + a / c
        if c == 0.0:
            c = 1e-300
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return 1.0 / (_SQRT_PI * f)


def _e1_scaled_scalar(y: float) -> float:
    # exp(y) * E1(y) for y > 0.  Power series below 1, Lentz continued
    # fraction above (the even form used by the classic expint routine).
    if y <= 1.0:
        acc = -_EULER_GAMMA - math.log(y)
        term = 1.0
        k = 1
        while k < 60:
            term *= -y / k
            delta = -term / k
            acc += delta
            if abs(delta) < 1e-18 * abs(acc):
                break
            k += 1
        return math.exp(y) * acc
    b = y + 1.0
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, 400):
        a = -float(i) * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _mu_scalar(x: float) -> float:
    # Bussgang linear gain of the smooth envelope limiter for a complex
    # Gaussian input with saturation-to-rms ratio x.  The closed form
    # (x/2) * [2x - sqrt(pi) erfcx(x) (2x^2 - 1)] cancels catastrophically for
    # large x, so beyond 50 the asymptotic series 1 - u + 2.25u^2 - ... with
    # u = 1/x^2 takes over (relative error < 1e-13 at the crossover).
    if x == 0.0:
        return 0.0
    if x > 50.0:
        inv = 1.0 / x
        u = inv * inv
        return 1.0 + u * (-1.0 + u * (2.25 + u * (-7.5 + u * 32.8125)))
    bracket = 2.0 * x - _SQRT_PI * _erfcx_scalar(x) * (2.0 * x * x - 1.0)
    return 0.5 * x * bracket


def _lam_scalar(a_sat: float, sigma: float) -> float:
    # Distortion variance per unit |t|^2: A^2 + (A^4/s^2) e^{y} Ei(-y) - s^2 mu^2
    # with y = A^2/s^2.  Uses the scaled E1  (e^{y} Ei(-y) = -e1_scaled(y)) and
    # an asymptotic branch past a_sat/sigma = 25 where the direct form cancels.
    a = a_sat / sigma
    if a > 25.0:
        inv = 1.0 / a
        u = inv * inv
        u2 = u * u
        val = sigma * sigma * u2 * (0.5 + u * (-4.5 + u * 34.3125))
        return val if val > 0.0 else 0.0
    y = a * a
    mu = _mu_scalar(a)
    val = a_sat * a_sat - (a_sat ** 4 / (sigma * sigma)) * _e1_scaled_scalar(y) - sigma * sigma * mu * mu
    return val if val > 0.0 else 0.0


# ---------------------------------------------------------------------------
# vectorised numpy fallbacks
# ---------------------------------------------------------------------------


def _erfcx_np(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    small = x < 2.0
    if np.any(small):
        xs = x[small]
        x2 = xs * xs
        term = xs.copy()
        acc = xs.copy()
        for k in range(1, 80):
            term *= -x2 / k
            acc += term / (2 * k + 1)
        erf = 2.0 / _SQRT_PI * acc
        out[small] = (1.0 - erf) * np.exp(x2)
    if np.any(~small):
        xl = x[~small]
        # backward evaluation of the continued fraction, depth 160 covers x>=2
        t = xl.copy()
        for n in range(160, 0, -1):
            t = xl + (0.5 * n) / t
        out[~small] = 1.0 / (_SQRT_PI * t)
    return out


def _e1_scaled_np(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    out = np.empty_like(y)
    small = y <= 1.0
    if np.any(small):
        ys = y[small]
        acc = -_EULER_GAMMA - np.log(ys)
        term = np.ones_like(ys)
        for k in range(1, 60):
            term *= -ys / k
            acc -= term / k
        out[small] = np.exp(ys) * acc
    if np.any(~small):
        yl = y[~small]
        # backward recurrence of F = (y+1) - 1/((y+3) - 4/((y+5) - ...))
        depth = 220
        t = yl + (2.0 * depth + 1.0)
        for i in range(depth, 0, -1):
            t = (yl + (2.0 * i - 1.0)) - (i * i) / t
        out[~small] = 1.0 / t
    return out


def _mu_np(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    large = x > 50.0
    if np.any(large):
        u = (1.0 / x[large]) ** 2
        out[large] = 1.0 + u * (-1.0 + u * (2.25 + u * (-7.5 + u * 32.8125)))
    rest = ~large
    if np.any(rest):
        xr = x[rest]
        bracket = 2.0 * xr - _SQRT_PI * _erfcx_np(xr) * (2.0 * xr * xr - 1.0)
        out[rest] = 0.5 * xr * bracket
    return out


def _lam_np(a_sat: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    a_sat = np.asarray(a_sat, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    a_sat, sigma = np.broadcast_arrays(a_sat, sigma)
    a = a_sat / sigma
    out = np.empty_like(a)
    large = a > 25.0
    if np.any(large):
        u = (1.0 / a[large]) ** 2
        out[large] = sigma[large] ** 2 * u * u * (0.5 + u * (-4.5 + u * 34.3125))
    rest = ~large
    if np.any(rest):
        ar = a[rest]
        sr = sigma[rest]
        Ar = a_sat[rest]
        mu = _mu_np(ar)
        out[rest] = Ar ** 2 - (Ar ** 4 / sr ** 2) * _e1_scaled_np(ar * ar) - sr ** 2 * mu * mu
    return np.maximum(out, 0.0)


# ---------------------------------------------------------------------------
# backend wiring
# ---------------------------------------------------------------------------

if HAVE_NUMBA:
    _erfcx_scalar = _nb.njit(cache=True)(_erfcx_scalar)
    _e1_scaled_scalar = _nb.njit(cache=True)(_e1_scaled_scalar)
    _mu_scalar = _nb.njit(cache=True)(_mu_scalar)
    _lam_scalar = _nb.njit(cache=True)(_lam_scalar)

    erfcx_arr = _nb.vectorize(["float64(float64)"], nopython=True, cache=True)(
        _erfcx_scalar.py_func
    )
    e1_scaled_arr = _nb.vectorize(["float64(float64)"], nopython=True, cache=True)(
        _e1_scaled_scalar.py_func
    )
    mu_arr = _nb.vectorize(["float64(float64)"], nopython=True, cache=True)(
        _mu_scalar.py_func
    )
    lam_arr = _nb.vectorize(["float64(float64, float64)"], nopython=True, cache=True)(
        _lam_scalar.py_func
    )
else:
    erfcx_arr = _erfcx_np
    e1_scaled_arr = _e1_scaled_np
    mu_arr = _mu_np
    lam_arr = _lam_np


# ---------------------------------------------------------------------------
# batched zero-forcing core (the Monte-Carlo hot loop)
# ---------------------------------------------------------------------------

# an equilibrated Gram matrix above this condition number counts as rank-deficient
ZF_COND_MAX = 1e12


def uplink(h: np.ndarray, r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Effective uplink H_UL = R H^T B of (..., K, M) channels, shape (..., M, K)."""
    return np.swapaxes(h, -1, -2) * (r[:, None] * b)


def equilibrated_gram(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S gram S, s, cond) for a (..., K, K) batch of Gram matrices, with
    S = diag(s) = diag(gram)^{-1/2} and cond that of S gram S (inf when not
    finite).  The unit diagonal removes each UE's path loss, so cond only
    measures how nearly collinear the channels are; a draw is rank-deficient
    when cond exceeds ``ZF_COND_MAX``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 1.0 / np.sqrt(np.real(np.diagonal(gram, axis1=-2, axis2=-1)))
        scaled = s[..., :, None] * gram * s[..., None, :]
        finite = np.isfinite(scaled).all(axis=(-2, -1))
        cond = np.full(finite.shape, np.inf)
        # the Gram matrix is Hermitian, so its singular values are |eigenvalues|
        lam = np.abs(np.linalg.eigvalsh(scaled[finite]))
        cond[finite] = lam.max(axis=-1) / lam.min(axis=-1)
    return scaled, s, cond


def _full_rank_gram(gram: np.ndarray, first: int,
                    total: int | None) -> tuple[np.ndarray, np.ndarray]:
    """``equilibrated_gram`` of a batch that must have full rank: (S gram S, s).
    The first rank-deficient draw raises LinAlgError naming it draw
    ``first + i`` of ``total`` (or of B)."""
    scaled, s, cond = equilibrated_gram(gram)
    bad = np.flatnonzero(~(cond <= ZF_COND_MAX))
    if bad.size:
        i = int(bad[0])
        raise np.linalg.LinAlgError(
            f"rank-deficient uplink Gram matrix in draw {first + i} of "
            f"{cond.size if total is None else total} (cond={cond[i]:.3g})")
    return scaled, s


def zf_apply(h_ul: np.ndarray, beta: float, first: int = 0,
             total: int | None = None) -> np.ndarray:
    """Zero-forcing precoders W = H_UL^* (H_UL^T H_UL^*)^{-1} / sqrt(beta).

    h_ul is (B, M, K); the result is (B, M, K), from K x K solves.  A
    rank-deficient draw (``equilibrated_gram``) raises LinAlgError naming it
    draw ``first + i`` of ``total`` (or of B).
    """
    h_conj = np.conj(h_ul)
    # (H_UL^T H_UL^*)^T = H_UL^H H_UL; solving against the transpose gives
    # W^T = (Gram^T)^{-1} H_UL^H, and with the equilibrated E = S Gram^T S
    # that is S E^{-1} S H_UL^H
    gram, s = _full_rank_gram(np.swapaxes(h_conj, -1, -2) @ h_ul, first, total)
    x = np.linalg.solve(gram, s[..., :, None] * np.swapaxes(h_conj, -1, -2))
    return np.swapaxes((s / math.sqrt(beta))[..., :, None] * x, -1, -2)


def effective_channels(
    h: np.ndarray,
    r: np.ndarray,
    b: np.ndarray,
    u: np.ndarray,
    g: np.ndarray,
    beta: float,
    first: int = 0,
    total: int | None = None,
) -> np.ndarray:
    """Effective downlink channels U H G W for a batch of channel draws.

    h is (B, K, M); r, g are (M,); b, u are (K,).  W is the zero-forcing
    precoder built from H_UL = R H^T B with normalisation 1/sqrt(beta).
    Returns (B, K, K).  A rank-deficient draw raises LinAlgError as in
    ``zf_apply``, named draw ``first + i`` of ``total`` (or of B).

    With P = H diag(g r^*) H^H and Q = H diag(|r|^2) H^H, the uplink Gram
    matrix is B Q B^* and H G H_UL^* = P B^*, so U H G W = U P Q^{-1} B^{-1}
    / sqrt(beta).  Only K x K products of H are formed: H_UL, its conjugate
    and H G never are.
    """
    n, k, m = h.shape
    weights = np.stack([np.abs(r) ** 2, np.conj(g) * r])
    # conj(H) diag(w) H^T for both weights in one product: [Q^T; conj P]
    stacked = (np.conj(h)[:, None] * weights[:, None, :]).reshape(n, 2 * k, m)
    qp = (stacked @ np.swapaxes(h, -1, -2)).reshape(n, 2, k, k)
    # equilibrated, B Q B^* and Q differ by a unit-modulus diagonal
    # similarity, so Q's cond is the uplink Gram matrix's
    gram, s = _full_rank_gram(qp[:, 0], first, total)
    # (P Q^{-1})^T = (Q^T)^{-1} P^T = S E^{-1} S P^T with E = S Q^T S
    x = np.linalg.solve(gram, s[..., :, None] * np.conj(np.swapaxes(qp[:, 1], -1, -2)))
    return u[:, None] * np.swapaxes(s[..., :, None] * x, -1, -2) / (b * math.sqrt(beta))
