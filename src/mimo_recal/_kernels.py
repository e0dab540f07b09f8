"""Hot numeric kernels: the special functions behind the Bussgang curves, and
the batched zero-forcing core.

The special functions take float64 arrays and use numpy and ``math.erfc``
(elementwise through ``np.frompyfunc``); each continued fraction takes its
depth from the smallest argument in the call.  The ZF core is batched numpy:
``zf_apply`` builds precoders, and ``effective_channels``, the Monte-Carlo
kernel, works from K x K products of the channel without forming one.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
_EULER_GAMMA = 0.5772156649015328606
_ERFC = np.frompyfunc(math.erfc, 1, 1)
# at and above these ratios erfcx and mu use the Laplace continued fraction
_ERFCX_CF_FROM = 10.0
_MU_CF_FROM = 4.0


def erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function of a float64 array, by ``math.erfc``."""
    return np.asarray(_ERFC(x), dtype=np.float64)


def _laplace_tail(x: np.ndarray) -> np.ndarray:
    """F1 = x + 1/(x + (3/2)/(x + 2/(x + ...))) for x >= 4, so that
    sqrt(pi) erfcx(x) = 1/(x + (1/2)/F1).  Against depth 3000 on [4, 1e8],
    the depth that reaches 1.2e-16 is 24 at x = 4 and 11 at x = 10, and
    ceil(80/x) + 6 exceeds it everywhere."""
    t = x.copy()
    for n in range(math.ceil(80.0 / float(np.min(x))) + 6, 1, -1):
        t = x + (0.5 * n) / t
    return t


def erfcx(x: np.ndarray) -> np.ndarray:
    """Scaled complementary error function erfc(x) exp(x^2) for x >= 0."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    small = ~(x >= _ERFCX_CF_FROM)  # NaN takes the erfc branch and stays NaN
    if np.any(small):
        # exp of x^2 = hi + lo split exactly (Dekker), so the rounding of x*x
        # (up to 7e-15 relative below 10) does not reach exp
        xs = x[small]
        c = 134217729.0 * xs
        xh = c - (c - xs)
        xl = xs - xh
        hi = xs * xs
        lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
        out[small] = erfc(xs) * (np.exp(hi) * (1.0 + lo))
    if not np.all(small):
        xl = x[~small]
        out[~small] = 1.0 / (_SQRT_PI * (xl + 0.5 / _laplace_tail(xl)))
    return out


def e1_scaled(y: np.ndarray) -> np.ndarray:
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
        # 95 at y = 1 and 14 at y = 10, and ceil(100/y) + 6 exceeds it.
        yl = y[~small]
        depth = math.ceil(100.0 / float(np.min(yl))) + 6
        t = yl + (2.0 * depth + 1.0)
        for i in range(depth, 0, -1):
            t = (yl + (2.0 * i - 1.0)) - (i * i) / t
        out[~small] = 1.0 / t
    return out


def mu(x: np.ndarray) -> np.ndarray:
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
        xs = x[small]
        out[small] = 0.5 * xs * (2.0 * xs - _SQRT_PI * erfcx(xs) * (2.0 * xs * xs - 1.0))
    return out


def lam(a_sat: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Distortion variance per unit |t|^2 at saturation a_sat and input rms
    sigma: A^2 + (A^4/s^2) e^y Ei(-y) - s^2 mu^2 with y = A^2/s^2, where
    e^y Ei(-y) = -e1_scaled(y).  Past A/s = 25 the direct form cancels and
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
        mu_r = mu(ar)
        out[rest] = Ar ** 2 - (Ar ** 4 / sr ** 2) * e1_scaled(ar * ar) - sr ** 2 * mu_r * mu_r
    return np.maximum(out, 0.0)


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
