"""The batched zero-forcing core in numpy: the uplink assembly ``uplink``,
``zf_apply``, which builds precoders, and ``effective_channels``, the
Monte-Carlo kernel, which works from K x K products of the channel without
forming one.
"""

from __future__ import annotations

import math

import numpy as np

# an equilibrated Gram matrix above this condition number counts as rank-deficient
ZF_COND_MAX = 1e12


def uplink(h: np.ndarray, r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Effective uplink H_UL = R H^T B of (..., K, M) channels, shape (..., M, K)."""
    return np.swapaxes(h, -1, -2) * (r[:, None] * b)


def _equilibrate(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S gram S, s) with S = diag(s) = diag(gram)^{-1/2}."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 1.0 / np.sqrt(np.real(np.diagonal(gram, axis1=-2, axis2=-1)))
        return s[..., :, None] * gram * s[..., None, :], s


def _cond(scaled: np.ndarray) -> np.ndarray:
    """Condition numbers of a batch of Hermitian matrices, inf where not finite.
    Of an equilibrated Gram matrix, whose unit diagonal removes each UE's path
    loss, it measures only how nearly collinear the channels are; a draw is
    rank-deficient when it exceeds ``ZF_COND_MAX``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        finite = np.isfinite(scaled).all(axis=(-2, -1))
        cond = np.full(finite.shape, np.inf)
        # a Hermitian matrix's singular values are |eigenvalues|
        lam = np.abs(np.linalg.eigvalsh(scaled[finite]))
        cond[finite] = lam.max(axis=-1) / lam.min(axis=-1)
    return cond


def _well_conditioned(scaled: np.ndarray) -> bool:
    """True when every unit-diagonal matrix E of the batch provably has
    cond(E) <= ZF_COND_MAX / 100, from its Cholesky factor L alone.  The K
    eigenvalues of E are positive and sum to K, so lambda_max < K and, by
    AM-GM over the other K - 1, lambda_min > det(E)/e, with det(E) = prod
    diag(L)^2: cond(E) < K e / det(E).  The factor 100 covers the rounding
    of L and of ``eigvalsh``; a failed factorisation certifies nothing."""
    try:
        chol = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        return False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        det = np.prod(np.real(np.diagonal(chol, axis1=-2, axis2=-1)) ** 2, axis=-1)
        bound = scaled.shape[-1] * math.e / det
    # a NaN bound fails the comparison
    return bool(np.all(bound <= ZF_COND_MAX / 100))


def _full_rank_gram(gram: np.ndarray, first: int,
                    total: int | None) -> tuple[np.ndarray, np.ndarray]:
    """``_equilibrate`` of a batch that must have full rank: (S gram S, s).
    A batch that ``_well_conditioned`` certifies skips the eigenvalues; any
    other gets the exact ``_cond`` of S gram S, and its first
    rank-deficient draw raises LinAlgError naming it draw ``first + i`` of
    ``total`` (or of B)."""
    scaled, s = _equilibrate(gram)
    if _well_conditioned(scaled):
        return scaled, s
    cond = _cond(scaled)
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
    rank-deficient draw (``_full_rank_gram``) raises LinAlgError naming it
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

    h is (B, K, M); r is (M,) and g a (C, M) stack of gain vectors; b, u
    are (K,).  W is the zero-forcing precoder built from H_UL = R H^T B with
    normalisation 1/sqrt(beta).  Returns (C, B, K, K), from one Gram matrix
    per draw.  A rank-deficient draw raises LinAlgError as in ``zf_apply``,
    named draw ``first + i`` of ``total`` (or of B).

    With P = H diag(g r^*) H^H and Q = H diag(|r|^2) H^H, the uplink Gram
    matrix is B Q B^* and H G H_UL^* = P B^*, so U H G W = U P Q^{-1} B^{-1}
    / sqrt(beta).  Only K x K products of H are formed: H_UL, its conjugate
    and H G never are.
    """
    n, k, m = h.shape
    c = g.shape[0]
    weights = np.concatenate([(np.abs(r) ** 2)[None], np.conj(g) * r])
    # conj(H) diag(w) H^T for every weight in one product: [Q^T; conj P_1; ...],
    # with conj(H) written straight into its 1 + C copies
    stacked = np.conjugate(np.broadcast_to(h[:, None], (n, 1 + c, k, m)))
    stacked *= weights[:, None, :]
    qp = (stacked.reshape(n, (1 + c) * k, m) @ np.swapaxes(h, -1, -2)).reshape(n, 1 + c, k, k)
    del stacked  # the largest array here; the inverse below needs only K x K ones
    # equilibrated, B Q B^* and Q differ by a unit-modulus diagonal
    # similarity, so Q's cond is the uplink Gram matrix's
    gram, s = _full_rank_gram(qp[:, 0], first, total)
    # (P Q^{-1})^T = (Q^T)^{-1} P^T = S E^{-1} S P^T with E = S Q^T S: one
    # inverse per draw, applied to each row's own K x K right-hand side, so a
    # row is the same product as its one-row stack (one K x C K product
    # would not be)
    x = np.linalg.inv(gram)[:, None] @ (s[:, None, :, None] * np.conj(
        np.swapaxes(qp[:, 1:], -1, -2)))  # (B, C, K_i, K_j)
    return u[:, None] * (s[:, None, :, None] * x).transpose(1, 0, 3, 2) / (b * math.sqrt(beta))
