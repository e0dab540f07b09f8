"""Propagation channel generation.

Path loss phi_k is an amplitude gain: channel row k has mean-square phi_k^2.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "draw_ue_pathloss",
    "draw_channels",
]

# the normalised cell: radius, minimum BS-UE distance, reference path gain
# zeta (linear) and path-loss exponent xi
CELL_RADIUS = 1.0
MIN_DIST = 0.01
ZETA = 0.01
XI = 3.7


def draw_ue_pathloss(rng: np.random.Generator, k: int) -> np.ndarray:
    """Path-loss gains phi_k = ZETA * d^(-XI) for K UEs placed area-uniformly
    on the annulus [MIN_DIST, CELL_RADIUS]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    u = rng.uniform(0.0, 1.0, size=k)
    d = np.sqrt(MIN_DIST**2 + u * (CELL_RADIUS**2 - MIN_DIST**2))
    return ZETA * d ** (-XI)


def _check_phi(phi, k: int | None = None) -> np.ndarray:
    """``phi`` as a float64 array; raises ValueError unless it holds K
    finite positive path-loss amplitudes, K = ``k``, or any K >= 1 for None."""
    phi = np.asarray(phi, dtype=np.float64)
    shape_ok = phi.shape == (k,) if k is not None else phi.ndim == 1 and phi.size >= 1
    # a NaN fails the comparison
    if not shape_ok or not np.all((phi > 0) & (phi < math.inf)):
        want = "K >= 1" if k is None else f"K = {k}"
        raise ValueError(f"phi must hold {want} finite positive entries, got {phi}")
    return phi


def draw_channels(rng: np.random.Generator, phi, out: np.ndarray) -> np.ndarray:
    """Fill the complex (..., K, M) array ``out`` with Rayleigh channels,
    E{|h_km|^2} = phi_k^2, and return it: one generator call into its float
    view (real and imaginary parts interleaved), scaled by phi_k/sqrt(2).
    Raises ValueError unless ``phi`` is K finite positive entries."""
    phi = _check_phi(phi, out.shape[-2])
    out_f = out.view(np.float64)
    rng.standard_normal(out=out_f)
    out_f *= (phi / math.sqrt(2.0))[:, None]
    return out

