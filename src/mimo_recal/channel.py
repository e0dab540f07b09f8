"""Propagation channel generation.

Path loss phi_k is an amplitude gain: channel row k has mean-square phi_k^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CellGeometry",
    "draw_ue_pathloss",
    "draw_channels",
]


@dataclass(frozen=True)
class CellGeometry:
    """Normalised cell: radius, minimum BS-UE distance, reference path gain
    zeta (linear) and path-loss exponent xi."""

    radius: float = 1.0
    min_dist: float = 0.01
    zeta: float = 0.01
    xi: float = 3.7

    def __post_init__(self):
        # a NaN fails every comparison
        if not 0 < self.min_dist < self.radius < math.inf:
            raise ValueError("need 0 < min_dist < radius, radius finite")
        if not (0 < self.zeta < math.inf and 0 <= self.xi < math.inf):
            raise ValueError("need zeta > 0 and xi >= 0, both finite")


def draw_ue_pathloss(rng: np.random.Generator, k: int, geom: CellGeometry) -> np.ndarray:
    """Path-loss gains phi_k = zeta * d^(-xi) for K UEs placed area-uniformly
    on the annulus [min_dist, radius]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    u = rng.uniform(0.0, 1.0, size=k)
    d = np.sqrt(geom.min_dist**2 + u * (geom.radius**2 - geom.min_dist**2))
    return geom.zeta * d ** (-geom.xi)


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

