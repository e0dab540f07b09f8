"""Propagation channel generation and effective uplink assembly.

Convention: ``draw_channel`` takes the per-row mean-square power directly
(E{|h_km|^2} = phi_k as passed).  The analysis layer follows the paper's
amplitude convention, where a path-loss value phi corresponds to a row
mean-square of phi^2; a caller of ``draw_channel`` with such a phi squares it
first.  ``analysis.estimate_sindr_mc`` draws into its own buffer instead and
scales row k by |phi_k|/sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .hardware import SystemHardware

__all__ = [
    "CellGeometry",
    "ChannelRealization",
    "draw_ue_pathloss",
    "draw_channel",
    "uplink_channel",
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
        if not 0 < self.min_dist < self.radius:
            raise ValueError("need 0 < min_dist < radius")
        if self.zeta <= 0 or self.xi < 0:
            raise ValueError("need zeta > 0 and xi >= 0")


@dataclass(frozen=True)
class ChannelRealization:
    """Propagation matrix H (K x M) with per-row mean-square profile ``phi``."""

    h: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        if np.any(np.asarray(self.phi) <= 0):
            raise ValueError("phi entries must be positive")
        if self.h.shape[0] != len(self.phi):
            raise ValueError("h must have one row per phi entry")


def draw_ue_pathloss(rng: np.random.Generator, k: int, geom: CellGeometry) -> np.ndarray:
    """Path-loss gains phi_k = zeta * d^(-xi) for K UEs placed area-uniformly
    on the annulus [min_dist, radius]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    u = rng.uniform(0.0, 1.0, size=k)
    d = np.sqrt(geom.min_dist**2 + u * (geom.radius**2 - geom.min_dist**2))
    return geom.zeta * d ** (-geom.xi)


def draw_channel(rng: np.random.Generator, m: int, phi) -> ChannelRealization:
    """Rayleigh channel with E{|h_km|^2} = phi_k: h = diag(sqrt(phi)) H_r."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 1:
        raise ValueError("phi must be a vector")
    if np.any(phi <= 0):
        raise ValueError("phi entries must be positive")
    k = len(phi)
    h_r = (rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))) / np.sqrt(2.0)
    return ChannelRealization(h=np.sqrt(phi)[:, None] * h_r, phi=phi)


def uplink_channel(ch: ChannelRealization, hw: SystemHardware) -> np.ndarray:
    """Effective uplink H_UL = R H^T B, shape M x K."""
    k, m = ch.h.shape
    if m != hw.m or k != hw.k:
        raise ValueError(f"dimension mismatch: channel {k}x{m} vs hardware M={hw.m}, K={hw.k}")
    return _kernels.uplink(ch.h, hw.bs_rx, hw.ue_tx_gain)
