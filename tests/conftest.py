"""Shared oracles and helpers for the test suite.

Every oracle here is independent of the implementation path it checks:
quadrature and series for the special functions, Monte-Carlo sampling for the
Bussgang layer, bisection for the max-min solver, and synthetic-data
generators for the calibration estimators.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np
import pytest
import scipy.special

import mimo_recal as mr
from mimo_recal import _kernels
from mimo_recal.calibration import (
    CalibrationError,
    PilotPlan,
    TrainingSet,
    psi_vector,
)
from mimo_recal.hardware import SystemHardware, bussgang_decompose, sspa_apply


def soft_limiter(x, a_sat):
    """The envelope soft limiter (unit-gain SSPA with smoothness 1)."""
    return x / np.sqrt(1.0 + (np.abs(x) / a_sat) ** 2)


def mc_bussgang(a_sat, sigma, n, seed, chunks=10):
    """Regression/variance oracle: complex Gaussian samples through the soft
    limiter, g = <x* f>/<|x|^2> and lambda = Var{f - g x}."""
    rng = np.random.default_rng(seed)
    pieces = []
    g_num = 0.0
    g_den = 0.0
    for _ in range(chunks):
        x = (rng.standard_normal(n // chunks) + 1j * rng.standard_normal(n // chunks))
        x *= sigma / np.sqrt(2.0)
        f = soft_limiter(x, a_sat)
        g_num += float(np.real(np.vdot(x, f)))
        g_den += float(np.real(np.vdot(x, x)))
        pieces.append((x, f))
    g = g_num / g_den
    var = 0.0
    count = 0
    for x, f in pieces:
        var += float(np.sum(np.abs(f - g * x) ** 2))
        count += len(x)
    return g, var / count


def mu_scipy(x):
    """Bussgang gain mu(x) = (x/2) [2x - sqrt(pi) erfcx(x) (2x^2 - 1)] from
    ``scipy.special.erfcx``, with the asymptotic series past x = 50."""
    x = np.asarray(x, dtype=np.float64)
    small = np.minimum(x, 50.0)
    direct = 0.5 * small * (2.0 * small - math.sqrt(math.pi) * scipy.special.erfcx(small)
                            * (2.0 * small**2 - 1.0))
    u = (1.0 / np.maximum(x, 50.0)) ** 2
    return np.where(x > 50.0, 1.0 + u * (-1.0 + u * (2.25 + u * (-7.5 + u * 32.8125))), direct)


def slp_bisection_oracle(model, sigma_x, rho_t, c_max, outer=80, inner=100):
    """Independent max-min solution for a ``TrueMismatch`` model: bisection on
    the common gain g0, with a per-antenna monotone root find for
    phi_m^{-1}(g0).  phi_m(c) = c |t_m / r_m| mu(A_m / (c sigma_m)) is
    evaluated by ``mu_scipy``, not by the library."""
    c_max = np.asarray(c_max, dtype=np.float64)
    sigma_x = np.asarray(sigma_x, dtype=np.float64)
    ratio = np.abs(model.hw.t / model.hw.bs_rx)
    a_sat = model.hw.a_sat

    def phi_at(c):
        return c * ratio * mu_scipy(a_sat / np.maximum(c * sigma_x, 1e-300))

    hi_g = float(np.min(phi_at(c_max)))
    lo_g = 0.0
    for _ in range(outer):
        mid = 0.5 * (lo_g + hi_g)
        lo = np.zeros_like(c_max)
        hi = c_max.copy()
        for _ in range(inner):
            c = 0.5 * (lo + hi)
            below = phi_at(c) < mid
            lo = np.where(below, c, lo)
            hi = np.where(below, hi, c)
        if float(np.sum((hi * sigma_x) ** 2)) > rho_t:
            hi_g = mid
        else:
            lo_g = mid
    return lo_g


def synth_poly_training(hw, plan, omega, tau, order, rng):
    """Noise-free training set generated from known polynomial mismatch
    functions (g_m = r_m * mu_m), in the estimator's normalised-power basis."""
    m, n_levels, q = hw.m, plan.n_levels, plan.n_symbols
    x = np.empty((m, n_levels, q), dtype=np.complex128)
    y = np.zeros((m, m, n_levels, q), dtype=np.complex128)
    for tx in range(m):
        for n in range(n_levels):
            amp = plan.amplitude(tx, n)
            x[tx, n] = amp * np.exp(2j * np.pi * rng.uniform(size=q))
            mu = psi_vector(order, float(plan.levels[n])) @ tau[tx]
            out = hw.bs_rx[tx] * mu * x[tx, n]
            for rx in range(m):
                if rx != tx:
                    y[tx, rx, n] = hw.a0 * hw.bs_rx[rx] * omega[tx, rx] * out
    return TrainingSet(x=x, y=y)


def gauge_fit_error(poly, true_model, plan, n_grid=50):
    """Max relative deviation of the fitted mismatch functions from the true
    ones over [0, sigma_max], after removing the single unobservable global
    complex scale (fitted by least squares over the grid)."""
    grid = np.linspace(1e-3, 1.0, n_grid)
    num = 0.0 + 0.0j
    den = 0.0
    per_antenna = []
    for m in range(poly.m):
        s = grid * plan.sigma_max[m]
        fh = poly.mu(m, s)
        ft = true_model.mu(m, s)
        per_antenna.append((s, fh, ft))
        num += np.vdot(fh, ft)
        den += float(np.vdot(fh, fh).real)
    kappa = num / den
    worst = 0.0
    for s, fh, ft in per_antenna:
        worst = max(worst, float(np.max(np.abs(fh * kappa - ft) / np.abs(ft))))
    return worst


def mean_rate_mc(hw, phi, rho_t, a0, noise_var, c, rng, n_channels=200):
    bs = mr.estimate_sindr_mc(hw, phi, rho_t, a0, noise_var, n_channels, 1,
                              "surrogate", rng, c=c)
    return float(np.mean([mr.rate_from_sindr(b.sindr) for b in bs]))


def scale_to_power(c, sigma_x, rho_t, c_max):
    c = np.asarray(c, dtype=np.complex128)
    c = c * np.sqrt(rho_t / float(np.sum(np.abs(c) ** 2 * sigma_x**2)))
    amp = np.minimum(np.abs(c), c_max)
    return amp * np.exp(1j * np.angle(c))


# ---------------------------------------------------------------------------
# record-based reference for the OTA training tensors
#
# The loop implementations below hold one TrainingRecord per (tx, rx, level)
# and build every quantity pair by pair, the direct transcription of the
# pilot exchange.  They are the oracle for the array-native TrainingSet path:
# the same seed must give the same x and y, and the consumers the same
# outputs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingRecord:
    """Pilots sent by ``tx_antenna`` at one power level and the samples
    received at ``rx_antenna``."""

    tx_antenna: int
    rx_antenna: int
    level: int
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("pilot and received arrays must have equal length")


def ref_simulate_ota_training(
    hw: SystemHardware,
    plan: PilotPlan,
    omega: np.ndarray,
    noise_var: float,
    mode: Literal["physical", "surrogate"],
    rng: np.random.Generator,
) -> list[TrainingRecord]:
    """Simulate the pair-wise pilot exchange for all ordered antenna pairs.

    Pilots are constant-modulus with random phases, so the level-n operating
    amplitude is exactly sqrt(rho_c,n).  Each antenna transmits once per
    level; all other antennas receive the same waveform through the symmetric
    channel ``omega``.  Surrogate mode applies the Bussgang linear scale at
    the pilot amplitude; physical mode applies the SSPA sample-wise.  Neither
    injects sampled distortion: a constant-modulus pilot drives the
    (memoryless) amplifier at a single deterministic operating point, so the
    Gaussian-input distortion term has no physical counterpart here and would
    only act as errors-in-variables noise in the ratio equations.
    """
    m = hw.m
    if omega.shape != (m, m):
        raise ValueError("omega must be M x M")
    if not np.allclose(omega, omega.T):
        raise ValueError("omega must be symmetric (propagation reciprocity)")
    if np.any(np.abs(np.diag(omega)) > 0):
        raise ValueError("omega must have zero diagonal")
    if mode not in ("physical", "surrogate"):
        raise ValueError(f"unknown mode {mode!r}")

    q = plan.n_symbols
    a0 = hw.a0
    records: list[TrainingRecord] = []
    for tx in range(m):
        hpa = hw.bs_hpas[tx]
        for n in range(plan.n_levels):
            amp = plan.amplitude(tx, n)
            x = amp * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=q))
            if mode == "physical":
                out = sspa_apply(hpa, x) / math.sqrt(a0)
            else:
                out = bussgang_decompose(hpa, amp).g * x
            for rx in range(m):
                if rx == tx:
                    continue
                y = a0 * hw.bs_rx[rx] * omega[tx, rx] * out
                if noise_var > 0:
                    y = y + math.sqrt(noise_var / 2.0) * (
                        rng.standard_normal(q) + 1j * rng.standard_normal(q)
                    )
                records.append(TrainingRecord(tx_antenna=tx, rx_antenna=rx, level=n, x=x, y=y))
    return records


def _records_by_key(records: Iterable[TrainingRecord]) -> dict[tuple[int, int, int], TrainingRecord]:
    table = {}
    for rec in records:
        table[(rec.tx_antenna, rec.rx_antenna, rec.level)] = rec
    return table


def _pair_row_blocks(table, plan, order, m, i, n):
    """Row coefficients for the unordered pair (m, i) at level n.

    The reciprocity identity mu_m * (x_m . y_{i->m}) = mu_i * (x_i . y_{m->i})
    holds per symbol, so each symbol q yields one row with +ybar^{(m)} psi_n
    on antenna m's block and -ybar^{(i)} psi_n on antenna i's block.
    """
    rec_to_m = table.get((i, m, n))  # transmitted by i, received at m
    rec_to_i = table.get((m, i, n))  # transmitted by m, received at i
    if rec_to_m is None or rec_to_i is None:
        raise CalibrationError(f"missing training records for pair ({m},{i}) at level {n}")
    # the pilot of antenna m lives in the record where m transmits (rec_to_i.x)
    ybar_m = rec_to_m.y * rec_to_i.x
    ybar_i = rec_to_i.y * rec_to_m.x
    psi_n = psi_vector(order, float(plan.levels[n]))  # shared normalised power
    return ybar_m[:, None] * psi_n[None, :], ybar_i[:, None] * psi_n[None, :]


def ref_assemble_psi_matrix(records: Iterable[TrainingRecord], plan: PilotPlan, order: int) -> np.ndarray:
    """Stack the homogeneous equations Psi tau = 0 for all unordered pairs.

    Rows: M(M-1)/2 * N * Q; columns: M * (order+1), block-sparse so that the
    pair (m, i) touches only the blocks of antennas m and i with opposite
    signs.
    """
    table = _records_by_key(records)
    m_count = max(max(t, r) for t, r, _ in table.keys()) + 1
    p = order + 1
    q = plan.n_symbols
    n_rows = m_count * (m_count - 1) // 2 * plan.n_levels * q
    psi = np.zeros((n_rows, m_count * p), dtype=np.complex128)
    row = 0
    for m in range(m_count):
        for i in range(m + 1, m_count):
            for n in range(plan.n_levels):
                block_m, block_i = _pair_row_blocks(table, plan, order, m, i, n)
                psi[row:row + q, m * p:(m + 1) * p] = block_m
                psi[row:row + q, i * p:(i + 1) * p] = -block_i
                row += q
    return psi



def ref_measured_level_shapes(records: Iterable[TrainingRecord], plan: PilotPlan) -> np.ndarray:
    """Per-antenna transmit-gain profiles across the power levels.

    For a fixed pair the received signal scales across levels exactly like
    the transmitter's gain g_m, so y/x averaged per level measures g_m's
    level profile up to one per-pair constant.  Combining the receivers by
    least squares returns, for every antenna, the complex profile normalised
    to 1 at the top level.  (This is the observable that the pair-ratio
    equations of the polynomial LS cancel out.)
    """
    table = _records_by_key(records)
    m_count = max(max(t, r) for t, r, _ in table.keys()) + 1
    n_levels = plan.n_levels
    prof = np.zeros((m_count, m_count, n_levels), dtype=np.complex128)
    for (tx, rx, n), rec in table.items():
        prof[tx, rx, n] = np.mean(rec.y / rec.x)
    top = n_levels - 1
    shapes = np.zeros((m_count, n_levels), dtype=np.complex128)
    for m in range(m_count):
        others = [i for i in range(m_count) if i != m]
        pm = prof[m, others, :]
        denom = float(np.sum(np.abs(pm[:, top]) ** 2))
        if denom == 0:
            raise CalibrationError(f"no usable level profile for antenna {m}")
        shapes[m] = (np.conj(pm[:, top]) @ pm) / denom
    return shapes



def ref_linear_calibration(records: Iterable[TrainingRecord], c0: complex) -> np.ndarray:
    """Single-power-level reciprocity calibration (Rogalin-style LS).

    ``records`` must contain both directions for every antenna pair at one
    common power level.  Returns c_m = c0 / f_m with f estimated from the
    cross-correlation matrix Ybar.
    """
    if c0 == 0:
        raise ValueError("c0 must be non-zero")
    recs = list(records)
    levels = {r.level for r in recs}
    if len(levels) != 1:
        raise ValueError("linear calibration expects records at a single power level")
    level = levels.pop()
    table = {(r.tx_antenna, r.rx_antenna): r for r in recs}
    m_count = max(max(t, r) for t, r in table.keys()) + 1
    for m in range(m_count):
        for i in range(m_count):
            if m != i and (m, i) not in table:
                raise CalibrationError(f"missing record for pair ({m},{i}) at level {level}")

    ybar = np.zeros((m_count, m_count), dtype=np.complex128)
    for m in range(m_count):
        x_m = table[(m, 0 if m else 1)].x  # pilot of antenna m (same at all receivers)
        diag = 0.0
        for j in range(m_count):
            if j == m:
                continue
            diag += abs(np.sum(x_m * table[(j, m)].y)) ** 2
        ybar[m, m] = diag
        for i in range(m_count):
            if i == m:
                continue
            x_i = table[(i, 0 if i else 1)].x
            ybar[m, i] = -np.conj(np.sum(x_m * table[(i, m)].y)) * np.sum(x_i * table[(m, i)].y)

    y1 = ybar[:, 0]
    y2 = ybar[:, 1:]
    b = y2.T @ np.conj(y2)
    v = y1 @ np.conj(y2)
    try:
        f_tail = -np.linalg.solve(b.T, v)
    except np.linalg.LinAlgError as exc:
        raise CalibrationError("singular Ybar_2 system in linear calibration") from exc
    f = np.concatenate([[1.0 + 0j], f_tail])
    return c0 / f


# ---------------------------------------------------------------------------
# Reference: the effective-channel kernel in its lhs-based form, where the
# batched ZF solve returns lhs W for lhs = H G and forms H_UL and its conjugate
# ---------------------------------------------------------------------------


def ref_zf_apply(h_ul: np.ndarray, beta: float, lhs: np.ndarray | None = None,
                 first: int = 0, total: int | None = None) -> np.ndarray:
    """lhs W for the zero-forcing precoder W = H_UL^* (H_UL^T H_UL^*)^{-1} / sqrt(beta).

    h_ul is (B, M, K) and lhs (B, P, M); the result is (B, P, K) and only
    K x K systems are solved, so W itself is never formed.  Without ``lhs``
    the result is W, (B, M, K).  A rank-deficient draw (``equilibrated_gram``)
    raises LinAlgError naming it draw ``first + i`` of ``total`` (or of B).
    """
    h_conj = np.conj(h_ul)
    # (H_UL^T H_UL^*)^T = H_UL^H H_UL; solving against the transpose gives
    # A Gram^{-1} as (Gram^T)^{-1} A^T with A = lhs H_UL^*, and with the
    # equilibrated E = S Gram^T S that is S E^{-1} S A^T
    gram, s, cond = _kernels.equilibrated_gram(np.swapaxes(h_conj, -1, -2) @ h_ul)
    bad = np.flatnonzero(~(cond <= _kernels.ZF_COND_MAX))
    if bad.size:
        i = int(bad[0])
        raise np.linalg.LinAlgError(
            f"rank-deficient uplink Gram matrix in draw {first + i} of "
            f"{cond.size if total is None else total} (cond={cond[i]:.3g})")
    a = h_conj if lhs is None else lhs @ h_conj
    x = np.linalg.solve(gram, s[..., :, None] * np.swapaxes(a, -1, -2))
    return np.swapaxes((s / math.sqrt(beta))[..., :, None] * x, -1, -2)


def ref_effective_channels(
    h: np.ndarray,
    r: np.ndarray,
    b: np.ndarray,
    u: np.ndarray,
    g: np.ndarray,
    beta: float,
) -> np.ndarray:
    """Effective downlink channels U H G W for a batch of channel draws.

    h is (B, K, M); r, g are (M,); b, u are (K,).  W is the zero-forcing
    precoder built from H_UL = R H^T B with normalisation 1/sqrt(beta).
    Returns (B, K, K).
    """
    return u[:, None] * ref_zf_apply(_kernels.uplink(h, r, b), beta, h * g)


@pytest.fixture(scope="session")
def default_mismatch():
    return mr.HardwareMismatch.uniform(0.05, np.pi / 6)
