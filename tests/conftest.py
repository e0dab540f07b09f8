"""Shared oracles and helpers for the test suite.

Every oracle here is independent of the implementation path it checks:
quadrature and series for the special functions, Monte-Carlo sampling for the
Bussgang layer, an explicit inverse per draw for the empirical ZF
normalisation, bisection for the max-min solver, synthetic-data generators
for the calibration estimators, and the sample-level OTA exchange.
``same_law`` compares two samplers that draw from one law by different
random streams.
"""

import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Literal

import numpy as np
import pytest
import scipy.special

# the checkout's src/ only as a fallback, so that the package an exported
# PYTHONPATH names is the one under test
if importlib.util.find_spec("mimo_recal") is None:
    sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import mimo_recal as mr  # noqa: E402
from mimo_recal import _kernels
from mimo_recal.calibration import (
    CalibrationError,
    PilotPlan,
    PolyMismatch,
    TrainingSet,
    psi_vector,
)
from mimo_recal.hardware import SystemHardware, sspa_apply


def package_env() -> dict:
    """The environment with the package's source directory first on
    PYTHONPATH, for a test that starts a fresh interpreter."""
    src = str(Path(mr.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def one_channel(rng, m, phi):
    """One K x M channel draw at path-loss amplitudes phi."""
    return mr.draw_channels(rng, phi, np.empty((len(phi), m), dtype=np.complex128))


def one_precoder(h, hw, beta):
    """The ZF precoder W (M, K) of one K x M channel h under hardware hw,
    from the batched core."""
    return _kernels.zf_apply(_kernels.uplink(h, hw.bs_rx, hw.ue_tx_gain)[None], beta)[0]


def soft_limiter(x, a_sat):
    """The envelope soft limiter (the unit-gain SSPA)."""
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


def slp_bisection_oracle(instances, outer=80, inner=100):
    """Independent max-min solutions for ``TrueMismatch`` models, one g0 per
    (model, sigma_x, rho_t, c_max) of ``instances``: bisection on the common
    gain g0, with a per-antenna monotone root find for phi_m^{-1}(g0).
    phi_m(c) = c |t_m / r_m| mu(A_m / (c sigma_m)) is evaluated by
    ``mu_scipy``, not by the library.  The instances are bisected side by
    side, with their antennas in one array, so that each step makes one
    ``mu_scipy`` call for all of them; each instance still takes the steps,
    and the power sums, of a bisection of its own."""
    parts = []
    for model, sigma_x, _, c_max in instances:
        ratio = np.abs(model.hw.t / model.hw.bs_rx)
        parts.append((ratio, model.hw.a_sat, *(
            np.broadcast_to(np.asarray(v, dtype=np.float64), ratio.shape)
            for v in (sigma_x, c_max))))
    ratio, a_sat, sigma_x, c_max = (np.concatenate(p) for p in zip(*parts))
    sizes = [len(p[0]) for p in parts]
    spans = [slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    rho_t = np.array([inst[2] for inst in instances], dtype=np.float64)

    def phi_at(c, idx):
        return c * ratio[idx] * mu_scipy(a_sat[idx] / np.maximum(c * sigma_x[idx], 1e-300))

    at_cap = phi_at(c_max, slice(None))
    hi_g = np.array([float(np.min(at_cap[span])) for span in spans])
    lo_g = np.zeros_like(hi_g)
    # instances whose g0 bracket still moves
    active = np.ones(len(parts), dtype=bool)
    for _ in range(outer):
        mid = 0.5 * (lo_g + hi_g)
        target = mid[owner]
        lo = np.zeros_like(c_max)
        hi = c_max.copy()
        # antennas whose bracket still moves; one that stops has reached its
        # own fixed point, and every later halving would repeat that one
        moving = np.flatnonzero(active[owner])
        for _ in range(inner):
            c = 0.5 * (lo[moving] + hi[moving])
            below = phi_at(c, moving) < target[moving]
            new_lo = np.where(below, c, lo[moving])
            new_hi = np.where(below, hi[moving], c)
            still = (new_lo != lo[moving]) | (new_hi != hi[moving])
            lo[moving], hi[moving] = new_lo, new_hi
            moving = moving[still]
            if moving.size == 0:
                break
        over = np.array([float(np.sum((hi[span] * sigma_x[span]) ** 2)) for span in spans]) > rho_t
        new_lo_g, new_hi_g = np.where(over, lo_g, mid), np.where(over, mid, hi_g)
        # mid rounds to an end: every later halving would repeat this one
        active &= (new_lo_g != lo_g) | (new_hi_g != hi_g)
        lo_g, hi_g = np.where(active, new_lo_g, lo_g), np.where(active, new_hi_g, hi_g)
        if not active.any():
            break
    return lo_g


def synth_poly_training(hw, plan, omega, tau, order, rng):
    """Noise-free pilots x (M, N, Q) and received samples y (M, M, N, Q)
    generated from known polynomial mismatch functions (g_m = r_m * mu_m), in
    the estimator's normalised-power basis, through the transmit amplitude
    gain sqrt(a0)."""
    m, n_levels, q = hw.m, plan.n_levels, plan.n_symbols
    x = np.empty((m, n_levels, q), dtype=np.complex128)
    y = np.zeros((m, m, n_levels, q), dtype=np.complex128)
    for tx in range(m):
        for n in range(n_levels):
            x[tx, n] = plan.amplitudes[n] * np.exp(2j * np.pi * rng.uniform(size=q))
            mu = psi_vector(order, float(plan.levels[n])) @ tau[tx]
            out = math.sqrt(hw.a0) * hw.bs_rx[tx] * mu * x[tx, n]
            for rx in range(m):
                if rx != tx:
                    y[tx, rx, n] = hw.bs_rx[rx] * omega[tx, rx] * out
    return x, y


def training_from_samples(plan, x, y):
    """The TrainingSet of pilots x (M, N, Q) and received samples
    y (M, M, N, Q) sent under ``plan``."""
    return TrainingSet(plan=plan, x=x, ratio=np.mean(y / x[:, None], axis=-1),
                       xcorr=np.sum(x[None] * y, axis=-1))


def gauge_fit_error(poly, true_model, plan, n_grid=50):
    """Max relative deviation of the fitted mismatch functions from the true
    ones over [0, sigma_max], after removing the single unobservable global
    complex scale (fitted by least squares over the grid)."""
    s = np.linspace(1e-3, 1.0, n_grid)[:, None] * plan.sigma_max  # (n_grid, 1)
    fh = poly.mu_all(s)
    ft = true_model.mu_all(s)
    kappa = np.vdot(fh, ft) / float(np.vdot(fh, fh).real)
    return float(np.max(np.abs(fh * kappa - ft) / np.abs(ft)))


def mean_rate_mc(hw, phi, rho_t, a0, noise_var, c, rng, n_channels=200):
    bs = mr.estimate_sindr_mc(hw, phi, rho_t, a0, noise_var, n_channels, 1,
                              "surrogate", rng, c=c)
    return float(np.mean([mr.rate_from_sindr(b.sindr) for b in bs]))


# ---------------------------------------------------------------------------
# record-based reference for the OTA training tensors
#
# The loop implementations below hold one TrainingRecord per (tx, rx, level)
# and build every quantity pair by pair, the direct transcription of the
# pilot exchange, sample by sample.  They are the oracle for the
# array-native TrainingSet path: without noise the same seed must give the
# same pilots and, to rounding, the same per-pair statistics and consumer
# outputs; with noise the library draws the statistics from their law, which
# ``same_law`` checks at fixed pilots.
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
    only act as errors-in-variables noise in the ratio equations.  Both modes
    carry the data's amplitude gain sqrt(a0), and antenna rx receives
    r_rx omega times the amplifier output.
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
    # every pilot phase first, transmitter by transmitter and level by level
    x, out = {}, {}
    for tx in range(m):
        gain, a_sat = math.sqrt(hw.a0) * hw.t[tx], hw.a_sat[tx]
        for n in range(plan.n_levels):
            amp = plan.amplitudes[n]
            x[tx, n] = xn = amp * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=q))
            if mode == "physical":
                # the SSPA sqrt(a0) t x / sqrt(1 + |x|^2/A^2)
                env = 1.0 / np.sqrt((xn.real * xn.real + xn.imag * xn.imag)
                                    * (1.0 / np.square(a_sat)) + 1.0)
                out[tx, n] = xn * gain * env
            else:
                out[tx, n] = gain * mr.bussgang_mu(a_sat / amp) * xn
    # then the receive noise, pair by pair: Q real parts, then Q imaginary parts
    records: list[TrainingRecord] = []
    for tx in range(m):
        for rx in range(m):
            if rx == tx:
                continue
            for n in range(plan.n_levels):
                y = hw.bs_rx[rx] * omega[tx, rx] * out[tx, n]
                if noise_var > 0:
                    y = y + math.sqrt(noise_var / 2.0) * (
                        rng.standard_normal(q) + 1j * rng.standard_normal(q)
                    )
                records.append(TrainingRecord(tx_antenna=tx, rx_antenna=rx, level=n,
                                              x=x[tx, n], y=y))
    return records


def _records_by_key(records: Iterable[TrainingRecord]) -> dict[tuple[int, int, int], TrainingRecord]:
    table = {}
    for rec in records:
        table[(rec.tx_antenna, rec.rx_antenna, rec.level)] = rec
    return table


def _antenna_count(table) -> int:
    return max(max(t, r) for t, r, _ in table) + 1


def ref_pilot_samples(records: Iterable[TrainingRecord],
                      plan: PilotPlan) -> tuple[np.ndarray, np.ndarray]:
    """The pilots x (M, N, Q) and received samples y (M, M, N, Q) of
    ``records``; y is 0 where an antenna would receive itself."""
    table = _records_by_key(records)
    m = _antenna_count(table)
    x = np.empty((m, plan.n_levels, plan.n_symbols), dtype=np.complex128)
    y = np.zeros((m, m, plan.n_levels, plan.n_symbols), dtype=np.complex128)
    for (tx, rx, n), rec in table.items():
        x[tx, n] = rec.x
        y[tx, rx, n] = rec.y
    return x, y


def ref_pair_statistics(records: Iterable[TrainingRecord],
                        plan: PilotPlan) -> tuple[np.ndarray, np.ndarray]:
    """ratio[t, r, n] = mean(y_{t->r} / x_t) and xcorr[t, r, n] =
    sum(x_r y_{t->r}), each (M, M, N), pair by pair; 0 on the diagonal."""
    table = _records_by_key(records)
    m = _antenna_count(table)
    pilots = {(tx, n): rec.x for (tx, _, n), rec in table.items()}
    ratio = np.zeros((m, m, plan.n_levels), dtype=np.complex128)
    xcorr = np.zeros_like(ratio)
    for (tx, rx, n), rec in table.items():
        ratio[tx, rx, n] = np.mean(rec.y / rec.x)
        xcorr[tx, rx, n] = np.sum(pilots[rx, n] * rec.y)
    return ratio, xcorr


# ---------------------------------------------------------------------------
# same-law kit: two samplers that draw from one law by different streams
# ---------------------------------------------------------------------------

# the seed list and z bound of the OTA same-law tests.  On the 208
# statistics of a 3-antenna, 2-level round of 5 pilots, two samplers of one
# law score a largest |z| of 2.8-3.3 at 1,000 seeds, and 1.1 times the noise
# variance on one side scores 7.5-7.8 (the link-averaged variances)
LAW_SEEDS = range(1000)
LAW_Z = 4.5


def same_law(draw_a, draw_b, stats, seeds, z):
    """Fail unless two samplers agree in the mean of every statistic.

    ``draw_a`` and ``draw_b`` each take a generator and return one draw;
    ``stats`` maps a draw to a 1-D array of real statistics.  For every
    seed of the fixed list ``seeds`` draw_a runs on ``default_rng([0,
    seed])`` and draw_b on ``default_rng([1, seed])``, so the two streams
    are disjoint and the verdict is deterministic.  Each statistic's means
    are compared by the two-sample z-score (mean_a - mean_b) / sqrt(var_a/n
    + var_b/n), and an AssertionError names the largest |z| above ``z``.  A
    statistic that is constant on both sides scores 0 if the two agree.
    Returns the largest |z|.
    """
    seeds = list(seeds)
    a = np.array([stats(draw_a(np.random.default_rng([0, s]))) for s in seeds])
    b = np.array([stats(draw_b(np.random.default_rng([1, s]))) for s in seeds])
    diff = np.abs(a.mean(axis=0) - b.mean(axis=0))
    se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / len(seeds))
    score = np.divide(diff, se, out=np.where(diff > 0, np.inf, 0.0), where=se > 0)
    worst = int(np.argmax(score))
    assert score[worst] <= z, (f"statistic {worst} of {score.size}: |z| = "
                               f"{score[worst]:.2f} > {z} over {len(seeds)} seeds")
    return float(score[worst])


class FixedPilots:
    """A generator for the OTA simulators whose ``uniform`` draws repeat
    those of ``default_rng(pilot_seed)`` and whose ``standard_normal`` draws
    come from ``rng``: both simulators draw the pilot phases with
    ``uniform`` and the noise with ``standard_normal``, so every round sent
    with a fresh one has the same pilots and fresh noise."""

    def __init__(self, pilot_seed: int, rng: np.random.Generator):
        self.uniform = np.random.default_rng(pilot_seed).uniform
        self.standard_normal = rng.standard_normal


def ota_link_moments(plan: PilotPlan, noise_var: float, quiet) -> Callable[[tuple], np.ndarray]:
    """``stats`` for ``same_law`` on OTA draws (ratio, xcorr) at the pilots of
    the noiseless pair ``quiet`` = (ratio0, xcorr0).

    On every link off the diagonal, a = ratio - ratio0 and b = xcorr - xcorr0
    are scaled to unit variance by sigma^2/(Q amp_n^2) and sigma^2 Q amp_n^2.
    The statistics are the real and imaginary parts of a, b, |a|^2, |b|^2,
    b a* (the covariance), a b (the pseudo-covariance), a^2 and b^2, per
    link and averaged over the links.
    """
    energy = plan.n_symbols * plan.amplitudes ** 2
    sd_a, sd_b = np.sqrt(noise_var / energy), np.sqrt(noise_var * energy)
    off = ~np.eye(len(quiet[0]), dtype=bool)

    def stats(pair):
        a = (pair[0] - quiet[0])[off] / sd_a
        b = (pair[1] - quiet[1])[off] / sd_b
        moments = np.stack([a, b, np.abs(a) ** 2, np.abs(b) ** 2, b * np.conj(a),
                            a * b, a * a, b * b]).reshape(8, -1)
        both = np.concatenate([moments, moments.mean(axis=1, keepdims=True)], axis=1)
        return np.concatenate([both.real.ravel(), both.imag.ravel()])

    return stats


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
    m_count = _antenna_count(table)
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



def ref_linear_calibration(records: Iterable[TrainingRecord]) -> np.ndarray:
    """Single-power-level reciprocity calibration (Rogalin-style LS).

    ``records`` must contain both directions for every antenna pair at one
    common power level.  Returns c_m = 1 / f_m with f estimated from the
    cross-correlation matrix Ybar, normalised to f_0 = 1.
    """
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
    return 1.0 / f


# ---------------------------------------------------------------------------
# Reference: the paper's pair-ratio LS from the dense stacked system Psi.
# The library fits with estimate_poly_coeffs_anchored instead: on the
# training the pipeline produces, the pair-ratio system is rank-deficient
# without noise and far off with it.  It recovers exactly polynomial
# synthetic data, which criterion 6(a) checks.
# ---------------------------------------------------------------------------


def assemble_psi_matrix(plan: PilotPlan, x: np.ndarray, y: np.ndarray,
                        order: int) -> np.ndarray:
    """Stack the homogeneous equations Psi tau = 0 for all unordered pairs
    from the pilots x (M, N, Q) and received samples y (M, M, N, Q) of a
    round sent under ``plan``.

    The reciprocity identity mu_m (x_m . y_{i->m}) = mu_i (x_i . y_{m->i})
    holds per symbol.  Rows: M(M-1)/2 * N * Q, ordered by pair (m < i), level
    and symbol; columns: M * (order+1), block-sparse so that the pair (m, i)
    touches only the blocks of antennas m and i, with +ybar^{(m)} psi_n and
    -ybar^{(i)} psi_n.
    """
    m, n_levels, q = x.shape
    z = y * x[None]  # z[t, r] = y_{t->r} * x_r
    lo, hi = np.triu_indices(m, 1)
    pair = np.arange(len(lo))
    psi_n = psi_vector(order, plan.levels)  # (N, order+1), shared normalised power
    psi = np.zeros((len(lo), n_levels, q, m, order + 1), dtype=np.complex128)
    psi[pair, :, :, lo] = z[hi, lo][..., None] * psi_n[:, None, :]
    psi[pair, :, :, hi] = -(z[lo, hi][..., None] * psi_n[:, None, :])
    return psi.reshape(len(lo) * n_levels * q, m * (order + 1))


def estimate_poly_coeffs(psi_matrix: np.ndarray, order: int,
                         sigma_ref: float = 1.0) -> PolyMismatch:
    """LS estimate of the polynomial coefficients with tau_{1,0} pinned to 1.

    Rows of the stacked system are equilibrated to unit norm before the
    normal equations are formed: the row magnitudes follow the received
    signal products, which span orders of magnitude across pairs and levels.
    A (near-)singular pinned system raises ``CalibrationError``.
    """
    p = order + 1
    n_cols = psi_matrix.shape[1]
    if n_cols % p:
        raise ValueError("psi matrix width must be a multiple of order+1")
    norms = np.linalg.norm(psi_matrix, axis=1)
    norms[norms == 0] = 1.0
    scaled = psi_matrix / norms[:, None]
    gram = np.conj(scaled).T @ scaled
    g22 = gram[1:, 1:]
    scale = np.sqrt(np.abs(np.diag(g22)))
    if np.any(scale == 0):
        dead = np.flatnonzero(scale == 0) + 1
        raise CalibrationError(f"rank-deficient system, empty columns {dead.tolist()}")
    gs = g22 / scale[:, None] / scale[None, :]
    eigvals = np.linalg.eigvalsh(gs)
    if eigvals[0] < 1e-10 * eigvals[-1]:
        raise CalibrationError("rank-deficient polynomial system "
                               "(need N >= order+2 power levels)")
    tau_c = -np.linalg.solve(gs, gram[1:, 0] / scale) / scale
    tau = np.concatenate([[1.0 + 0j], tau_c])
    m = n_cols // p
    return PolyMismatch(tau=tau.reshape(m, p), sigma_ref=sigma_ref)


# ---------------------------------------------------------------------------
# Oracle: the empirical ZF normalisation beta, one explicit inverse per draw
# ---------------------------------------------------------------------------


def beta_zf_empirical(h_ul_samples: Iterable[np.ndarray]) -> float:
    """Monte-Carlo mean of tr[(H_UL^T H_UL^*)^{-1}]; rank-deficient draws
    (equilibrated cond above ``ZF_COND_MAX``) are skipped with a warning."""
    traces = []
    skipped = 0
    for h_ul in h_ul_samples:
        gram, s = _kernels._equilibrate(h_ul.T @ np.conj(h_ul))
        if not _kernels._cond(gram) <= _kernels.ZF_COND_MAX:
            skipped += 1
            continue
        # tr(Gram^{-1}) = tr(S E^{-1} S) for the equilibrated E = S Gram S
        traces.append(np.sum(s**2 * np.real(np.diagonal(np.linalg.inv(gram)))))
    if skipped:
        warnings.warn(f"beta_zf_empirical skipped {skipped} rank-deficient draws", RuntimeWarning)
    if not traces:
        raise ValueError("no usable H_UL samples")
    return float(np.mean(traces))


# ---------------------------------------------------------------------------
# Reference: the effective-channel kernel in its lhs-based form, where the
# batched ZF solve returns lhs W for lhs = H G and forms H_UL and its conjugate
# ---------------------------------------------------------------------------


def ref_zf_apply(h_ul: np.ndarray, beta: float, lhs: np.ndarray | None = None,
                 first: int = 0, total: int | None = None) -> np.ndarray:
    """lhs W for the zero-forcing precoder W = H_UL^* (H_UL^T H_UL^*)^{-1} / sqrt(beta).

    h_ul is (B, M, K) and lhs (B, P, M); the result is (B, P, K) and only
    K x K systems are solved, so W itself is never formed.  Without ``lhs``
    the result is W, (B, M, K).  A rank-deficient draw (equilibrated cond
    above ``ZF_COND_MAX``) raises LinAlgError naming it draw ``first + i`` of
    ``total`` (or of B).
    """
    h_conj = np.conj(h_ul)
    # (H_UL^T H_UL^*)^T = H_UL^H H_UL; solving against the transpose gives
    # A Gram^{-1} as (Gram^T)^{-1} A^T with A = lhs H_UL^*, and with the
    # equilibrated E = S Gram^T S that is S E^{-1} S A^T
    gram, s = _kernels._equilibrate(np.swapaxes(h_conj, -1, -2) @ h_ul)
    cond = _kernels._cond(gram)
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


# ---------------------------------------------------------------------------
# Reference: physical-mode Monte Carlo one draw at a time, with one ZF call
# and one SVD least-squares fit per draw and row, and two-pass moments
# ---------------------------------------------------------------------------


def ref_physical_terms(hw, phi, rho_t, a0, n_channels, n_symbols, c_rows, rng, block):
    """(ES, SI, MUI, NLD) per row and UE, shape (C, K, 4), drawing channels
    and symbols in the order of physical ``estimate_sindr_mc``: ``block``
    channel draws per generator call, real and imaginary parts interleaved."""
    m, k = hw.m, hw.k
    beta = mr.beta_zf_closed(hw, phi)
    row_scale = np.asarray(phi, dtype=np.float64)[:, None]
    h_eq, resid = [], []
    done = 0
    while done < n_channels:
        nb = min(block, n_channels - done)
        z = rng.standard_normal((nb, k, 2 * m))
        for t in range(nb):
            h = row_scale * (z[t, :, 0::2] + 1j * z[t, :, 1::2]) / math.sqrt(2.0)
            w = _kernels.zf_apply(_kernels.uplink(h, hw.bs_rx, hw.ue_tx_gain)[None], beta,
                                  first=done + t, total=n_channels)[0]
            s = math.sqrt(rho_t / 2.0) * (rng.standard_normal((n_symbols, k))
                                          + 1j * rng.standard_normal((n_symbols, k)))
            rows_eq, rows_res = [], []
            for c_vec in c_rows:
                y = sspa_apply(hw, s @ (c_vec[:, None] * w).T) @ (hw.ue_rx[:, None] * h).T
                fit = np.linalg.lstsq(s, y, rcond=None)[0]
                rows_eq.append(fit.T / math.sqrt(hw.a0))
                rows_res.append(np.mean(np.abs(y - s @ fit) ** 2, axis=0))
            h_eq.append(rows_eq)
            resid.append(rows_res)
        done += nb
    h_eq = np.array(h_eq)  # (draws, C, K, K)
    mean_h = h_eq.mean(axis=0)
    var_h = np.mean(np.abs(h_eq - mean_h) ** 2, axis=0)
    diag = np.arange(k)
    es = a0 * rho_t * np.abs(mean_h[:, diag, diag]) ** 2
    si = a0 * rho_t * var_h[:, diag, diag]
    second = var_h + np.abs(mean_h) ** 2
    mui = a0 * rho_t * (second.sum(axis=-1) - second[:, diag, diag])
    return np.stack([es, si, mui, np.mean(resid, axis=0)], axis=-1)


@pytest.fixture(autouse=True)
def serial_runs(monkeypatch):
    """One worker for every in-process run that does not set
    MIMO_RECAL_THREADS itself: a pool of spawned workers costs about 0.1 s
    to start, and only the pool tests check it."""
    monkeypatch.setenv("MIMO_RECAL_THREADS", "1")


@pytest.fixture(scope="session")
def default_mismatch():
    return mr.HardwareMismatch.uniform(0.05, np.pi / 6)
