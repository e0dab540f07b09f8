"""Over-the-air nonlinear reciprocity calibration.

Pipeline: multi-power constant-modulus pilots between antenna pairs, LS fit of
per-antenna polynomial mismatch functions, a sequential-linear-programming
max-min solver for the coefficient amplitudes, and a closed-form phase
solution.  The conventional single-power (linear) calibration is included for
comparison.

The polynomial basis is evaluated in the transmit *power* (amplitude squared)
normalised per antenna by sigma_max,m^2, so every antenna shares the level
grid (n/N)^2 on (0, 1].  The model class is unchanged (degree-Pi polynomials
in the power); the normalisation keeps the least-squares system conditioned.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .hardware import SystemHardware, sspa_apply
from .numerics import bussgang_mu

__all__ = [
    "CalibrationError",
    "PilotPlan",
    "TrainingSet",
    "PolyMismatch",
    "TrueMismatch",
    "CalibrationResult",
    "orth_poly_psi",
    "psi_vector",
    "draw_inter_antenna_channel",
    "simulate_ota_training",
    "assemble_psi_matrix",
    "estimate_poly_coeffs",
    "estimate_poly_coeffs_from_records",
    "linear_calibration",
    "slp_solve",
    "calibration_phases",
    "calibrate",
    "training_overhead",
]

MAX_PSI_ORDER = 20


class CalibrationError(RuntimeError):
    """Raised when a calibration stage cannot produce a valid result."""


# ---------------------------------------------------------------------------
# polynomial basis
# ---------------------------------------------------------------------------


@functools.cache
def _psi_coeff_table(order: int) -> np.ndarray:
    """Coefficients c[w, l] of psi_w(z) = sum_l c[w, l] z^l for w = 0..order.

    Exact integer arithmetic; every coefficient up to order 20 is exactly
    representable in float64.  Built once per order and returned read-only,
    since every caller shares the cached array.
    """
    if not 0 <= order <= MAX_PSI_ORDER:
        raise ValueError(f"polynomial order must lie in [0, {MAX_PSI_ORDER}]")
    table = np.zeros((order + 1, order + 1))
    for w in range(order + 1):
        for l in range(w + 1):
            sign = -1 if (l + w) % 2 else 1
            num = math.factorial(w + l + 2)
            den = math.factorial(l) * math.factorial(l + 1) * math.factorial(w - l)
            table[w, l] = float(sign * num) / float(den)
    table.flags.writeable = False
    return table


def orth_poly_psi(order: int, z) -> float | np.ndarray:
    """The orthogonal basis polynomial psi_order evaluated at z >= 0."""
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = _psi_coeff_table(order)[order]
    z_arr = np.asarray(z, dtype=np.float64)
    powers = z_arr[..., None] ** np.arange(order + 1)
    out = powers @ coeffs
    return float(out) if np.isscalar(z) or z_arr.ndim == 0 else out


def psi_vector(order: int, z) -> np.ndarray:
    """All basis values [psi_0(z), ..., psi_order(z)]; shape (..., order+1)."""
    table = _psi_coeff_table(order)
    z_arr = np.asarray(z, dtype=np.float64)
    powers = z_arr[..., None] ** np.arange(order + 1)
    return powers @ table.T


# ---------------------------------------------------------------------------
# pilot plan and training set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PilotPlan:
    """Multi-power pilot schedule.

    ``levels`` holds the N power fractions (n/N)^2; the realized level-n power
    at antenna m is levels[n] * sigma_max[m]^2.
    """

    n_levels: int
    n_symbols: int
    sigma_max: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        if self.n_levels < 1 or self.n_symbols < 1:
            raise ValueError("need n_levels >= 1 and n_symbols >= 1")
        if len(self.levels) != self.n_levels:
            raise ValueError("levels must have n_levels entries")
        if np.any(np.diff(self.levels) <= 0):
            raise ValueError("levels must be strictly increasing")
        if np.any(np.asarray(self.sigma_max) <= 0):
            raise ValueError("sigma_max entries must be positive")

    @classmethod
    def make(cls, n_levels: int, n_symbols: int, sigma_max) -> "PilotPlan":
        sigma_max = np.atleast_1d(np.asarray(sigma_max, dtype=np.float64))
        fracs = (np.arange(1, n_levels + 1) / n_levels) ** 2
        return cls(n_levels=n_levels, n_symbols=n_symbols, sigma_max=sigma_max, levels=fracs)

    @classmethod
    def for_hardware(cls, hw: SystemHardware, n_levels: int, n_symbols: int,
                     ibo_min_db: float = 0.0) -> "PilotPlan":
        """Common per-antenna amplitude cap at ``ibo_min_db`` below the
        (geometric-mean) saturation level.

        The cap is deliberately common across antennas: the pair-ratio
        training can only identify the mismatch functions when the normalised
        curves differ between antennas, which the per-antenna saturation
        spread provides exactly when sigma_max does not track A_sat,m.
        """
        base = float(np.exp(np.mean(np.log(hw.a_sat))))
        sigma_max = np.full(hw.m, base * 10.0 ** (-ibo_min_db / 10.0))
        return cls.make(n_levels, n_symbols, sigma_max)

    def amplitude(self, antenna: int, level: int) -> float:
        return math.sqrt(self.levels[level]) * float(self.sigma_max[antenna])

    def power(self, antenna: int, level: int) -> float:
        return float(self.levels[level]) * float(self.sigma_max[antenna]) ** 2


@dataclass(frozen=True)
class TrainingSet:
    """Pilots and received samples of one OTA training round.

    ``x[m, n]`` holds the Q pilots antenna m sends at level n, shape (M, N, Q);
    ``y[tx, rx, n]`` the samples antenna rx receives from them, shape
    (M, M, N, Q).  ``y[m, m]`` is 0: an antenna does not receive itself.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 3:
            raise ValueError("x must have shape (M, N, Q)")
        m, n, q = self.x.shape
        if self.y.shape != (m, m, n, q):
            raise ValueError(f"y must have shape {(m, m, n, q)}, got {self.y.shape}")

    @property
    def m(self) -> int:
        return self.x.shape[0]

    def level(self, n: int) -> "TrainingSet":
        """The single-level set of power level ``n`` (views, no copy)."""
        return TrainingSet(x=self.x[:, n:n + 1], y=self.y[:, :, n:n + 1])


def training_overhead(m: int, plan: PilotPlan) -> int:
    """Number of transmitted pilot slots: every antenna sends Q symbols at N levels."""
    return m * plan.n_levels * plan.n_symbols


def draw_inter_antenna_channel(rng: np.random.Generator, m: int, sigma2: float = 1.0) -> np.ndarray:
    """Symmetric zero-diagonal CN(0, sigma2) inter-antenna channel matrix."""
    w = math.sqrt(sigma2 / 2.0) * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    omega = np.triu(w, 1)
    return omega + omega.T


def simulate_ota_training(
    hw: SystemHardware,
    plan: PilotPlan,
    omega: np.ndarray,
    noise_var: float,
    mode: Literal["physical", "surrogate"],
    rng: np.random.Generator,
) -> TrainingSet:
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

    Random draws run per (tx, level): Q pilot phases, then the receive noise
    of the M-1 other antennas (real parts, then imaginary parts, per rx).
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

    n_levels, q = plan.n_levels, plan.n_symbols
    amps = np.sqrt(plan.levels)[None, :] * plan.sigma_max[:, None]  # (M, N)
    x = np.empty((m, n_levels, q), dtype=np.complex128)
    # noise goes into y in draw order; the signal is added in one broadcast
    y = np.zeros((m, m, n_levels, q), dtype=np.complex128)
    scale = math.sqrt(noise_var / 2.0)
    for tx in range(m):
        others = np.arange(m) != tx
        for n in range(n_levels):
            x[tx, n] = amps[tx, n] * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=q))
            if noise_var > 0:
                re, im = rng.standard_normal((m - 1, 2, q)).transpose(1, 0, 2)
                y[tx, others, n] = scale * (re + 1j * im)
    if mode == "physical":
        out = np.moveaxis(sspa_apply(hw, np.moveaxis(x, 0, -1)), -1, 0) / math.sqrt(hw.a0)
    else:
        out = (hw.t[:, None] * bussgang_mu(hw.a_sat[:, None] / amps))[:, :, None] * x
    y += _unfused_product(hw.a0 * hw.bs_rx[None, :], omega)[:, :, None, None] * out[:, None]
    return TrainingSet(x=x, y=y)


def _unfused_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex a * b with each real product rounded on its own, as scalar
    complex arithmetic does; numpy's vector kernels may fuse a product into
    the sum, which moves the last bit against a per-pair scalar loop."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def _check_levels(training: TrainingSet, plan: PilotPlan) -> None:
    if training.x.shape[1] != plan.n_levels:
        raise ValueError(f"training set has {training.x.shape[1]} levels, "
                         f"the pilot plan {plan.n_levels}")


def _level_basis(order: int, plan: PilotPlan) -> np.ndarray:
    """psi_vector at each pilot level, shape (N, order+1).  Evaluated level by
    level: a batched matmul rounds differently from the single-level one."""
    return np.stack([psi_vector(order, level) for level in plan.levels])


def _ratio_products(training: TrainingSet) -> np.ndarray:
    """z[t, r] = y_{t->r} * x_r, the per-symbol side of antenna r in the
    reciprocity identity mu_m (x_m . y_{i->m}) = mu_i (x_i . y_{m->i})."""
    return training.y * training.x[None]


def assemble_psi_matrix(training: TrainingSet, plan: PilotPlan, order: int) -> np.ndarray:
    """Stack the homogeneous equations Psi tau = 0 for all unordered pairs.

    Rows: M(M-1)/2 * N * Q, ordered by pair (m < i), level and symbol;
    columns: M * (order+1), block-sparse so that the pair (m, i) touches only
    the blocks of antennas m and i, with +ybar^{(m)} psi_n and -ybar^{(i)} psi_n.
    """
    _check_levels(training, plan)
    m, n_levels, q = training.x.shape
    z = _ratio_products(training)
    lo, hi = np.triu_indices(m, 1)
    pair = np.arange(len(lo))
    psi_n = _level_basis(order, plan)  # shared normalised power
    psi = np.zeros((len(lo), n_levels, q, m, order + 1), dtype=np.complex128)
    psi[pair, :, :, lo] = z[hi, lo][..., None] * psi_n[:, None, :]
    psi[pair, :, :, hi] = -(z[lo, hi][..., None] * psi_n[:, None, :])
    return psi.reshape(len(lo) * n_levels * q, m * (order + 1))


@dataclass(frozen=True)
class PolyMismatch:
    """Per-antenna polynomial mismatch functions mu_m(sigma).

    mu_m(sigma) = sum_w tau[m, w] psi_w(sigma^2 / sigma_ref[m]^2); sigma_ref
    is the per-antenna amplitude that maps to normalised power 1 (the top
    pilot level).
    """

    tau: np.ndarray  # (M, order+1) complex
    order: int
    sigma_ref: np.ndarray | None = None

    def __post_init__(self):
        if self.tau.shape[1] != self.order + 1:
            raise ValueError("tau must have order+1 columns")
        if self.tau[0, 0] != 1:
            raise ValueError("normalisation requires tau[0, 0] == 1")
        if self.sigma_ref is None:
            object.__setattr__(self, "sigma_ref", np.ones(self.tau.shape[0]))
        if np.any(np.asarray(self.sigma_ref) <= 0):
            raise ValueError("sigma_ref entries must be positive")

    @property
    def m(self) -> int:
        return self.tau.shape[0]

    def mu(self, antenna: int, sigma):
        """Complex mismatch value at transmit amplitude ``sigma``."""
        z = (np.asarray(sigma, dtype=np.float64) / self.sigma_ref[antenna]) ** 2
        return psi_vector(self.order, z) @ self.tau[antenna]

    def mu_abs(self, antenna: int, sigma):
        return np.abs(self.mu(antenna, sigma))

    def mu_all(self, sigma: np.ndarray) -> np.ndarray:
        """Per-antenna values at per-antenna amplitudes; sigma has shape
        (..., M), and leading axes broadcast."""
        z = (np.asarray(sigma, dtype=np.float64) / self.sigma_ref) ** 2
        return np.einsum("...mp,mp->...m", psi_vector(self.order, z), self.tau)

    def mu_abs_all(self, sigma: np.ndarray) -> np.ndarray:
        return np.abs(self.mu_all(sigma))


@dataclass(frozen=True)
class TrueMismatch:
    """Ground-truth mismatch functions mu_m(sigma) = t_m mu(A_m/sigma) / r_m."""

    hw: SystemHardware

    @property
    def m(self) -> int:
        return self.hw.m

    def mu(self, antenna: int, sigma):
        sigma = np.asarray(sigma, dtype=np.float64)
        hpa = self.hw.bs_hpas[antenna]
        ratio = hpa.t / self.hw.bs_rx[antenna]
        arg = hpa.a_sat / np.maximum(sigma, 1e-300)
        return ratio * bussgang_mu(arg)

    def mu_abs(self, antenna: int, sigma):
        return np.abs(self.mu(antenna, sigma))

    def mu_all(self, sigma: np.ndarray) -> np.ndarray:
        sigma = np.asarray(sigma, dtype=np.float64)
        ratio = self.hw.t / self.hw.bs_rx
        arg = self.hw.a_sat / np.maximum(sigma, 1e-300)
        return ratio * bussgang_mu(arg)

    def mu_abs_all(self, sigma: np.ndarray) -> np.ndarray:
        return np.abs(self.mu_all(sigma))


def _solve_pinned_ls(gram: np.ndarray, order: int) -> np.ndarray:
    """Solve the pinned least-squares problem from the full Gram matrix of Psi."""
    g22 = gram[1:, 1:]
    g21 = gram[1:, 0]
    scale = np.sqrt(np.abs(np.diag(g22)))
    if np.any(scale == 0):
        dead = np.flatnonzero(scale == 0) + 1
        raise CalibrationError(f"rank-deficient system, empty columns {dead.tolist()}")
    gs = g22 / scale[:, None] / scale[None, :]
    eigvals, vecs = np.linalg.eigh(gs)
    if eigvals[0] < 1e-10 * eigvals[-1]:
        bad = np.flatnonzero(np.abs(vecs[:, 0]) > 0.1) + 1
        raise CalibrationError(
            "rank-deficient polynomial system (need N >= order+2 power levels); "
            f"deficient columns include {bad.tolist()}"
        )
    tau_c = -np.linalg.solve(gs, (g21 / scale)) / scale
    return np.concatenate([[1.0 + 0j], tau_c])


def estimate_poly_coeffs(psi_matrix: np.ndarray, order: int,
                         sigma_ref=None) -> PolyMismatch:
    """LS estimate of the polynomial coefficients with tau_{1,0} pinned to 1.

    Rows of the stacked system are equilibrated to unit norm before the
    normal equations are formed.
    """
    p = order + 1
    n_cols = psi_matrix.shape[1]
    if n_cols % p:
        raise ValueError("psi matrix width must be a multiple of order+1")
    norms = np.linalg.norm(psi_matrix, axis=1)
    norms[norms == 0] = 1.0
    scaled = psi_matrix / norms[:, None]
    gram = np.conj(scaled).T @ scaled
    tau = _solve_pinned_ls(gram, order)
    return PolyMismatch(tau=tau.reshape(n_cols // p, p), order=order, sigma_ref=sigma_ref)


def _pair_ratio_gram(training: TrainingSet, plan: PilotPlan, order: int) -> np.ndarray:
    """Gram matrix Psi^H Psi of the row-equilibrated pair-ratio system.

    Each row of Psi (one pair, level and symbol) is scaled to unit norm
    first; the row magnitudes are set by the received-signal products, which
    vary by orders of magnitude across pairs and power levels, so unweighted
    LS is numerically unusable.  Equilibration leaves noiseless solutions
    unchanged.
    """
    _check_levels(training, plan)
    m = training.m
    p = order + 1
    z = _ratio_products(training)
    psi_n = _level_basis(order, plan)
    outer = psi_n[:, :, None] * psi_n[:, None, :]  # (N, P, P)
    a = np.abs(z) ** 2
    norm2 = (a + a.transpose(1, 0, 2, 3)) * np.sum(psi_n**2, axis=1)[:, None]
    norm2[norm2 == 0] = 1.0
    w2 = 1.0 / norm2  # symmetric in the pair
    # block (m, i): -sum w2 conj(ybar^{(m)}) ybar^{(i)} psi_n psi_n^T; block
    # (m, m): sum over partners of w2 |ybar^{(m)}|^2 psi_n psi_n^T
    cross = np.sum(w2 * np.conj(z.transpose(1, 0, 2, 3)) * z, axis=-1)
    gram = -np.einsum("min,npr->mpir", cross, outer)
    idx = np.arange(m)
    gram[idx, :, idx, :] += np.einsum("mn,npr->mpr", np.sum(w2 * a, axis=(0, 3)), outer)
    return gram.reshape(m * p, m * p)


def estimate_poly_coeffs_from_records(training: TrainingSet, plan: PilotPlan,
                                      order: int) -> PolyMismatch:
    """Same estimate as ``estimate_poly_coeffs`` without materialising Psi:
    the normal equations are formed directly from the training tensors."""
    if plan.n_levels < order + 2:
        raise CalibrationError(
            f"need at least order+2 = {order + 2} power levels: the pinning removes "
            "only the global scale, one extra level resolves the per-level scale family"
        )
    tau = _solve_pinned_ls(_pair_ratio_gram(training, plan, order), order)
    return PolyMismatch(tau=tau.reshape(training.m, order + 1), order=order,
                        sigma_ref=plan.sigma_max.copy())


def measured_level_shapes(training: TrainingSet, plan: PilotPlan) -> np.ndarray:
    """Per-antenna transmit-gain profiles across the power levels.

    For a fixed pair the received signal scales across levels exactly like
    the transmitter's gain g_m, so y/x averaged per level measures g_m's
    level profile up to one per-pair constant.  Combining the receivers by
    least squares returns, for every antenna, the complex profile normalised
    to 1 at the top level.  (This is the observable that the pair-ratio
    equations of the polynomial LS cancel out.)
    """
    _check_levels(training, plan)
    prof = np.mean(training.y / training.x[:, None], axis=-1)  # (tx, rx, n)
    top = prof[:, :, -1]
    denom = np.sum(np.abs(top) ** 2, axis=1)
    dead = np.flatnonzero(denom == 0)
    if dead.size:
        raise CalibrationError(f"no usable level profile for antenna {dead[0]}")
    return np.einsum("mi,min->mn", np.conj(top), prof) / denom[:, None]


def estimate_poly_coeffs_anchored(training: TrainingSet, plan: PilotPlan,
                                  order: int) -> PolyMismatch:
    """Polynomial mismatch estimate with the common-shape gauge pinned.

    The pair-ratio LS determines the mismatch functions only up to a common
    per-level factor, a family that becomes (near-)degenerate when the
    antennas' normalised curves are scaled copies of one shape - exactly the
    situation for a homogeneous amplifier population.  This estimator instead
    combines the two identifiable observables directly: the measured
    per-antenna level profiles (see ``measured_level_shapes``) and the
    cross-antenna scale at the top power level from the single-level
    calibration LS.  A per-antenna polynomial refit on the shared level grid
    returns coefficients in the same basis, pinned to tau[0,0] = 1.
    """
    if plan.n_levels < order + 2:
        raise CalibrationError(f"need at least order+2 = {order + 2} power levels")
    shapes = measured_level_shapes(training, plan)
    top_scale = 1.0 / linear_calibration(training.level(plan.n_levels - 1), 1.0)
    values = shapes * top_scale[:, None]
    # precision-weighted refit: the level-n profile noise scales like 1/amp_n,
    # so weight nodes by the level amplitude (exact data is unaffected)
    weights = np.sqrt(np.asarray(plan.levels))
    basis = psi_vector(order, np.asarray(plan.levels)) * weights[:, None]
    tau = np.linalg.lstsq(basis, (values * weights[None, :]).T, rcond=None)[0].T
    tau = tau / tau[0, 0]
    tau[0, 0] = 1.0
    return PolyMismatch(tau=tau, order=order, sigma_ref=plan.sigma_max.copy())


# ---------------------------------------------------------------------------
# conventional linear calibration
# ---------------------------------------------------------------------------


def linear_calibration(training: TrainingSet, c0: complex) -> np.ndarray:
    """Single-power-level reciprocity calibration (Rogalin-style LS).

    ``training`` holds one power level (see ``TrainingSet.level``).  Returns
    c_m = c0 / f_m with f estimated from the cross-correlation matrix Ybar.
    """
    if c0 == 0:
        raise ValueError("c0 must be non-zero")
    if training.x.shape[1] != 1:
        raise ValueError("linear calibration expects a single power level; "
                         "pass TrainingSet.level(n)")
    # s[t, r] = x_r . y_{t->r}: receiver r's own pilot against what it heard from t
    s = np.sum(training.x[None, :, 0] * training.y[:, :, 0], axis=-1)
    ybar = _unfused_product(-np.conj(s.T), s)
    # hypot rounds |s| as scalar abs() does; numpy's vector complex abs does not
    ybar[np.diag_indices(training.m)] = np.sum(np.hypot(s.real, s.imag) ** 2, axis=0)

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
# SLP coefficient solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """Calibration coefficients plus solver diagnostics."""

    c: np.ndarray
    g0: float
    iterations: int
    converged: bool
    overhead: int = 0


def _phi_all(model, c_abs: np.ndarray, sigma_x: np.ndarray) -> np.ndarray:
    return c_abs * model.mu_abs_all(c_abs * sigma_x)


def _phi_grid(model, sigma_x, c_max, n_grid=65):
    """phi_m on the grid (j / (n_grid - 1)) c_max,m, shape (M, n_grid), from
    one model call over the (n_grid, M) amplitudes."""
    c = np.linspace(0.0, 1.0, n_grid)[:, None] * c_max
    return _phi_all(model, c, sigma_x).T


def _check_concave_increasing(model, sigma_x, c_max, strict: bool):
    # tolerance of 1% of the per-antenna range: boundary wiggles of fitted
    # polynomials stay below it, overfit models violate it by O(0.1..1)
    vals = _phi_grid(model, sigma_x, c_max)
    rng_ = np.max(vals, axis=1) - np.min(vals, axis=1)
    rng_ = np.maximum(rng_, 1e-300)
    inc_viol = np.max(-np.diff(vals, axis=1) / rng_[:, None])
    second = np.diff(vals, 2, axis=1)
    conc_viol = np.max(second / rng_[:, None])
    tol = 1e-2
    if inc_viol > tol or conc_viol > tol:
        msg = (
            f"phi_m(x) = x*|mu_m(x sigma)| not concave increasing on the grid "
            f"(increase violation {inc_viol:.2e}, concavity violation {conc_viol:.2e})"
        )
        if strict:
            raise CalibrationError(msg)
        warnings.warn(msg, RuntimeWarning)


def slp_solve(
    model,
    sigma_x: np.ndarray,
    rho_t: float,
    c_max: np.ndarray,
    eps: float = 1e-6,
    rho_step: float = 0.5,
    max_iter: int = 500,
    strict: bool = True,
    monitor: Callable[[int, np.ndarray, float], None] | None = None,
) -> CalibrationResult:
    """Max-min coefficient amplitudes via sequential linear programming.

    Maximises g0 subject to g0 <= phi_m(|c_m|) = |c_m| * |mu_m(|c_m| sigma_x,m)|,
    the total power constraint sum |c_m|^2 sigma_x,m^2 <= rho_t and the
    per-antenna caps |c_m| <= c_max,m.  Each iteration linearises phi, solves
    the closed-form subproblem and backtracks with ratio ``rho_step`` so the
    minimum of phi never decreases and the next linearisation stays feasible.
    ``model.mu_abs_all`` takes amplitudes of shape (..., M), as
    ``PolyMismatch`` and ``TrueMismatch`` do.
    """
    sigma_x = np.asarray(sigma_x, dtype=np.float64)
    c_max = np.asarray(c_max, dtype=np.float64)
    n = len(sigma_x)
    if len(c_max) != n:
        raise ValueError("sigma_x and c_max must have equal length")
    _check_concave_increasing(model, sigma_x, c_max, strict)

    h_rel = 1e-6

    def phi_and_slope(c_abs):
        h = np.maximum(h_rel * c_max, 1e-12)
        lo = np.maximum(c_abs - h, 0.0)
        hi = np.minimum(c_abs + h, c_max)
        phi, phi_lo, phi_hi = _phi_all(model, np.stack([c_abs, lo, hi]), sigma_x)
        return phi, (phi_hi - phi_lo) / (hi - lo)

    def next_point_feasible(c_abs, phi, slope):
        # Eq.-(64)-style conditions so the next subproblem keeps c_bar >= 0
        chi = phi - slope * c_abs
        chi_max = np.max(chi)
        if np.min(chi + slope * c_max) <= chi_max:
            return False
        return float(np.sum(((chi_max - chi) * sigma_x / slope) ** 2)) < rho_t

    c = 1e-3 * c_max
    phi, slope = phi_and_slope(c)
    min_phi = float(np.min(phi))
    iterations = 0
    converged = False
    for it in range(1, max_iter + 1):
        iterations = it
        if np.any(slope <= 0):
            raise CalibrationError("phi slope non-positive; model not increasing")
        chi = phi - slope * c
        w = (sigma_x / slope) ** 2
        a = float(np.sum(w))
        b = -2.0 * float(np.sum(w * chi))
        cc = float(np.sum(w * chi**2)) - rho_t
        disc = b * b - 4.0 * a * cc
        if disc < 0:
            raise CalibrationError("infeasible power subproblem (negative discriminant)")
        g_hat = (-b + math.sqrt(disc)) / (2.0 * a)
        g_cap = float(np.min(chi + slope * c_max))
        g0 = min(g_hat, g_cap)
        c_bar = (g0 - chi) / slope
        delta = c_bar - c

        step = 1.0
        accepted = None
        while step > 1e-12:
            cand = np.clip(c + step * delta, 0.0, c_max)
            phi_c, slope_c = phi_and_slope(cand)
            if float(np.min(phi_c)) >= min_phi - 1e-12 and next_point_feasible(cand, phi_c, slope_c):
                accepted = (cand, phi_c, slope_c)
                break
            step *= rho_step
        if accepted is None:
            break
        cand, phi, slope = accepted
        move = float(np.mean(np.abs(cand - c)))
        c = cand
        min_phi = max(min_phi, float(np.min(phi)))
        if monitor is not None:
            monitor(it, c.copy(), min_phi)
        if move < eps:
            converged = True
            break

    if not converged:
        warnings.warn(f"SLP did not converge within {max_iter} iterations", RuntimeWarning)
    power = float(np.sum(c**2 * sigma_x**2))
    if power > rho_t + 1e-9 or np.any(c > c_max + 1e-9):
        raise CalibrationError("SLP terminated at an infeasible point")
    return CalibrationResult(c=c.astype(np.complex128), g0=min_phi,
                             iterations=iterations, converged=converged)


def calibration_phases(model, c_abs: np.ndarray, sigma_x: np.ndarray) -> np.ndarray:
    """Phases angle(c_m) = -angle(mu_m(|c_m| sigma_x,m)), quadrant-safe."""
    c_abs = np.asarray(c_abs, dtype=np.float64)
    vals = np.asarray(model.mu_all(c_abs * sigma_x))
    if np.any(vals == 0):
        dead = np.flatnonzero(vals == 0).tolist()
        raise CalibrationError(f"mu vanishes at the operating point for antennas {dead}")
    return -np.arctan2(vals.imag, vals.real)


def calibrate(
    hw: SystemHardware,
    plan: PilotPlan,
    training: TrainingSet,
    order: int,
    rho_t: float,
    eps: float = 1e-6,
    rho_step: float = 0.5,
    strict: bool = False,
    anchor_gauge: bool = True,
) -> CalibrationResult:
    """Calibration from one OTA training set: polynomial fit, SLP
    amplitudes, phases.  ``training`` comes from ``simulate_ota_training``
    with the same hardware and plan.

    ``anchor_gauge`` selects the gauge-pinned estimator (recommended); with
    it off, the pipeline uses the plain pair-ratio LS, which cannot resolve
    the common compression shape of a homogeneous amplifier population.
    ``strict`` forwards to the SLP concavity gate; estimated models keep it
    off because the backtracking line search preserves the solver guarantees
    under the small boundary wiggles a fitted polynomial carries.
    """
    if training.m != hw.m:
        raise ValueError(f"training set has {training.m} antennas, the hardware {hw.m}")
    if anchor_gauge:
        poly = estimate_poly_coeffs_anchored(training, plan, order)
    else:
        poly = estimate_poly_coeffs_from_records(training, plan, order)
    sigma_x = hw.sigma_x(rho_t)
    c_max = plan.sigma_max / sigma_x
    res = slp_solve(poly, sigma_x, rho_t, c_max, eps=eps, rho_step=rho_step, strict=strict)
    c_abs = np.abs(res.c)
    phases = calibration_phases(poly, c_abs, sigma_x)
    c = c_abs * np.exp(1j * phases)
    return CalibrationResult(c=c, g0=res.g0, iterations=res.iterations,
                             converged=res.converged, overhead=training_overhead(hw.m, plan))
