"""Over-the-air nonlinear reciprocity calibration.

Pipeline: multi-power constant-modulus pilots between antenna pairs, LS fit of
per-antenna polynomial mismatch functions, a sequential-linear-programming
max-min solver for the coefficient amplitudes, and a closed-form phase
solution.  The conventional single-power (linear) calibration is included for
comparison.

The polynomial basis is evaluated in the transmit *power* (amplitude squared)
normalised by the common pilot cap sigma_max^2, so every antenna shares the
level grid (n/N)^2 on (0, 1].  The model class is unchanged (degree-Pi polynomials
in the power); the normalisation keeps the least-squares system conditioned.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np

from .hardware import SystemHardware, sspa_apply
from .numerics import _check_positive, bussgang_mu

__all__ = [
    "CalibrationError",
    "PilotPlan",
    "TrainingSet",
    "PolyMismatch",
    "TrueMismatch",
    "CalibrationResult",
    "psi_vector",
    "draw_inter_antenna_channel",
    "simulate_ota_training",
    "measured_level_shapes",
    "estimate_poly_coeffs_anchored",
    "linear_calibration",
    "slp_solve",
    "calibration_phases",
    "calibrate",
    "calibration_stack",
    "CALIBRATION_METHODS",
]

MAX_PSI_ORDER = 20

# the rows of ``calibration_stack``, in order
CALIBRATION_METHODS = ("none", "linear_rc", "poly_nrc", "perfect_nrc")


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

    ``levels`` holds the N power fractions (n/N)^2; every antenna sends its
    level-n pilots at power levels[n] * sigma_max^2, under the one amplitude
    cap ``sigma_max``.
    """

    n_levels: int
    n_symbols: int
    sigma_max: float

    def __post_init__(self):
        for name in ("n_levels", "n_symbols"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)) or val < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {val!r}")
        if np.ndim(self.sigma_max) != 0:
            raise ValueError(f"sigma_max must be one number, got {self.sigma_max!r}")
        object.__setattr__(self, "sigma_max", _check_positive("sigma_max", self.sigma_max))

    @property
    def levels(self) -> np.ndarray:
        return (np.arange(1, self.n_levels + 1) / self.n_levels) ** 2

    @property
    def amplitudes(self) -> np.ndarray:
        """Pilot amplitude at level n, shape (N,), the same at every antenna."""
        return np.sqrt(self.levels) * self.sigma_max

    @classmethod
    def for_hardware(cls, hw: SystemHardware, n_levels: int, n_symbols: int) -> "PilotPlan":
        """The amplitude cap at the geometric-mean saturation level, so the
        SLP keeps every |c_m| sigma_x,m inside the trained range
        [0, sigma_max]."""
        return cls(n_levels, n_symbols, float(np.exp(np.mean(np.log(hw.a_sat)))))


@dataclass(frozen=True)
class TrainingSet:
    """One OTA training round sent under ``plan``, held as the two per-pair
    statistics the estimators read.

    ``x[m, n]`` holds the Q pilots antenna m sends at level n, shape (M, N, Q).
    Of the samples y_{t->r} that antenna r receives from antenna t at level
    n, ``ratio[t, r, n]`` is the mean over the Q pilots of y_{t->r} / x_t and
    ``xcorr[t, r, n]`` the correlation sum_q x_r y_{t->r}; both have shape
    (M, M, N) and are 0 on the diagonal: an antenna does not receive itself.
    ``simulate_ota_training`` draws both from their law given the pilots.
    """

    plan: PilotPlan
    x: np.ndarray
    ratio: np.ndarray
    xcorr: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 3:
            raise ValueError("x must have shape (M, N, Q)")
        m, n, q = self.x.shape
        if (n, q) != (self.plan.n_levels, self.plan.n_symbols):
            raise ValueError(f"x holds {n} levels of {q} pilots, the pilot plan "
                             f"{self.plan.n_levels} of {self.plan.n_symbols}")
        for name in ("ratio", "xcorr"):
            shape = getattr(self, name).shape
            if shape != (m, m, n):
                raise ValueError(f"{name} must have shape {(m, m, n)}, got {shape}")

    @property
    def m(self) -> int:
        return self.x.shape[0]


def draw_inter_antenna_channel(rng: np.random.Generator, m: int) -> np.ndarray:
    """Symmetric zero-diagonal CN(0, 1) inter-antenna channel matrix."""
    w = math.sqrt(0.5) * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
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
    """The pair-wise pilot exchange of all ordered antenna pairs, held as the
    two statistics of a ``TrainingSet``.

    Each antenna sends Q constant-modulus pilots of random phase per level
    through the data's transmit chain, and every other antenna receives them
    through the symmetric channel ``omega``.  A pilot drives the memoryless
    amplifier at one operating point, so it only picks up the complex gain
    G[t, n] at the level amplitude amp_n: ``sspa_apply`` at amp_n over amp_n
    (physical) or sqrt(a0) t mu(A/amp_n) (surrogate); no sampled distortion
    is injected.  With L = r_r omega, S[t, r, n] = sum_q x_t x_r and
    sigma^2 = ``noise_var``, both statistics are drawn from their law given
    the pilots: ratio = L G + a, a ~ CN(0, sigma^2/(Q amp_n^2)), and
    xcorr = S ratio + e, e ~ CN(0, sigma^2 (Q amp_n^2 - |S|^2/(Q amp_n^2)))
    independent of a.  The samples are never made, so the round takes
    O(M^2 N) memory whatever Q is.

    Random draws: one (M, N, Q) ``uniform`` draw of the pilot phases, whatever
    ``noise_var`` is; then, with noise, one (2, 2, M, M, N) ``standard_normal``
    block, drawn as four (M, M, N) quarters: the real and imaginary parts of
    a, then those of e.
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
    _check_positive("noise_var", noise_var, zero_ok=True)

    n_levels, q = plan.n_levels, plan.n_symbols
    amps = plan.amplitudes
    x = amps[:, None] * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (m, n_levels, q)))
    if mode == "physical":
        gain = sspa_apply(hw, np.broadcast_to(amps[:, None], (n_levels, m))).T / amps
    else:
        gain = (math.sqrt(hw.a0) * hw.t)[:, None] * bussgang_mu(hw.a_sat[:, None] / amps)
    ratio = _unfused_product(hw.bs_rx[None, :], omega)[:, :, None] * gain[:, None, :]
    # S[t, r, n] = sum_q x_t x_r, a view of the level-batched (N, M, M)
    # product; xcorr = S ratio + e is formed in its place
    pilots = np.moveaxis(x, 1, 0)
    xcorr = np.moveaxis(pilots @ np.swapaxes(pilots, 1, 2), 0, -1)
    if noise_var > 0:
        energy = q * amps**2  # sum_q |x_q|^2 at level n
        part = np.empty((m, m, n_levels))  # one quarter of the normal block
        for out in (ratio.real, ratio.imag):
            out += np.multiply(rng.standard_normal(out=part),
                               np.sqrt(noise_var / 2.0 / energy), out=part)
        # the standard deviation of e's parts; |S| = Q amp_n^2 for collinear
        # pilots (Q = 1), where the variance may round below 0
        sd = np.square(xcorr.real)
        sd += np.square(xcorr.imag, out=part)
        sd *= -noise_var / 2.0 / energy
        sd += noise_var / 2.0 * energy
        np.sqrt(np.maximum(sd, 0.0, out=sd), out=sd)
        xcorr *= ratio
        for out in (xcorr.real, xcorr.imag):
            out += np.multiply(rng.standard_normal(out=part), sd, out=part)
        diag = np.arange(m)
        ratio[diag, diag] = 0.0
        xcorr[diag, diag] = 0.0
    else:
        xcorr *= ratio
    return TrainingSet(plan=plan, x=x, ratio=ratio, xcorr=xcorr)


def _unfused_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex a * b with each real product rounded on its own, as scalar
    complex arithmetic does; numpy's vector kernels may fuse a product into
    the sum, which moves the last bit against a per-pair scalar loop."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


@dataclass(frozen=True)
class PolyMismatch:
    """Per-antenna polynomial mismatch functions mu_m(sigma).

    mu_m(sigma) = sum_w tau[m, w] psi_w(sigma^2 / sigma_ref^2); sigma_ref is
    the amplitude that maps to normalised power 1 (the top pilot level),
    finite and positive; the order is the width of ``tau`` less one.
    """

    tau: np.ndarray  # (M, order+1) complex
    sigma_ref: float

    def __post_init__(self):
        if self.tau[0, 0] != 1:
            raise ValueError("normalisation requires tau[0, 0] == 1")
        object.__setattr__(self, "sigma_ref", _check_positive("sigma_ref", self.sigma_ref))

    @property
    def order(self) -> int:
        return self.tau.shape[1] - 1

    def mu_all(self, sigma: np.ndarray) -> np.ndarray:
        """Per-antenna values at per-antenna amplitudes; sigma has shape
        (..., M), and leading axes broadcast."""
        z = (np.asarray(sigma, dtype=np.float64) / self.sigma_ref) ** 2
        return np.einsum("...mp,mp->...m", psi_vector(self.order, z), self.tau)


@dataclass(frozen=True)
class TrueMismatch:
    """Ground-truth mismatch functions mu_m(sigma) = t_m mu(A_m/sigma) / r_m."""

    hw: SystemHardware

    def mu_all(self, sigma: np.ndarray) -> np.ndarray:
        sigma = np.asarray(sigma, dtype=np.float64)
        ratio = self.hw.t / self.hw.bs_rx
        arg = self.hw.a_sat / np.maximum(sigma, 1e-300)
        return ratio * bussgang_mu(arg)


def measured_level_shapes(training: TrainingSet) -> np.ndarray:
    """Per-antenna transmit-gain profiles across the power levels.

    For a fixed pair the received signal scales across levels exactly like
    the transmitter's gain g_m, so y/x averaged per level, ``training.ratio``,
    measures g_m's level profile up to one per-pair constant.  Combining the
    receivers by least squares returns, for every antenna, the complex
    profile normalised to 1 at the top level.  This is the observable that the paper's
    pair-ratio equations cancel out, which leaves them unable to resolve
    a homogeneous amplifier population.
    """
    prof = training.ratio
    top = prof[:, :, -1]
    denom = np.sum(np.abs(top) ** 2, axis=1)
    dead = np.flatnonzero(denom == 0)
    if dead.size:
        raise CalibrationError(f"no usable level profile for antenna {dead[0]}")
    return np.einsum("mi,min->mn", np.conj(top), prof) / denom[:, None]


def estimate_poly_coeffs_anchored(training: TrainingSet, order: int) -> PolyMismatch:
    """Polynomial mismatch estimate with the common-shape gauge pinned.

    The paper's pair-ratio LS determines the mismatch functions only up to a
    common per-level factor, a family that becomes (near-)degenerate when
    the antennas' normalised curves are scaled copies of one shape - exactly
    the situation for a homogeneous amplifier population, where it reports a
    rank-deficient system on noiseless training.  This estimator instead
    combines the two identifiable observables directly: the measured
    per-antenna level profiles (see ``measured_level_shapes``) and the
    cross-antenna scale at the top power level from the single-level
    calibration LS.  A per-antenna polynomial refit on the shared level grid
    returns coefficients in the same basis, pinned to tau[0,0] = 1.
    """
    plan = training.plan
    if plan.n_levels < order + 2:
        raise CalibrationError(f"need at least order+2 = {order + 2} power levels")
    shapes = measured_level_shapes(training)
    top_scale = 1.0 / linear_calibration(training, plan.n_levels - 1)
    values = shapes * top_scale[:, None]
    # precision-weighted refit: the level-n profile noise scales like 1/amp_n,
    # so weight nodes by the level amplitude (exact data is unaffected)
    weights = np.sqrt(np.asarray(plan.levels))
    basis = psi_vector(order, np.asarray(plan.levels)) * weights[:, None]
    tau = np.linalg.lstsq(basis, (values * weights[None, :]).T, rcond=None)[0].T
    tau = tau / tau[0, 0]
    tau[0, 0] = 1.0
    return PolyMismatch(tau=tau, sigma_ref=plan.sigma_max)


# ---------------------------------------------------------------------------
# conventional linear calibration
# ---------------------------------------------------------------------------


def linear_calibration(training: TrainingSet, level: int) -> np.ndarray:
    """Single-power-level reciprocity calibration (Rogalin-style LS) from the
    pilots of power level ``level``, in [0, N), of ``training``.

    Returns c_m = 1 / f_m with f estimated from the cross-correlation matrix
    Ybar, normalised to f_0 = 1; a common complex scale of c is a common
    phase and gain that callers rescale to their power budget.
    """
    if not 0 <= level < training.plan.n_levels:
        raise ValueError(f"level must lie in [0, {training.plan.n_levels}), got {level}")
    # s[t, r] = x_r . y_{t->r}: receiver r's own pilot against what it heard from t
    s = training.xcorr[:, :, level]
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
    return 1.0 / f


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
    return c_abs * np.abs(model.mu_all(c_abs * sigma_x))


def _phi_grid(model, sigma_x, c_max):
    """phi_m on the grid (j / 64) c_max,m, shape (M, 65), from one model
    call over the (65, M) amplitudes."""
    c = np.linspace(0.0, 1.0, 65)[:, None] * c_max
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


# stop once an accepted step moves |c| by less than this on average
_SLP_TOL = 1e-6
_SLP_BACKTRACK = 0.5
_SLP_MAX_ITER = 500


def slp_solve(
    model,
    sigma_x: np.ndarray,
    rho_t: float,
    c_max: np.ndarray,
    strict: bool = True,
    monitor: Callable[[int, np.ndarray, float], None] | None = None,
) -> CalibrationResult:
    """Max-min coefficient amplitudes via sequential linear programming.

    Maximises g0 subject to g0 <= phi_m(|c_m|) = |c_m| * |mu_m(|c_m| sigma_x,m)|,
    the total power constraint sum |c_m|^2 sigma_x,m^2 <= rho_t and the
    per-antenna caps |c_m| <= c_max,m.  Each iteration linearises phi, solves
    the closed-form subproblem and backtracks so the minimum of phi never
    decreases and the next linearisation stays feasible.  ``strict`` makes a
    model that is not concave increasing on the grid an error instead of a
    warning.  ``model.mu_all`` takes amplitudes of shape (..., M), as
    ``PolyMismatch`` and ``TrueMismatch`` do.  Raises ValueError unless
    ``sigma_x``, ``c_max`` and ``rho_t`` are finite and positive, and
    ``sigma_x`` and ``c_max`` are 1-d of equal length.
    """
    sigma_x = _check_positive("sigma_x", sigma_x)
    c_max = _check_positive("c_max", c_max)
    _check_positive("rho_t", rho_t)
    if np.ndim(sigma_x) != 1 or np.shape(c_max) != np.shape(sigma_x):
        raise ValueError("sigma_x and c_max must have equal length as 1-d arrays")
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
    # at a large back-off c_max is so large that this start exceeds the budget
    power = float(np.sum((c * sigma_x) ** 2))
    if power > rho_t:
        c *= math.sqrt(rho_t / power) / 2
    phi, slope = phi_and_slope(c)
    min_phi = float(np.min(phi))
    iterations = 0
    converged = False
    for it in range(1, _SLP_MAX_ITER + 1):
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
            step *= _SLP_BACKTRACK
        if accepted is None:
            break
        cand, phi, slope = accepted
        move = float(np.mean(np.abs(cand - c)))
        c = cand
        min_phi = max(min_phi, float(np.min(phi)))
        if monitor is not None:
            monitor(it, c.copy(), min_phi)
        if move < _SLP_TOL:
            converged = True
            break

    if not converged:
        warnings.warn(f"SLP did not converge within {_SLP_MAX_ITER} iterations", RuntimeWarning)
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


def _maxmin_calibration(model, sigma_x: np.ndarray, rho_t: float,
                        c_max: np.ndarray) -> CalibrationResult:
    """SLP amplitudes of ``model`` with its calibration phases.  The
    concavity gate only warns: the backtracking line search keeps the solver
    guarantees under the small boundary wiggles a fitted polynomial carries."""
    res = slp_solve(model, sigma_x, rho_t, c_max, strict=False)
    c_abs = np.abs(res.c)
    return replace(res, c=c_abs * np.exp(1j * calibration_phases(model, c_abs, sigma_x)))


def calibrate(hw: SystemHardware, training: TrainingSet, order: int,
              rho_t: float) -> CalibrationResult:
    """Calibration from one OTA training set: polynomial fit, SLP
    amplitudes, phases.  ``training`` comes from ``simulate_ota_training``
    with the same hardware; the fit is
    ``estimate_poly_coeffs_anchored``.  ``order`` is at least 1: the order-0
    calibration is the ``linear_rc`` row of ``calibration_stack``.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}; the order-0 calibration "
                         "is the linear_rc row of calibration_stack")
    if training.m != hw.m:
        raise ValueError(f"training set has {training.m} antennas, the hardware {hw.m}")
    poly = estimate_poly_coeffs_anchored(training, order)
    sigma_x = hw.sigma_x(rho_t)
    res = _maxmin_calibration(poly, sigma_x, rho_t, training.plan.sigma_max / sigma_x)
    # every antenna sends Q pilots at each of the N levels
    return replace(res, overhead=training.x.size)


def calibration_stack(hw: SystemHardware, training: TrainingSet, order: int,
                      rho_t: float) -> np.ndarray:
    """The calibration vectors of ``CALIBRATION_METHODS`` from one OTA
    training set, as a (4, M) stack in that order; draws nothing.

    ``none`` is ones.  ``linear_rc`` is ``linear_calibration`` at the pilot
    level nearest the mean operating amplitude, rescaled to the power budget
    ``rho_t`` and then capped at c_max = sigma_max / sigma_x.  ``poly_nrc``
    is ``calibrate(...).c``, and the ``linear_rc`` row at ``order`` 0.
    ``perfect_nrc`` applies the max-min and phase steps of ``calibrate`` to
    ``TrueMismatch(hw)``.
    """
    if training.m != hw.m:
        raise ValueError(f"training set has {training.m} antennas, the hardware {hw.m}")
    sigma_x = hw.sigma_x(rho_t)
    c_max = training.plan.sigma_max / sigma_x
    level = int(np.argmin(np.abs(training.plan.amplitudes - float(np.mean(sigma_x)))))
    c = linear_calibration(training, level)
    c = c * math.sqrt(rho_t / float(np.sum(np.abs(c) ** 2 * sigma_x**2)))
    c_lin = np.minimum(np.abs(c), c_max) * np.exp(1j * np.angle(c))
    c_poly = c_lin if order == 0 else calibrate(hw, training, order, rho_t).c
    c_perf = _maxmin_calibration(TrueMismatch(hw), sigma_x, rho_t, c_max).c
    return np.stack([np.ones(hw.m, dtype=np.complex128), c_lin, c_poly, c_perf])
