"""The benchmark's own oracles and output checks.

Nothing here imports ``mimo_recal``: each expected value is computed from the
model's definitions by code that shares no path with ``src/``.  This module
loads scipy, so it runs in the benchmark's parent process and never in the
measured one.  Every ``check_*`` function returns a list of failure messages,
empty when the check passes.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

CSV_COLUMNS = ("scenario", "sweep_param", "sweep_value", "method",
               "rate_mean", "rate_stderr", "n_trials")
ANALYSIS_METHODS = ("closed_form", "mc", "ideal", "lrm_closed")
CALIBRATION_METHODS = ("none", "linear_rc", "poly_nrc", "perfect_nrc")

# The closed-form SI and MUI terms are large-array limits.  They sit about
# 13 % from the surrogate Monte Carlo at M=64, K=8, and the gap halves each
# time M doubles at fixed K, so it scales like K/M.  If the interference
# terms are off by a share eps, the rate log2(1 + ES/(I + N)) moves by at
# most log2(1 + eps).  The Monte-Carlo allowance covers the channel-draw
# noise of a few hundred draws.  The README gives the largest gaps measured
# on each workload against the resulting tolerance.
GAP_AT_ONE_EIGHTH = 0.13
MC_ALLOWANCE_BITS = 0.05
IDEAL_RTOL = 1e-8          # the CSV keeps 9 significant digits
SLP_POWER_ATOL = 1e-9
SLP_ORACLE_RTOL = 1e-4
ZF_RTOL = 1e-9


def ideal_rate(m: int, k: int, snr_db: float) -> float:
    """ZF rate on ideal hardware with unit path loss: log2(1 + (M-K)/K snr)."""
    return math.log2(1.0 + (m - k) / k * 10.0 ** (snr_db / 10.0))


def rate_tolerance(m: int, k: int) -> float:
    """Allowed |mc - closed_form| in bits for an M x K system."""
    eps = GAP_AT_ONE_EIGHTH * (k / m) / (8 / 64)
    return math.log2(1.0 + eps) + MC_ALLOWANCE_BITS


def mu_soft_limiter(x):
    """Bussgang gain of the soft envelope limiter at saturation-to-rms ratio x.

    mu(x) = (x/2) [2x - sqrt(pi) erfcx(x) (2x^2 - 1)]; past x = 50 the
    bracket cancels, so the asymptotic series 1 - u + 9/4 u^2 - 15/2 u^3 +
    525/16 u^4 in u = 1/x^2 is used instead.
    """
    from scipy.special import erfcx

    x = np.asarray(x, dtype=np.float64)
    small = np.minimum(x, 50.0)
    direct = 0.5 * small * (2.0 * small - math.sqrt(math.pi) * erfcx(small) * (2.0 * small**2 - 1.0))
    with np.errstate(divide="ignore"):
        u = 1.0 / np.maximum(x, 50.0) ** 2
    series = 1.0 + u * (-1.0 + u * (2.25 + u * (-7.5 + u * 32.8125)))
    return np.where(x > 50.0, series, direct)


def maxmin_gain_bisection(ratio_abs, a_sat, sigma_x, rho_t, c_max, outer=80, inner=100) -> float:
    """Max-min g0 of phi_m(c) = c |t_m/r_m| mu(A_m / (c sigma_m)) under
    sum c^2 sigma^2 <= rho_t and c <= c_max: bisection on g0, with a
    per-antenna monotone bisection for phi_m^{-1}(g0)."""
    ratio_abs, a_sat, sigma_x, c_max = (np.asarray(v, dtype=np.float64)
                                        for v in (ratio_abs, a_sat, sigma_x, c_max))

    def phi(c):
        return c * ratio_abs * mu_soft_limiter(a_sat / np.maximum(c * sigma_x, 1e-300))

    lo_g, hi_g = 0.0, float(np.min(phi(c_max)))
    for _ in range(outer):
        mid = 0.5 * (lo_g + hi_g)
        lo, hi = np.zeros_like(c_max), c_max.copy()
        for _ in range(inner):
            c = 0.5 * (lo + hi)
            below = phi(c) < mid
            lo = np.where(below, c, lo)
            hi = np.where(below, hi, c)
        if float(np.sum((hi * sigma_x) ** 2)) > rho_t:
            hi_g = mid
        else:
            lo_g = mid
    return lo_g


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    table = list(csv.reader(io.StringIO(text)))
    return (table[0], table[1:]) if table else ([], [])


def check_point(cfg: dict, text: str) -> list[str]:
    """One CSV written by one sweep point of the experiment config ``cfg``."""
    header, rows = parse_csv(text)
    if tuple(header) != CSV_COLUMNS:
        return [f"csv header {header} != {list(CSV_COLUMNS)}"]
    errors = []
    rates = {}
    for row in rows:
        if len(row) != len(CSV_COLUMNS):
            errors.append(f"row has {len(row)} columns: {row}")
            continue
        rec = dict(zip(CSV_COLUMNS, row))
        mean, stderr = float(rec["rate_mean"]), float(rec["rate_stderr"])
        if not (math.isfinite(mean) and mean > 0 and math.isfinite(stderr) and stderr >= 0):
            errors.append(f"{rec['method']}: rate {mean} +- {stderr} not finite and positive")
        if int(rec["n_trials"]) != cfg["mc"]["n_hardware"]:
            errors.append(f"{rec['method']}: n_trials {rec['n_trials']} != "
                          f"n_hardware {cfg['mc']['n_hardware']}")
        if (rec["scenario"], rec["sweep_param"]) != (cfg["scenario"], cfg["sweep"]["param"]) \
                or float(rec["sweep_value"]) != cfg["sweep"]["values"][0]:
            errors.append(f"row does not belong to the configured point: {row}")
        rates[rec["method"]] = mean

    if cfg["scenario"].startswith("cal_"):
        expected = CALIBRATION_METHODS
    else:
        expected = ANALYSIS_METHODS
    if tuple(rates) != expected:
        return errors + [f"methods {list(rates)} != {list(expected)}"]

    m, k = cfg["m"], cfg["k"]
    if expected is ANALYSIS_METHODS:
        want = ideal_rate(m, k, cfg["sweep"]["values"][0])
        if abs(rates["ideal"] - want) > IDEAL_RTOL * want:
            errors.append(f"ideal {rates['ideal']} != oracle {want}")
        for method in ("mc", "closed_form"):
            if rates[method] > want * (1 + IDEAL_RTOL):
                errors.append(f"{method} {rates[method]} above ideal {want}")
        tol = rate_tolerance(m, k)
        if abs(rates["mc"] - rates["closed_form"]) > tol:
            errors.append(f"|mc - closed_form| = {abs(rates['mc'] - rates['closed_form']):.4f}"
                          f" bits > {tol:.4f}")
    else:
        for method in ("linear_rc", "poly_nrc", "perfect_nrc"):
            if not rates[method] > rates["none"]:
                errors.append(f"{method} {rates[method]} does not exceed none {rates['none']}")
    return errors


def check_slp(records: list[dict], instance: dict | None, required: bool) -> list[str]:
    """Constraints of every ``slp_solve`` result, and one instance against
    the bisection oracle."""
    errors = []
    for i, rec in enumerate(records):
        if rec["power"] > rec["rho_t"] + SLP_POWER_ATOL:
            errors.append(f"slp call {i}: power {rec['power']} > rho_t {rec['rho_t']}")
        if rec["cap_excess"] > SLP_POWER_ATOL:
            errors.append(f"slp call {i}: |c| exceeds c_max by {rec['cap_excess']}")
    if instance is None:
        if required:
            errors.append("no slp_solve call on TrueMismatch was seen")
        return errors
    want = maxmin_gain_bisection(instance["ratio_abs"], instance["a_sat"], instance["sigma_x"],
                                 instance["rho_t"], instance["c_max"])
    if abs(instance["g0"] - want) > SLP_ORACLE_RTOL * want:
        errors.append(f"slp g0 {instance['g0']} vs bisection {want}: relative error "
                      f"{abs(instance['g0'] - want) / want:.2e} > {SLP_ORACLE_RTOL}")
    return errors


def check_zf_ideal(zf: dict) -> list[str]:
    """ZF on identity hardware: SI = MUI = 0 and ES = a0 rho_t / beta with
    beta = K/(M-K) for unit path loss."""
    es_want = zf["a0"] * zf["rho_t"] * (zf["m"] - zf["k"]) / zf["k"]
    errors = []
    for i, (es, si, mui) in enumerate(zip(zf["es"], zf["si"], zf["mui"])):
        if abs(es - es_want) > ZF_RTOL * es_want:
            errors.append(f"ideal-hardware ES[{i}] = {es} != a0 rho_t / beta = {es_want}")
        if si > ZF_RTOL * es_want or mui > ZF_RTOL * es_want:
            errors.append(f"ideal-hardware SI[{i}] = {si}, MUI[{i}] = {mui}, not 0")
    return errors
