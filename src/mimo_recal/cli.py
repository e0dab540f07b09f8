"""Experiment runner: scenario registry, config handling and CSV emission.

``mimo-recal run --config cfg.json [--paper-scale] [--seed N] [--set k=v]...``
reproduces the simulation studies at configurable scale; ``mimo-recal
selftest`` runs a quick oracle suite.  Data goes to the CSV only; progress and
warnings go to stderr.  Hardware draw h of every sweep point reads one SFC64
stream, spawned as child h of the config seed, so the points of a sweep share
their hardware and channels.  MIMO_RECAL_THREADS caps the pool of spawned
workers, whose unit of work is one (sweep point, hardware draw) pair; no output
depends on the worker layout, and a script that runs the pool needs an
``if __name__ == "__main__":`` guard, as each worker imports its main module.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import islice, repeat

import numpy as np

from .analysis import (
    _block_draws,
    _precoder_draws,
    estimate_sindr_mc,
    rate_from_sindr,
    sindr_zf_closed_all,
    sinr_linear_mismatch,
)
from .calibration import (
    CALIBRATION_METHODS,
    MAX_PSI_ORDER,
    PilotPlan,
    TrueMismatch,
    calibration_stack,
    draw_inter_antenna_channel,
    simulate_ota_training,
    slp_solve,
)
from .channel import draw_channels, draw_ue_pathloss
from .hardware import HardwareMismatch, a_sat_for_ibo, draw_system_hardware

SCENARIOS = (
    "rate_vs_snr",
    "loss_vs_mismatch",
    "rate_vs_ibo",
    "cal_rate_vs_snr",
    "cal_rate_vs_ibo",
    "cal_rate_vs_order",
)

CSV_COLUMNS = ("scenario", "sweep_param", "sweep_value", "method",
               "rate_mean", "rate_stderr", "n_trials")

# every rate depends on the BS amplifier gain a0 (10 dB) and the noise variance
# only through snr_db = a0 rho_t / noise_var, so no config sets them
A0 = 10.0
NOISE_VAR = 1.0

DEFAULT_PARAMS = {
    "snr_db": 10.0,
    "ibo_db": 10.0,
    "delta2": 0.05,
    "theta": math.pi / 6,
    "order": 5,
    "n_levels": 7,
    "n_symbols_train": 10,
    "train_noise_var": 0.0,  # OTA receive noise variance, as a ratio to NOISE_VAR
    "pathloss": "unit",  # "unit" or "drawn"
}


# the allowed range of each bounded model parameter, as text and as a test
_PARAM_RANGES = {
    "order": (f"in [0, {MAX_PSI_ORDER}]", lambda v: 0 <= v <= MAX_PSI_ORDER),
    "n_levels": (">= 1", lambda v: v >= 1),
    "n_symbols_train": (">= 1", lambda v: v >= 1),
    "delta2": (">= 0", lambda v: v >= 0),
    "train_noise_var": (">= 0", lambda v: v >= 0),
    "theta": ("in [0, pi]", lambda v: 0 <= v <= math.pi),
}


class ConfigError(ValueError):
    pass


# every config key and the ExperimentConfig field it sets; params.<name> sets
# one entry of params.  The file nests the dotted keys as sweep, mc and params
# objects, and --set takes them as written here.
CONFIG_KEYS = {
    "scenario": "scenario", "m": "m", "k": "k", "seed": "seed", "mode": "mode",
    "output_path": "output_path", "sweep.param": "sweep_param",
    "sweep.values": "sweep_values", "mc.n_hardware": "n_hardware",
    "mc.n_channels": "n_channels", "mc.n_symbols": "n_symbols",
}


def _check_param(name: str, value, where: str) -> None:
    """The value check of one model parameter, set in params or swept: the
    type of its default (an integer, a finite number or a pathloss name),
    then its range in ``_PARAM_RANGES``."""
    default = DEFAULT_PARAMS[name]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, str):
        if value not in ("unit", "drawn"):
            raise ConfigError(f"{where}: unknown value {value!r} (allowed: unit, drawn)")
    elif isinstance(default, int) and not (number and isinstance(value, int)):
        raise ConfigError(f"{where}: must be an integer, got {value!r}")
    # a NaN fails the comparison
    elif not (number and -math.inf < value < math.inf):
        raise ConfigError(f"{where}: must be a finite number, got {value!r}")
    elif name in _PARAM_RANGES and not _PARAM_RANGES[name][1](value):
        raise ConfigError(f"{where}: must be {_PARAM_RANGES[name][0]}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a scenario, the system size, one sweep axis, Monte-Carlo
    depths and fixed model parameters."""

    scenario: str
    m: int = 64
    k: int = 8
    seed: int = 0
    mode: str = "surrogate"
    sweep_param: str = "snr_db"
    sweep_values: tuple = (0.0, 10.0, 20.0)
    n_hardware: int = 20
    n_channels: int = 1000
    n_symbols: int = 256
    params: dict = field(default_factory=dict)
    output_path: str = "results.csv"

    def __post_init__(self):
        for key in ("m", "k", "seed", "mc.n_hardware", "mc.n_channels", "mc.n_symbols"):
            value = getattr(self, CONFIG_KEYS[key])
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{key}: must be an integer, got {value!r}")
        if not isinstance(self.params, dict):
            raise ConfigError(f"params: must be an object, got {self.params!r}")
        if not isinstance(self.output_path, str):
            raise ConfigError(f"output_path: must be a string, got {self.output_path!r}")
        values = self.sweep_values
        if not (isinstance(values, (list, tuple)) and values and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)):
            raise ConfigError(f"sweep.values: must be a non-empty list of numbers, got {values!r}")
        object.__setattr__(self, "sweep_values", tuple(values))
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: unknown value {self.scenario!r}")
        if not self.m > self.k >= 1:
            raise ConfigError(f"m/k: need m > k >= 1, got {self.m}/{self.k}")
        # the Monte Carlo's ZF beta is finite only for M > K + 1
        if self.scenario != "loss_vs_mismatch" and self.m <= self.k + 1:
            raise ConfigError(f"m/k: {self.scenario} runs the Monte Carlo, which needs "
                              f"m > k + 1, got {self.m}/{self.k}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.mode not in ("surrogate", "physical"):
            raise ConfigError(f"mode: unknown value {self.mode!r}")
        for name in ("n_hardware", "n_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"mc.{name}: need at least 1, got {getattr(self, name)}")
        if self.mode == "physical" and self.n_symbols <= self.k:
            raise ConfigError(f"mc.n_symbols: physical mode needs n_symbols > k = {self.k}, "
                              f"got {self.n_symbols}")
        for key in self.params:
            if key not in DEFAULT_PARAMS:
                raise ConfigError(f"params.{key}: unknown parameter")
        # a sweep over a name that no parameter has would write one value at
        # every point
        if self.sweep_param not in DEFAULT_PARAMS:
            raise ConfigError(f"sweep.param: unknown parameter {self.sweep_param!r}")
        for name, value in self.params.items():
            _check_param(name, value, f"params.{name}")
        for value in self.sweep_values:
            _check_param(self.sweep_param, value, f"sweep.values ({self.sweep_param})")

    def param(self, name: str):
        return self.params.get(name, DEFAULT_PARAMS[name])


def _set(fields: dict, key: str, value) -> None:
    """Set one dotted config key in ``fields``, the ExperimentConfig keywords."""
    if key.startswith("params."):
        fields["params"] = {**fields.get("params", {}), key[len("params."):]: value}
    elif key in CONFIG_KEYS:
        fields[CONFIG_KEYS[key]] = value
    else:
        raise ConfigError(f"{key}: unknown key (allowed: {', '.join(CONFIG_KEYS)}, "
                          f"params.<name>)")


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(path: str, sets=()) -> ExperimentConfig:
    """The config of a JSON file with ``KEY=VALUE`` overrides, validated once:
    the file's sweep, mc and params objects are flattened to dotted keys, and
    one setter takes them and then the overrides (a value text that is not
    JSON is a string)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must hold a JSON object")
    fields: dict = {}
    for key, value in data.items():
        if key in ("sweep", "mc", "params"):
            if not isinstance(value, dict):
                raise ConfigError(f"{key}: must be an object, got {value!r}")
            for sub, item in value.items():
                _set(fields, f"{key}.{sub}", item)
        elif "." in key:
            raise ConfigError(f"{key}: unknown key (the file nests it as an object)")
        else:
            _set(fields, key, value)
    for text in sets:
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {text!r}")
        _set(fields, key, _parse(value))
    if "scenario" not in fields:
        raise ConfigError("scenario: missing")
    # swept values mean nothing without their parameter, and the reverse
    for key, other in (("sweep.param", "sweep_values"), ("sweep.values", "sweep_param")):
        if other in fields and CONFIG_KEYS[key] not in fields:
            raise ConfigError(f"{key}: missing (a sweep sets sweep.param and sweep.values)")
    return ExperimentConfig(**fields)


# ---------------------------------------------------------------------------
# per-draw simulation
# ---------------------------------------------------------------------------


def _mean_rate(sindr) -> float:
    return float(np.mean([rate_from_sindr(s) for s in sindr]))


def _draw_rates(cfg: ExperimentConfig, index: int, h: int) -> dict:
    """Mean rate of each method, in row order, for hardware draw ``h`` of
    sweep point ``index``.  The draw reads one SFC64 stream, child h of the
    config seed, so every sweep point sees the same hardware and channels
    whatever the worker layout: the rows of a sweep are common-random-number
    comparisons."""
    p = {name: cfg.param(name) for name in DEFAULT_PARAMS}
    p[cfg.sweep_param] = cfg.sweep_values[index]
    rho_t = 10.0 ** (p["snr_db"] / 10.0) * NOISE_VAR / A0
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(cfg.seed, spawn_key=(h,))))
    phi = draw_ue_pathloss(rng, cfg.k) if p["pathloss"] == "drawn" else np.ones(cfg.k)
    mismatch = HardwareMismatch.uniform(p["delta2"], p["theta"])
    hw = draw_system_hardware(rng, cfg.m, cfg.k, mismatch,
                              a_sat_for_ibo(p["ibo_db"], rho_t, cfg.m), a0=A0)
    mc_args = (hw, phi, rho_t, A0, NOISE_VAR, cfg.n_channels, cfg.n_symbols, cfg.mode, rng)
    if cfg.scenario.startswith("cal_"):
        order = p["order"]
        omega = draw_inter_antenna_channel(rng, cfg.m)
        # n_levels is held to the identifiability floor of the polynomial fit
        plan = PilotPlan.for_hardware(hw, max(p["n_levels"], order + 2), p["n_symbols_train"])
        # one training set, shared by linear_rc and poly_nrc and freed before
        # the Monte Carlo, which scores every method on the same channel draws
        stack = calibration_stack(
            hw, plan, simulate_ota_training(hw, plan, omega, p["train_noise_var"] * NOISE_VAR,
                                            cfg.mode, rng),
            order, rho_t)
        scored = estimate_sindr_mc(*mc_args, c=stack)
        return {name: _mean_rate(b.sindr for b in row)
                for name, row in zip(CALIBRATION_METHODS, scored)}

    closed = sindr_zf_closed_all(hw, phi, rho_t, A0, NOISE_VAR)
    rates = {"closed_form": _mean_rate(b.sindr for b in closed)}
    if cfg.scenario != "loss_vs_mismatch":
        rates["mc"] = _mean_rate(b.sindr for b in estimate_sindr_mc(*mc_args))
    # ideal is the linear-mismatch SINR at zero mismatch, lrm_closed at the
    # law the hardware is drawn from
    for name, law in (("ideal", HardwareMismatch.none()), ("lrm_closed", mismatch)):
        rates[name] = _mean_rate(sinr_linear_mismatch(cfg.m, rho_t, A0, phi, law, NOISE_VAR))
    return rates


def _row(cfg: ExperimentConfig, sweep_value, method: str, samples) -> dict:
    samples = np.asarray(samples, dtype=np.float64)
    stderr = float(samples.std(ddof=1) / math.sqrt(len(samples))) if len(samples) > 1 else 0.0
    return {
        "scenario": cfg.scenario,
        "sweep_param": cfg.sweep_param,
        "sweep_value": float(sweep_value),
        "method": method,
        "rate_mean": float(samples.mean()),
        "rate_stderr": stderr,
        "n_trials": len(samples),
    }


# the thread counts of the BLAS libraries numpy may load; a pool worker
# starts with one thread, so that the pool owns the cores
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_scenario(cfg: ExperimentConfig) -> list[dict]:
    """Rows of every sweep point in sweep order.  The unit of work is one
    (sweep point, hardware draw) pair, scored by ``_draw_rates`` in
    point-major order; a worker gets the config itself."""
    n = len(cfg.sweep_values)
    workers = os.environ.get("MIMO_RECAL_THREADS", "").strip()
    if workers and not (workers.isdecimal() and int(workers) >= 1):
        raise ConfigError(f"MIMO_RECAL_THREADS: need an integer >= 1, got {workers!r}")
    points = [i for i in range(n) for _ in range(cfg.n_hardware)]
    draws = list(range(cfg.n_hardware)) * n
    # a worker beyond the number of pairs would only start up and idle
    max_workers = min(int(workers) if workers else (os.cpu_count() or 1), len(points))
    out: list[dict] = []

    def collect(rates):  # map and pool.map both keep the pair order
        for i, value in enumerate(cfg.sweep_values):
            samples = list(islice(rates, cfg.n_hardware))
            out.extend(_row(cfg, value, method, [s[method] for s in samples])
                       for method in samples[0])
            print(f"done point {i + 1}/{n}", file=sys.stderr)

    if max_workers == 1:
        collect(map(_draw_rates, repeat(cfg), points, draws))
        return out
    # imported here, so that a single-worker run does not load the pool modules
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # spawned workers read the BLAS settings at start-up; the caller's own
    # settings come back when the pool has shut down
    saved = {name: os.environ.get(name) for name in _BLAS_THREADS}
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=max_workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            collect(pool.map(_draw_rates, repeat(cfg), points, draws))
    finally:
        for name in _BLAS_THREADS:
            del os.environ[name]
        os.environ.update({name: value for name, value in saved.items() if value is not None})
    return out


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _format_field(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def emit_csv(table: list[dict], path: str) -> None:
    """RFC-4180 CSV with a header row, floats at 9 significant digits, LF endings."""
    lines = [",".join(CSV_COLUMNS)]
    for row in table:
        lines.append(",".join(_format_field(row[col]) for col in CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def selftest() -> int:
    """Quick oracle suite; prints one line per check, returns a shell status."""
    from ._kernels import e1_scaled, erfc, uplink, zf_apply
    from .numerics import bussgang_mu
    from .precoding import beta_zf_closed

    checks = []

    def check(name, ok):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    check("erfc(1) matches quadrature constant", abs(erfc(1.0) - 0.15729920705028513) < 1e-12)
    check("E1(1) = -Ei(-1) matches series constant",
          abs(math.exp(-1.0) * e1_scaled(1.0) - 0.21938393439552026) < 1e-10)
    check("mu(1) matches soft-limiter value", abs(bussgang_mu(1.0) - 0.6210639219293438) < 1e-9)

    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(0, spawn_key=(0,))))
    mis = HardwareMismatch.uniform(0.05, math.pi / 6)
    hw = draw_system_hardware(rng, 16, 4, mis, a_sat_for_ibo(10.0, 1.0, 16))
    h = draw_channels(rng, np.ones(4), np.empty((4, 16), complex))
    h_ul = uplink(h, hw.bs_rx, hw.ue_tx_gain)
    resid = np.linalg.norm(h_ul.T @ zf_apply(h_ul[None], 1.0)[0] - np.eye(4))
    check("ZF inversion residual < 1e-10", resid < 1e-10)

    ideal = draw_system_hardware(rng, 64, 8, HardwareMismatch.none(), 1e9,
                                 ue_pilot_amp=1e-9, a0=1.0)
    check("identity-hardware beta equals K/(M-K)",
          abs(beta_zf_closed(ideal, np.ones(8)) - 8 / 56) < 1e-12)

    # identity hardware over three blocks of surrogate draws: entries within
    # 1e-10 of I/sqrt(beta) put ES = a0 rho |mean H_kk|^2 within 2e-10 of
    # a0 rho/beta and MUI below 1e-18 of it; SI is a difference of two
    # ES-sized sums, so it is held only to 1e-12.  A common phase e^{j pi/3}
    # on every antenna rotates H_eq and must leave the terms alone.
    beta = beta_zf_closed(ideal, np.ones(8))
    n_draws = 2 * _block_draws(8, 64) + 1

    def identity_ok(terms):
        return all(abs(b.es * beta - 1.0) <= 2e-10 and b.mui * beta <= 1e-18
                   and b.si * beta <= 1e-12 for b in terms)

    mc = estimate_sindr_mc(ideal, np.ones(8), 1.0, 1.0, 1.0, n_draws, 1, "surrogate", rng)
    check("identity-hardware H_eq over 3 blocks equals I/sqrt(beta) within 1e-10",
          identity_ok(mc))
    c_stack = np.stack([np.ones(64), np.full(64, np.exp(1j * math.pi / 3))])
    mc = estimate_sindr_mc(ideal, np.ones(8), 1.0, 1.0, 1.0, n_draws, 1, "surrogate", rng,
                           c=c_stack)
    check("identity-hardware stack [1, e^{j pi/3}] meets the same bounds in both rows",
          all(identity_ok(row) for row in mc))
    # physical mode fits H_eq from 16 symbols sent through amplifiers that
    # stay linear (a_sat 1e9), over two precoder blocks and one more draw
    n_draws = 2 * _precoder_draws(8, 64) + 1
    mc = estimate_sindr_mc(ideal, np.ones(8), 1.0, 1.0, 1.0, n_draws, 16, "physical", rng)
    check("identity-hardware physical H_eq over 2 precoder blocks meets the same bounds",
          identity_ok(mc))

    model = TrueMismatch(hw)
    sigma_x = hw.sigma_x(1.0)
    res = slp_solve(model, sigma_x, 1.0, 2.0 * np.ones(16))
    power = float(np.sum(np.abs(res.c) ** 2 * sigma_x**2))
    check("SLP power constraint within 1e-9", power <= 1.0 + 1e-9)
    check("SLP converged", res.converged)

    # noiseless OTA training -> polynomial fit -> SLP + phases, every row
    plan = PilotPlan.for_hardware(hw, 7, 4)
    training = simulate_ota_training(hw, plan, draw_inter_antenna_channel(rng, 16), 0.0,
                                     "surrogate", rng)
    stack = calibration_stack(hw, plan, training, 5, 1.0)
    amps = np.abs(stack[1:])
    check("calibration stack finite, power within 1e-9 and caps met in every row",
          bool(np.all(np.isfinite(stack)) and np.all(amps**2 @ sigma_x**2 <= 1.0 + 1e-9)
               and np.all(amps <= plan.sigma_max / sigma_x + 1e-9)))

    print(f"{sum(checks)}/{len(checks)} checks passed")
    return 0 if all(checks) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mimo-recal",
                                     description="Nonlinear reciprocity-mismatch simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario described by a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--paper-scale", action="store_true",
                     help="use M=256, K=20 regardless of the config")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config entry (dotted keys reach params./mc./sweep.)")
    sub.add_parser("selftest", help="run the quick oracle suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return selftest()
    # --seed N and --paper-scale are the overrides seed=N and m=256, k=20
    sets = list(args.set)
    if args.seed is not None:
        sets.append(f"seed={args.seed}")
    if args.paper_scale:
        sets += ["m=256", "k=20"]
    cfg = load_config(args.config, sets)
    table = run_scenario(cfg)
    emit_csv(table, cfg.output_path)
    print(f"wrote {len(table)} rows to {cfg.output_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
