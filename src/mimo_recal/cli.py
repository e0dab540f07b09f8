"""Experiment runner: scenario registry, config handling and CSV emission.

``mimo-recal run --config cfg.json [--paper-scale] [--seed N] [--set k=v]...``
reproduces the simulation studies at configurable scale.  Data goes to the CSV
only; progress and warnings go to stderr.  A sweep point is the
``ExperimentConfig`` with its swept parameter set.  Its hardware draw h reads
SFC64 on child h of the seed, and the calibration Monte Carlo child (h, 1), so
the points of a sweep share their hardware and channels.  MIMO_RECAL_THREADS
caps the pool of spawned workers, whose unit is one (point, hardware draw)
pair; no output depends on the worker layout, and a script that runs the pool
needs an ``if __name__ == "__main__":`` guard, as each worker imports its main
module.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .analysis import (
    estimate_sindr_mc,
    rate_from_sindr,
    sindr_zf_closed_all,
    sinr_linear_mismatch,
)
from .calibration import (
    CALIBRATION_METHODS,
    MAX_PSI_ORDER,
    PilotPlan,
    calibration_stack,
    draw_inter_antenna_channel,
    simulate_ota_training,
    # slp_solve is not called here: perfbench/tests/test_tracer.py checks
    # that the tracer rebinds this module's name for it
    slp_solve,  # noqa: F401
)
from .channel import draw_ue_pathloss
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


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of one experiment, checked on construction.  A sweep
    point is this record with its swept parameter set to the point's value."""

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
    output_path: str = "results.csv"
    # the model parameters (PARAMS), the only fields a sweep may vary
    snr_db: float = 10.0
    ibo_db: float = 10.0
    delta2: float = 0.05
    theta: float = math.pi / 6
    order: int = 5
    n_levels: int = 7
    n_symbols_train: int = 10
    train_noise_var: float = 0.0  # OTA receive noise variance, as a ratio to NOISE_VAR
    pathloss: str = "unit"

    def __post_init__(self):
        # a sweep over a name that no parameter has would write one value at
        # every point; swept values are numbers, and a path-loss law is a name
        if self.sweep_param not in PARAMS:
            raise ConfigError(f"sweep.param: unknown parameter {self.sweep_param!r}")
        if isinstance(getattr(ExperimentConfig, self.sweep_param), str):
            raise ConfigError(f"sweep.param: {self.sweep_param} takes no numbers, "
                              "so it cannot be swept")
        for name, key in CONFIG_KEYS.items():
            _check(name, getattr(self, name), key)
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        if not self.m > self.k >= 1:
            raise ConfigError(f"m/k: need m > k >= 1, got {self.m}/{self.k}")
        # the Monte Carlo's ZF beta is finite only for M > K + 1, and its
        # physical fit has a residual only for n_symbols > K
        if self.scenario != "loss_vs_mismatch":
            if self.m <= self.k + 1:
                raise ConfigError(f"m/k: {self.scenario} runs the Monte Carlo, which needs "
                                  f"m > k + 1, got {self.m}/{self.k}")
            if self.mode == "physical" and self.n_symbols <= self.k:
                raise ConfigError(f"mc.n_symbols: physical mode needs n_symbols > k = "
                                  f"{self.k}, got {self.n_symbols}")
        for value in self.sweep_values:
            _check(self.sweep_param, value, f"sweep.values ({self.sweep_param})")


PARAMS = ("snr_db", "ibo_db", "delta2", "theta", "order", "n_levels", "n_symbols_train",
          "train_noise_var", "pathloss")

# every field and its config key.  The file nests the dotted keys as sweep,
# mc and params objects, and --set takes them as written here.
CONFIG_KEYS = {
    "scenario": "scenario", "m": "m", "k": "k", "seed": "seed", "mode": "mode",
    "output_path": "output_path", "sweep_param": "sweep.param",
    "sweep_values": "sweep.values", "n_hardware": "mc.n_hardware",
    "n_channels": "mc.n_channels", "n_symbols": "mc.n_symbols",
    **{name: f"params.{name}" for name in PARAMS},
}

# the allowed values of a field, or its range as text and as a test
_RULES = {
    "scenario": SCENARIOS,
    "mode": ("surrogate", "physical"),
    "pathloss": ("unit", "drawn"),
    **dict.fromkeys(("k", "n_hardware", "n_channels", "n_symbols", "n_levels",
                     "n_symbols_train"), (">= 1", lambda v: v >= 1)),
    **dict.fromkeys(("seed", "delta2", "train_noise_var"), (">= 0", lambda v: v >= 0)),
    "order": (f"in [0, {MAX_PSI_ORDER}]", lambda v: 0 <= v <= MAX_PSI_ORDER),
    "theta": ("in [0, pi]", lambda v: 0 <= v <= math.pi),
}


def _check(name: str, value, key: str) -> None:
    """The value check of field ``name``, with errors under ``key``: one of
    its allowed values in ``_RULES``, or the type of its default (a string, a
    non-empty list of numbers, an integer or a finite number) and then its
    range in ``_RULES``."""
    rule = _RULES.get(name)
    if rule is not None and not callable(rule[1]):
        if value not in rule:
            raise ConfigError(f"{key}: unknown value {value!r} (allowed: {', '.join(rule)})")
        return
    # a dataclass field's class attribute is its default
    default = getattr(ExperimentConfig, name)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, str):
        ok, kind = isinstance(value, str), "a string"
    elif isinstance(default, tuple):
        ok = isinstance(value, (list, tuple)) and value and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        kind = "a non-empty list of numbers"
    elif isinstance(default, int):
        ok, kind = number and isinstance(value, int), "an integer"
    else:  # a NaN fails the comparison
        ok, kind = number and -math.inf < value < math.inf, "a finite number"
    if not ok:
        raise ConfigError(f"{key}: must be {kind}, got {value!r}")
    if rule is not None and not rule[1](value):
        raise ConfigError(f"{key}: must be {rule[0]}, got {value!r}")


def load_config(path: str, sets=()) -> ExperimentConfig:
    """The config of a JSON file with ``KEY=VALUE`` overrides, validated once:
    the file's sweep, mc and params objects are flattened to dotted keys, the
    overrides set theirs (a value text that is not JSON is a string), and
    each key sets its field in ``CONFIG_KEYS``."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must hold a JSON object")
    entries: dict = {}
    for key, value in data.items():
        if key in ("sweep", "mc", "params"):
            if not isinstance(value, dict):
                raise ConfigError(f"{key}: must be an object, got {value!r}")
            entries.update({f"{key}.{sub}": item for sub, item in value.items()})
        elif "." in key:
            raise ConfigError(f"{key}: unknown key (the file nests it as an object)")
        else:
            entries[key] = value
    for text in sets:
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {text!r}")
        try:
            entries[key] = json.loads(value)
        except json.JSONDecodeError:
            entries[key] = value
    for key in entries:
        if key not in CONFIG_KEYS.values():
            if key.startswith("params."):
                raise ConfigError(f"{key}: unknown parameter")
            top = ", ".join(k for k in CONFIG_KEYS.values() if not k.startswith("params."))
            raise ConfigError(f"{key}: unknown key (allowed: {top}, params.<name>)")
    if "scenario" not in entries:
        raise ConfigError("scenario: missing")
    # swept values mean nothing without their parameter, and the reverse
    for key, other in (("sweep.param", "sweep.values"), ("sweep.values", "sweep.param")):
        if other in entries and key not in entries:
            raise ConfigError(f"{key}: missing (a sweep sets sweep.param and sweep.values)")
    return ExperimentConfig(**{name: entries[key] for name, key in CONFIG_KEYS.items()
                               if key in entries})


# ---------------------------------------------------------------------------
# per-draw simulation
# ---------------------------------------------------------------------------


def _mean_rate(sindr) -> float:
    return float(np.mean([rate_from_sindr(s) for s in sindr]))


def _draw_rates(cfg: ExperimentConfig, h: int) -> dict:
    """Mean rate of each method, in row order, for hardware draw ``h`` of the
    sweep point ``cfg``.  The draw reads SFC64 on child h of the config seed,
    and the calibration Monte Carlo child (h, 1), so every sweep point sees
    the same hardware and channels whatever the training length and worker
    layout: the rows of a sweep are common-random-number comparisons."""
    rho_t = 10.0 ** (cfg.snr_db / 10.0) * NOISE_VAR / A0
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(cfg.seed, spawn_key=(h,))))
    phi = draw_ue_pathloss(rng, cfg.k) if cfg.pathloss == "drawn" else np.ones(cfg.k)
    mismatch = HardwareMismatch.uniform(cfg.delta2, cfg.theta)
    hw = draw_system_hardware(rng, cfg.m, cfg.k, mismatch,
                              a_sat_for_ibo(cfg.ibo_db, rho_t, cfg.m), a0=A0)
    mc_args = (hw, phi, rho_t, A0, NOISE_VAR, cfg.n_channels, cfg.n_symbols, cfg.mode)
    if cfg.scenario.startswith("cal_"):
        omega = draw_inter_antenna_channel(rng, cfg.m)
        # n_levels is held to the identifiability floor of the polynomial fit
        plan = PilotPlan.for_hardware(hw, max(cfg.n_levels, cfg.order + 2), cfg.n_symbols_train)
        # one training set, shared by linear_rc and poly_nrc and freed before
        # the Monte Carlo, which scores every method on the same channel draws
        stack = calibration_stack(
            hw, simulate_ota_training(hw, plan, omega, cfg.train_noise_var * NOISE_VAR,
                                      cfg.mode, rng),
            cfg.order, rho_t)
        mc_rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(cfg.seed,
                                                                            spawn_key=(h, 1))))
        scored = estimate_sindr_mc(*mc_args, mc_rng, c=stack)
        return {name: _mean_rate(b.sindr for b in row)
                for name, row in zip(CALIBRATION_METHODS, scored)}

    closed = sindr_zf_closed_all(hw, phi, rho_t, NOISE_VAR)
    rates = {"closed_form": _mean_rate(b.sindr for b in closed)}
    if cfg.scenario != "loss_vs_mismatch":
        rates["mc"] = _mean_rate(b.sindr for b in estimate_sindr_mc(*mc_args, rng))
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
    point-major order; a worker gets the point's config itself."""
    n = len(cfg.sweep_values)
    workers = os.environ.get("MIMO_RECAL_THREADS", "").strip()
    if workers and not (workers.isdecimal() and int(workers) >= 1):
        raise ConfigError(f"MIMO_RECAL_THREADS: need an integer >= 1, got {workers!r}")
    # each sweep point is built once and scored on every hardware draw
    points = [point for value in cfg.sweep_values
              for point in [replace(cfg, **{cfg.sweep_param: value})] * cfg.n_hardware]
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
        collect(map(_draw_rates, points, draws))
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
            collect(pool.map(_draw_rates, points, draws))
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
