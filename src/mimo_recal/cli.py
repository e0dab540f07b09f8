"""Experiment runner: scenario registry, config handling and CSV emission.

``mimo-recal run --config cfg.json [--paper-scale] [--seed N] [--set k=v]...``
reproduces the simulation studies at configurable scale; ``mimo-recal
selftest`` runs a quick oracle suite.  Data goes to the CSV only; progress and
warnings go to stderr.  MIMO_RECAL_THREADS caps the worker pool.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import (
    estimate_sindr_mc,
    rate_from_sindr,
    sindr_zf_closed_all,
    sinr_linear_mismatch,
)
from .calibration import (
    PilotPlan,
    TrueMismatch,
    calibrate,
    calibration_phases,
    draw_inter_antenna_channel,
    linear_calibration,
    simulate_ota_training,
    slp_solve,
)
from .channel import CellGeometry, draw_ue_pathloss
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

DEFAULT_PARAMS = {
    "a0_db": 10.0,
    "noise_var": 1.0,
    "snr_db": 10.0,
    "ibo_db": 10.0,
    "delta2": 0.05,
    "theta": math.pi / 6,
    "order": 5,
    "n_levels": 7,
    "n_symbols_train": 10,
    "train_noise_var": 0.0,
    "pathloss": "unit",  # "unit" or "drawn"
    "cal_c0": 1.0,
}


class ConfigError(ValueError):
    pass


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
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: unknown value {self.scenario!r}")
        if not self.m > self.k >= 1:
            raise ConfigError(f"m/k: need m > k >= 1, got {self.m}/{self.k}")
        if self.mode not in ("surrogate", "physical"):
            raise ConfigError(f"mode: unknown value {self.mode!r}")
        if len(self.sweep_values) < 1:
            raise ConfigError("sweep_values: at least one point required")
        for key in self.params:
            if key not in DEFAULT_PARAMS:
                raise ConfigError(f"params.{key}: unknown parameter")

    def param(self, name: str):
        return self.params.get(name, DEFAULT_PARAMS[name])

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        sweep = data.pop("sweep", None)
        if sweep is not None:
            data["sweep_param"] = sweep["param"]
            data["sweep_values"] = tuple(sweep["values"])
        mc = data.pop("mc", None)
        if mc is not None:
            data["n_hardware"] = int(mc.get("n_hardware", 20))
            data["n_channels"] = int(mc.get("n_channels", 1000))
            data["n_symbols"] = int(mc.get("n_symbols", 256))
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "sweep_values" in data:
            data["sweep_values"] = tuple(data["sweep_values"])
        return cls(**data)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def apply_override(cfg: ExperimentConfig, key: str, value: str) -> ExperimentConfig:
    """Apply one --set override; dotted keys reach params/mc entries."""

    def parse(text: str):
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return text

    if key.startswith("params."):
        params = dict(cfg.params)
        params[key.split(".", 1)[1]] = parse(value)
        return replace(cfg, params=params)
    if key.startswith("sweep."):
        sub = key.split(".", 1)[1]
        if sub == "param":
            return replace(cfg, sweep_param=value)
        if sub == "values":
            return replace(cfg, sweep_values=tuple(np.atleast_1d(parse(value)).tolist()))
        raise ConfigError(f"unknown sweep field {sub!r}")
    if key.startswith("mc."):
        sub = {"n_hardware": "n_hardware", "n_channels": "n_channels",
               "n_symbols": "n_symbols"}.get(key.split(".", 1)[1])
        if sub is None:
            raise ConfigError(f"unknown mc field {key!r}")
        return replace(cfg, **{sub: int(parse(value))})
    if key not in cfg.__dataclass_fields__:
        raise ConfigError(f"unknown config field {key!r}")
    val = parse(value)
    if key == "sweep_values":
        val = tuple(np.atleast_1d(val).tolist())
    return replace(cfg, **{key: val})


# ---------------------------------------------------------------------------
# per-point simulation
# ---------------------------------------------------------------------------


def _point_setup(cfg: ExperimentConfig, sweep_value: float) -> dict:
    p = {name: cfg.param(name) for name in DEFAULT_PARAMS}
    p[cfg.sweep_param] = sweep_value
    p["a0"] = 10.0 ** (p["a0_db"] / 10.0)
    p["rho_t"] = 10.0 ** (p["snr_db"] / 10.0) * p["noise_var"] / p["a0"]
    return p


def _draw_phi(rng, cfg, p):
    if p["pathloss"] == "drawn":
        return draw_ue_pathloss(rng, cfg.k, CellGeometry())
    return np.ones(cfg.k)


def _mean_rate(breakdowns) -> float:
    return float(np.mean([rate_from_sindr(b.sindr) for b in breakdowns]))


def _scale_to_power(c: np.ndarray, sigma_x: np.ndarray, rho_t: float,
                    c_max: np.ndarray) -> np.ndarray:
    """Rescale a coefficient vector to the full power budget, then cap."""
    c = np.asarray(c, dtype=np.complex128)
    c = c * math.sqrt(rho_t / float(np.sum(np.abs(c) ** 2 * sigma_x**2)))
    amp = np.minimum(np.abs(c), c_max)
    return amp * np.exp(1j * np.angle(c))


def _analysis_point(cfg: ExperimentConfig, sweep_value, seed_seq) -> list[dict]:
    """rate_vs_snr / rate_vs_ibo / loss_vs_mismatch point."""
    p = _point_setup(cfg, sweep_value)
    mismatch = HardwareMismatch.uniform(p["delta2"], p["theta"])
    a_sat = a_sat_for_ibo(p["ibo_db"], p["rho_t"], cfg.m)
    want_mc = cfg.scenario != "loss_vs_mismatch"

    closed, mc, ideal, lrm = [], [], [], []
    for child in seed_seq.spawn(cfg.n_hardware):
        rng = np.random.default_rng(child)
        phi = _draw_phi(rng, cfg, p)
        hw = draw_system_hardware(rng, cfg.m, cfg.k, mismatch, a_sat)
        tr_phi_inv2 = float(np.sum(1.0 / phi**2))
        closed.append(_mean_rate(sindr_zf_closed_all(hw, phi, p["rho_t"], p["a0"], p["noise_var"])))
        ideal.append(math.log2(1.0 + (cfg.m - cfg.k) / tr_phi_inv2 * p["rho_t"] * p["a0"] / p["noise_var"]))
        lrm.append(float(np.mean([
            rate_from_sindr(sinr_linear_mismatch(
                cfg.m, cfg.k, p["rho_t"], p["a0"], phi[i], tr_phi_inv2,
                p["delta2"], p["delta2"], p["delta2"], p["theta"], p["theta"],
                p["noise_var"]))
            for i in range(cfg.k)
        ])))
        if want_mc:
            mc.append(_mean_rate(estimate_sindr_mc(
                hw, phi, p["rho_t"], p["a0"], p["noise_var"], cfg.n_channels,
                cfg.n_symbols, cfg.mode, rng)))

    rows = [_row(cfg, sweep_value, "closed_form", closed),
            _row(cfg, sweep_value, "ideal", ideal),
            _row(cfg, sweep_value, "lrm_closed", lrm)]
    if want_mc:
        rows.insert(1, _row(cfg, sweep_value, "mc", mc))
    return rows


def _calibration_point(cfg: ExperimentConfig, sweep_value, seed_seq) -> list[dict]:
    p = _point_setup(cfg, sweep_value)
    order = int(p["order"])
    n_levels = int(p["n_levels"])
    if n_levels < order + 2:
        n_levels = order + 2  # identifiability floor for the polynomial fit
    mismatch = HardwareMismatch.uniform(p["delta2"], p["theta"])
    a_sat = a_sat_for_ibo(p["ibo_db"], p["rho_t"], cfg.m)

    rates = {"none": [], "linear_rc": [], "poly_nrc": [], "perfect_nrc": []}
    for child in seed_seq.spawn(cfg.n_hardware):
        rng = np.random.default_rng(child)
        phi = _draw_phi(rng, cfg, p)
        hw = draw_system_hardware(rng, cfg.m, cfg.k, mismatch, a_sat)
        omega = draw_inter_antenna_channel(rng, cfg.m)
        plan = PilotPlan.for_hardware(hw, n_levels, int(p["n_symbols_train"]))
        sigma_x = hw.sigma_x(p["rho_t"])
        c_max = plan.sigma_max / sigma_x

        def mc_rate(c):
            return _mean_rate(estimate_sindr_mc(
                hw, phi, p["rho_t"], p["a0"], p["noise_var"], cfg.n_channels,
                cfg.n_symbols, cfg.mode, rng, c=c))

        rates["none"].append(mc_rate(None))

        # one training set per hardware draw, shared by linear_rc and poly_nrc
        training = simulate_ota_training(hw, plan, omega, p["train_noise_var"], cfg.mode, rng)
        # conventional single-power calibration uses the pilot level closest
        # to the data-phase operating amplitude
        op_amp = float(np.mean(sigma_x))
        level = int(np.argmin([abs(plan.amplitude(0, n) - op_amp) for n in range(plan.n_levels)]))
        c_lin = linear_calibration(training.level(level), p["cal_c0"])
        rates["linear_rc"].append(mc_rate(_scale_to_power(c_lin, sigma_x, p["rho_t"], c_max)))

        if cfg.scenario == "cal_rate_vs_order" and order == 0:
            # order 0 is the conventional single-power calibration
            rates["poly_nrc"].append(rates["linear_rc"][-1])
        else:
            res = calibrate(hw, plan, training, order, p["rho_t"], strict=False)
            rates["poly_nrc"].append(mc_rate(res.c))

        true_model = TrueMismatch(hw)
        res_p = slp_solve(true_model, sigma_x, p["rho_t"], c_max, strict=False)
        amps = np.abs(res_p.c)
        c_perf = amps * np.exp(1j * calibration_phases(true_model, amps, sigma_x))
        rates["perfect_nrc"].append(mc_rate(c_perf))

    return [_row(cfg, sweep_value, name, vals) for name, vals in rates.items()]


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


def _run_point(args) -> tuple[int, list[dict]]:
    cfg_dict, index = args
    cfg = ExperimentConfig.from_dict(cfg_dict)
    sweep_value = cfg.sweep_values[index]
    # one deterministic stream per sweep point regardless of worker layout
    seed_seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(index,))
    if cfg.scenario in ("rate_vs_snr", "rate_vs_ibo", "loss_vs_mismatch"):
        rows = _analysis_point(cfg, sweep_value, seed_seq)
    else:
        rows = _calibration_point(cfg, sweep_value, seed_seq)
    return index, rows


def _cfg_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "scenario": cfg.scenario, "m": cfg.m, "k": cfg.k, "seed": cfg.seed,
        "mode": cfg.mode, "sweep_param": cfg.sweep_param,
        "sweep_values": tuple(cfg.sweep_values), "n_hardware": cfg.n_hardware,
        "n_channels": cfg.n_channels, "n_symbols": cfg.n_symbols,
        "params": dict(cfg.params), "output_path": cfg.output_path,
    }


def run_scenario(cfg: ExperimentConfig) -> list[dict]:
    """Run every sweep point and return rows sorted by sweep index."""
    jobs = [(_cfg_to_dict(cfg), i) for i in range(len(cfg.sweep_values))]
    workers = os.environ.get("MIMO_RECAL_THREADS", "")
    max_workers = int(workers) if workers.strip() else min(len(jobs), os.cpu_count() or 1)
    results: dict[int, list[dict]] = {}
    if max_workers <= 1 or len(jobs) == 1:
        for job in jobs:
            idx, rows = _run_point(job)
            results[idx] = rows
            print(f"done point {idx + 1}/{len(jobs)}", file=sys.stderr)
    else:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            for idx, rows in pool.map(_run_point, jobs):
                results[idx] = rows
                print(f"done point {idx + 1}/{len(jobs)}", file=sys.stderr)
    out = []
    for i in range(len(jobs)):
        out.extend(results[i])
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
    from .numerics import bussgang_mu, erfc, exp_integral_ei
    from .precoding import beta_zf_closed, zf_precoder

    checks = []

    def check(name, ok):
        checks.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    check("erfc(1) matches quadrature constant", abs(erfc(1.0) - 0.15729920705028513) < 1e-12)
    check("Ei(-1) matches series constant", abs(exp_integral_ei(-1.0) + 0.21938393439552026) < 1e-10)
    check("mu(1) matches soft-limiter value", abs(bussgang_mu(1.0) - 0.6210639219293438) < 1e-9)

    rng = np.random.default_rng(0)
    mis = HardwareMismatch.uniform(0.05, math.pi / 6)
    hw = draw_system_hardware(rng, 16, 4, mis, a_sat_for_ibo(10.0, 1.0, 16))
    from .channel import draw_channel, uplink_channel

    ch = draw_channel(rng, 16, np.ones(4))
    h_ul = uplink_channel(ch, hw)
    prec = zf_precoder(h_ul, 1.0)
    resid = np.linalg.norm(h_ul.T @ prec.w - np.eye(4))
    check("ZF inversion residual < 1e-10", resid < 1e-10)

    ideal = draw_system_hardware(rng, 64, 8, HardwareMismatch.none(), 1e9,
                                 ue_pilot_amp=1e-9)
    check("identity-hardware beta equals K/(M-K)",
          abs(beta_zf_closed(ideal, np.ones(8)) - 8 / 56) < 1e-12)

    model = TrueMismatch(hw)
    sigma_x = hw.sigma_x(1.0)
    res = slp_solve(model, sigma_x, 1.0, 2.0 * np.ones(16))
    power = float(np.sum(np.abs(res.c) ** 2 * sigma_x**2))
    check("SLP power constraint within 1e-9", power <= 1.0 + 1e-9)
    check("SLP converged", res.converged)

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
    cfg = load_config(args.config)
    for override in args.set:
        if "=" not in override:
            raise ConfigError(f"--set expects KEY=VALUE, got {override!r}")
        cfg = apply_override(cfg, *override.split("=", 1))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.paper_scale:
        cfg = replace(cfg, m=256, k=20)
    table = run_scenario(cfg)
    emit_csv(table, cfg.output_path)
    print(f"wrote {len(table)} rows to {cfg.output_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
