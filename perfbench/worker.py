"""The measured process: runs one workload's sweep point in a closed loop.

    python3 perfbench/worker.py SPEC.json

SPEC holds ``config_path``, ``seconds``, ``trace`` and ``trace_path``.
Each point is ``cli.run_scenario`` on a one-value sweep
followed by ``cli.emit_csv``; the next point starts when the previous one has
returned.  Without tracing every point is timed plainly.  With tracing, the
first two thirds of the time run plain points and the last third runs traced
ones, so the traced run also yields the tracing overhead.  The reference
task of ``reference.py`` runs right before every point.  The last line of
stdout is a JSON object with the timings, every CSV the points wrote, what
the checks need from ``slp_solve`` and an ideal-hardware ZF estimate.  The
oracles that judge these run in the parent, so neither they nor scipy load
here.
"""

from __future__ import annotations

import inspect
import json
import resource
import statistics
import sys
import time
import warnings

import numpy as np

import reference
import tracer as tr

MIN_POINTS = 2  # per phase, so that repeatability is always checked


class SlpProbe:
    """Keeps, from every ``slp_solve`` call, what the constraint checks and
    the bisection oracle need; the first call on ``TrueMismatch`` is kept
    whole."""

    def __init__(self):
        self.records: list[dict] = []
        self.instance: dict | None = None

    def wrap(self, fn):
        sig = inspect.signature(fn)

        def probed(*args, **kwargs):
            res = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs).arguments
            sigma_x = np.asarray(bound["sigma_x"], dtype=np.float64)
            c_max = np.asarray(bound["c_max"], dtype=np.float64)
            rho_t = float(bound["rho_t"])
            c_abs = np.abs(np.asarray(res.c))
            self.records.append({
                "power": float(np.sum(c_abs**2 * sigma_x**2)),
                "rho_t": rho_t,
                "cap_excess": float(np.max(c_abs - c_max)),
            })
            model = bound["model"]
            if self.instance is None and type(model).__name__ == "TrueMismatch":
                hw = model.hw
                rx = getattr(hw, "bs_rx", None)
                rx = hw.r if rx is None else rx
                self.instance = {
                    "ratio_abs": np.abs(np.asarray(hw.t) / np.asarray(rx)).tolist(),
                    "a_sat": np.asarray(hw.a_sat, dtype=np.float64).tolist(),
                    "sigma_x": sigma_x.tolist(),
                    "c_max": c_max.tolist(),
                    "rho_t": rho_t,
                    "g0": float(res.g0),
                }
            return res

        return probed


def zf_ideal_estimate(cfg) -> dict:
    """``estimate_sindr_mc`` on identity hardware with an amplifier that never
    saturates; the parent checks SI = MUI = 0 and ES = a0 rho_t / beta."""
    from mimo_recal import analysis, hardware

    rng = np.random.default_rng(cfg.seed)
    a0, rho_t = 10.0, 1.0
    hw = hardware.draw_system_hardware(rng, cfg.m, cfg.k, hardware.HardwareMismatch.none(),
                                       1e9, ue_pilot_amp=1e-9, a0=a0)
    terms = analysis.estimate_sindr_mc(hw, np.ones(cfg.k), rho_t, a0, 1.0,
                                       min(cfg.n_channels, 64), cfg.n_symbols, cfg.mode, rng)
    return {"m": cfg.m, "k": cfg.k, "a0": a0, "rho_t": rho_t,
            "es": [t.es for t in terms], "si": [t.si for t in terms],
            "mui": [t.mui for t in terms]}


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)

    from mimo_recal import cli

    cfg = cli.load_config(spec["config_path"])
    if len(cfg.sweep_values) != 1:
        raise SystemExit("worker: a workload is one sweep point")

    probe = SlpProbe()
    slp = tr.resolve("calibration", "slp_solve")
    if slp is not None:
        tr.patch_everywhere(slp, probe.wrap(slp))

    def point():
        cli.emit_csv(cli.run_scenario(cfg), cfg.output_path)

    def written() -> str:
        with open(cfg.output_path, encoding="utf-8") as fh:
            return fh.read()

    tracer = tr.Tracer()
    seconds = float(spec["seconds"])
    phases = [("plain", seconds * 2 / 3), ("traced", seconds / 3)] if spec["trace"] \
        else [("plain", seconds)]
    times = {"plain": [], "traced": []}
    refs = {"plain": [], "traced": []}
    csvs: list[str] = []
    warn_counts: list[int] = []
    errors: list[str] = []
    attempted = 0
    absent: list[str] = []
    rss_mb = 0.0
    for phase, budget in phases:
        undo = []
        if phase == "traced":
            undo, absent = tr.install(tracer)
        began = time.perf_counter()
        try:
            while True:
                attempted += 1
                ref = reference.run()
                try:
                    if phase == "plain":
                        t0 = time.perf_counter()
                        point()
                        times[phase].append(time.perf_counter() - t0)
                    else:
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always")
                            root = tracer.start(tr.ROOT)
                            try:
                                point()
                            finally:
                                elapsed = tracer.stop(root)
                        times[phase].append(elapsed)
                        warn_counts.append(len(caught))
                    refs[phase].append(ref)
                    csvs.append(written())
                except Exception as exc:  # a failed point is counted, the loop goes on
                    errors.append(f"{type(exc).__name__}: {exc}")
                spent = time.perf_counter() - began
                done = times[phase]
                if len(done) >= MIN_POINTS and spent + statistics.median(done) > budget:
                    break
                if not done and spent > budget:
                    break
        finally:
            tr.unpatch(undo)
        if phase == "plain":
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "attempted": attempted,
        "errors": errors,
        "times": times,
        "refs": refs,
        "peak_rss_mb": rss_mb,
        "csvs": sorted(set(csvs)),
        "n_csvs": len(csvs),
        "slp_records": probe.records,
        "slp_instance": probe.instance,
        "zf_ideal": zf_ideal_estimate(cfg),
    }
    if spec["trace"]:
        spans = tracer.spans
        result["trace"] = {
            "aggregate": tr.aggregate(spans),
            "root_gap_max_s": max(tr.root_gaps(spans), default=0.0),
            "n_spans": len(spans),
            "absent": absent,
            "warnings": warn_counts,
        }
        with open(spec["trace_path"], "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
