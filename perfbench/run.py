#!/usr/bin/env python3
"""The mimo-recal benchmark: single sweep points through ``cli.run_scenario``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the library is imported from
``src/``.  One run measures set-up time in fresh interpreters, then runs the
workload's point in a closed loop in one child process for S seconds, with
``MIMO_RECAL_THREADS=1`` and one BLAS thread.  The oracles then check every
output in this process.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
``--smoke`` runs every workload and every check at tiny sizes in seconds.
See perfbench/README.md for the metrics, their expected movers and the
reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """A run that cannot produce a result (no source, a child that died)."""


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    env["MIMO_RECAL_THREADS"] = "1"
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(script: str, arg: Path, timeout: float) -> str:
    """Run ``perfbench/<script> arg`` to completion; its last stdout line."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), str(arg)], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return lines[-1]


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for module, function, work, _ in tracer.TARGETS:
        prefix = tracer.metric_prefix(module, function)
        names += [(f"{prefix}.calls", "count"), (f"{prefix}.s", "s")]
        if prefix in tracer.SELF_TIME:
            names.append((f"{prefix}.self_s", "s"))
        if work:
            names.append((f"{prefix}.{work}", "count"))
    names += [("cli.warnings", "count"), ("trace.point_s", "s"), ("trace.overhead_s", "s"),
              ("trace.unattributed_s", "s"), ("trace.spans", "count"),
              ("trace.absent", "count")]
    return names


def layer_metrics(trace: dict, times: dict, refs: dict) -> dict[str, float]:
    """Per-layer values per traced point from the worker's span aggregate."""
    n = len(times["traced"])
    agg = trace["aggregate"]
    values = {}
    for module, function, work, _ in tracer.TARGETS:
        prefix = tracer.metric_prefix(module, function)
        row = agg.get(prefix, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        values[f"{prefix}.calls"] = row["calls"] / n
        values[f"{prefix}.s"] = row["s"] / n
        values[f"{prefix}.self_s"] = row["self_s"] / n
        if work:
            values[f"{prefix}.{work}"] = row["work"] / n
    traced = statistics.median(times["traced"])
    values.update({
        "cli.warnings": sum(trace["warnings"]) / n,
        "trace.point_s": traced,
        "trace.overhead_s": statistics.median(reference.rescaled(times["traced"], refs["traced"]))
        - statistics.median(reference.rescaled(times["plain"], refs["plain"])),
        "trace.unattributed_s": agg[tracer.ROOT]["self_s"] / n,
        "trace.spans": trace["n_spans"] / n,
        "trace.absent": len(trace["absent"]),
    })
    return {name: values[name] for name, _ in layer_metric_names()}


def check(cfg: dict, res: dict, trace: bool) -> list[str]:
    """Every check of one run; an empty list means correct."""
    errors = []
    for text in res["csvs"]:
        errors += oracles.check_point(cfg, text)
    if len(res["csvs"]) > 1:
        errors.append(f"{res['n_csvs']} points with one seed wrote {len(res['csvs'])} "
                      "different CSVs")
    if res["n_csvs"] < 2:
        errors.append("fewer than two points succeeded; repeatability is unchecked")
    errors += oracles.check_slp(res["slp_records"], res["slp_instance"],
                                required=cfg["scenario"].startswith("cal_"))
    errors += oracles.check_zf_ideal(res["zf_ideal"])
    if trace:
        gap = res["trace"]["root_gap_max_s"]
        if gap > 1e-6:
            errors.append(f"span self times miss the traced point time by {gap:.3g} s")
    return errors


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object that is printed."""
    began = time.monotonic()
    if not (SRC / "mimo_recal" / "__init__.py").is_file():
        raise BenchError(f"no library source under {SRC}; run from a source checkout")
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}" + ("-smoke" if smoke else "")
    cfg = workloads.config(workload, seed, str(OUT / f"{tag}.csv"), smoke)
    cfg_path = OUT / f"{tag}.config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    setup, setup_refs = [], []
    for _ in range(0 if trace else 2 if smoke else SETUP_PROBES):
        setup_refs.append(reference.run())
        setup.append(float(run_child("probe.py", cfg_path, 60.0)))

    spec_path = OUT / f"{tag}.spec.json"
    spec_path.write_text(json.dumps({
        "config_path": str(cfg_path), "seconds": seconds, "trace": trace,
        # one trace file per workload: a physical trace is tens of MB
        "trace_path": str(OUT / f"{workload}{'-smoke' if smoke else ''}.trace.jsonl"),
    }), encoding="utf-8")
    res = json.loads(run_child("worker.py", spec_path,
                               TIME_LIMIT_S - (time.monotonic() - began)))

    phases = ("plain", "traced") if trace else ("plain",)
    if not all(res["times"][phase] for phase in phases):
        raise BenchError(f"no {workload} point succeeded: {res['errors'][:3]}")
    errors = check(cfg, res, trace)
    for msg in res["errors"]:
        print(f"{workload}: point failed: {msg}", file=sys.stderr)
    for msg in errors:
        print(f"{workload}: check failed: {msg}", file=sys.stderr)
    if trace:
        for name in res["trace"]["absent"]:
            print(f"{workload}: {name} is absent from the library; reported as 0 calls",
                  file=sys.stderr)
        values = layer_metrics(res["trace"], res["times"], res["refs"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layer_metric_names()}
    else:
        plain, refs = res["times"]["plain"], res["refs"]["plain"]
        print(f"{workload}: wall medians: set-up {statistics.median(setup):.4f} s, point "
              f"{statistics.median(plain):.4f} s, reference task "
              f"{statistics.median(setup_refs + refs):.4f} s", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(reference.rescaled(setup, setup_refs)),
                        "unit": "s"},
            "point_s": {"value": statistics.median(reference.rescaled(plain, refs)),
                        "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not errors, "attempted": res["attempted"],
            "failed": len(res["errors"]), "metrics": metrics}


def smoke() -> int:
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            out = measure(name, 1, 0.0, trace, smoke=True)
            good = out["correct"] and out["failed"] == 0
            ok &= good
            print(f"{'PASS' if good else 'FAIL'}  {name} trace={int(trace)} "
                  f"attempted={out['attempted']} failed={out['failed']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload and check at tiny sizes")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
