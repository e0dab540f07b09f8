"""BENCHMARK.json against the harness, the smoke mode, and the refusal to run
without the library source."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_lists_what_the_harness_reports():
    bench = spec()
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.layer_metric_names()
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "point_s", "peak_rss_mb"]
    setup = bench["end_to_end"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"]) <= 0.25


def test_smoke_mode_passes_every_check():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2 * len(workloads.WORKLOADS)
    assert all(line.startswith("PASS") for line in lines)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "physical",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_absent_functions_report_zero():
    trace = {"aggregate": {"bench.point": {"calls": 2, "s": 3.0, "self_s": 0.5, "work": 0},
                           "cli.run_scenario": {"calls": 2, "s": 2.5, "self_s": 2.5,
                                                "work": 0}},
             "warnings": [1, 3], "n_spans": 4, "absent": ["calibration.slp_solve"]}
    nominal = reference.NOMINAL_S
    values = run.layer_metrics(trace, {"plain": [1.0, 1.2, 1.1], "traced": [1.5, 1.5]},
                               {"plain": [nominal] * 3, "traced": [2 * nominal] * 2})
    assert list(values) == [name for name, _ in run.layer_metric_names()]
    assert values["calibration.slp_solve.calls"] == 0
    assert values["calibration.slp_solve.iterations"] == 0
    assert values["cli.run_scenario.calls"] == 1 and values["cli.run_scenario.s"] == 1.25
    assert values["cli.warnings"] == 2
    assert values["trace.point_s"] == 1.5
    assert values["trace.overhead_s"] == pytest.approx(0.75 - 1.1)
    assert values["trace.unattributed_s"] == 0.25
    assert values["trace.absent"] == 1


def test_rescaling_cancels_a_common_slowdown():
    times, refs = [1.0, 2.0], [reference.NOMINAL_S, 2 * reference.NOMINAL_S]
    assert reference.rescaled(times, refs) == [1.0, 1.0]
    assert reference.run() > 0
