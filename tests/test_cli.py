"""Experiment runner: config handling, scenarios, CSV contract."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mimo_recal import cli


def _write_config(tmp_path, **overrides):
    cfg = {
        "scenario": "rate_vs_snr",
        "m": 16,
        "k": 2,
        "seed": 5,
        "mode": "surrogate",
        "sweep": {"param": "snr_db", "values": [0.0, 10.0]},
        "mc": {"n_hardware": 3, "n_channels": 100, "n_symbols": 16},
        "params": {"ibo_db": 10.0},
        "output_path": str(tmp_path / "out.csv"),
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestConfig:
    def test_load_and_validate(self, tmp_path):
        path, _ = _write_config(tmp_path)
        cfg = cli.load_config(str(path))
        assert cfg.scenario == "rate_vs_snr"
        assert cfg.sweep_values == (0.0, 10.0)
        assert cfg.n_hardware == 3

    def test_field_path_in_errors(self, tmp_path):
        path, _ = _write_config(tmp_path, scenario="bogus")
        with pytest.raises(cli.ConfigError, match="scenario"):
            cli.load_config(str(path))
        path, _ = _write_config(tmp_path, params={"nope": 1})
        with pytest.raises(cli.ConfigError, match="params.nope"):
            cli.load_config(str(path))
        path, _ = _write_config(tmp_path, m=4, k=8)
        with pytest.raises(cli.ConfigError, match="m/k"):
            cli.load_config(str(path))

    def test_overrides(self, tmp_path):
        path, _ = _write_config(tmp_path)
        cfg = cli.load_config(str(path))
        cfg = cli.apply_override(cfg, "params.ibo_db", "25")
        assert cfg.param("ibo_db") == 25
        cfg = cli.apply_override(cfg, "mc.n_hardware", "7")
        assert cfg.n_hardware == 7
        cfg = cli.apply_override(cfg, "sweep.values", "[5, 15]")
        assert cfg.sweep_values == (5, 15)
        with pytest.raises(cli.ConfigError):
            cli.apply_override(cfg, "nonsense", "1")


class TestCsv:
    def test_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli.emit_csv([], str(path))
        text = path.read_bytes().decode()
        assert text == ",".join(cli.CSV_COLUMNS) + "\n"

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        row = {"scenario": "rate_vs_snr", "sweep_param": "snr_db", "sweep_value": 1.0,
               "method": "ideal", "rate_mean": 1.23456789012, "rate_stderr": 0.0,
               "n_trials": 3}
        cli.emit_csv([row], str(path))
        lines = path.read_bytes().decode().split("\n")
        assert len(lines) == 3 and lines[2] == ""
        assert "\r" not in path.read_bytes().decode()

    def test_round_trip_nine_sig_figs(self, tmp_path):
        path = tmp_path / "rt.csv"
        value = math.pi * 1e-3
        row = {"scenario": "rate_vs_snr", "sweep_param": "snr_db", "sweep_value": value,
               "method": "mc", "rate_mean": value, "rate_stderr": value, "n_trials": 1}
        cli.emit_csv([row], str(path))
        data_line = path.read_text().splitlines()[1]
        parsed = data_line.split(",")
        for col in ("sweep_value", "rate_mean", "rate_stderr"):
            idx = cli.CSV_COLUMNS.index(col)
            assert f"{float(parsed[idx]):.9g}" == parsed[idx]


class TestScenarios:
    def test_rate_vs_snr_rows(self, tmp_path):
        path, raw = _write_config(tmp_path)
        cfg = cli.load_config(str(path))
        table = cli.run_scenario(cfg)
        methods = {r["method"] for r in table}
        assert methods == {"ideal", "closed_form", "mc", "lrm_closed"}
        assert len(table) == 2 * 4
        sweep_vals = [r["sweep_value"] for r in table]
        assert sweep_vals == sorted(sweep_vals)

    def test_ideal_single_point_value(self, tmp_path):
        path, _ = _write_config(tmp_path, sweep={"param": "snr_db", "values": [10.0]})
        cfg = cli.load_config(str(path))
        table = cli.run_scenario(cfg)
        ideal = [r for r in table if r["method"] == "ideal"][0]
        # unit path loss: R_ideal = log2(1 + (M-K)/K * snr)
        expected = math.log2(1.0 + 14.0 / 2.0 * 10.0)
        assert ideal["rate_mean"] == pytest.approx(expected, rel=1e-12)
        assert ideal["rate_stderr"] == 0.0

    def test_deterministic_reruns(self, tmp_path):
        path, _ = _write_config(tmp_path)
        cfg = cli.load_config(str(path))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cli.emit_csv(cli.run_scenario(cfg), str(out1))
        cli.emit_csv(cli.run_scenario(cfg), str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_calibration_scenario_methods(self, tmp_path):
        path, _ = _write_config(
            tmp_path, scenario="cal_rate_vs_snr",
            sweep={"param": "snr_db", "values": [15.0]}, m=8, k=2,
            mc={"n_hardware": 3, "n_channels": 60, "n_symbols": 8},
            params={"ibo_db": 10.0, "order": 3, "n_levels": 5})
        cfg = cli.load_config(str(path))
        table = cli.run_scenario(cfg)
        assert {r["method"] for r in table} == {"none", "linear_rc", "poly_nrc",
                                                "perfect_nrc"}
        for row in table:
            assert row["n_trials"] == 3
            assert np.isfinite(row["rate_mean"])

    def test_one_training_set_per_hardware_draw(self, tmp_path, monkeypatch):
        # linear_rc and poly_nrc calibrate from the same OTA pilots, and the
        # training is simulated once per hardware draw
        seen = {"simulated": [], "linear": [], "calibrate": []}
        simulate, linear, calibrate = (cli.simulate_ota_training, cli.linear_calibration,
                                       cli.calibrate)

        def spy_simulate(*args, **kwargs):
            seen["simulated"].append(simulate(*args, **kwargs))
            return seen["simulated"][-1]

        def spy_linear(training, c0):
            seen["linear"].append(training)
            return linear(training, c0)

        def spy_calibrate(hw, plan, training, *args, **kwargs):
            seen["calibrate"].append(training)
            return calibrate(hw, plan, training, *args, **kwargs)

        monkeypatch.setattr(cli, "simulate_ota_training", spy_simulate)
        monkeypatch.setattr(cli, "linear_calibration", spy_linear)
        monkeypatch.setattr(cli, "calibrate", spy_calibrate)
        n_hardware = 3
        path, _ = _write_config(
            tmp_path, scenario="cal_rate_vs_snr",
            sweep={"param": "snr_db", "values": [15.0]}, m=8, k=2,
            mc={"n_hardware": n_hardware, "n_channels": 20, "n_symbols": 8},
            params={"ibo_db": 10.0, "order": 3, "n_levels": 5})
        cli.run_scenario(cli.load_config(str(path)))

        assert len(seen["simulated"]) == n_hardware
        assert len(seen["linear"]) == len(seen["calibrate"]) == n_hardware
        for full, single, used in zip(seen["simulated"], seen["linear"], seen["calibrate"]):
            assert used is full
            assert single.x.shape[1] == 1 and np.shares_memory(single.y, full.y)
            assert any(np.array_equal(single.y, full.level(n).y)
                       for n in range(full.x.shape[1]))

    def test_order_zero_reduces_to_linear(self, tmp_path):
        path, _ = _write_config(
            tmp_path, scenario="cal_rate_vs_order",
            sweep={"param": "order", "values": [0]}, m=8, k=2,
            mc={"n_hardware": 2, "n_channels": 50, "n_symbols": 8},
            params={"ibo_db": 10.0, "n_levels": 5})
        cfg = cli.load_config(str(path))
        table = cli.run_scenario(cfg)
        by_method = {r["method"]: r for r in table}
        assert by_method["poly_nrc"]["rate_mean"] == pytest.approx(
            by_method["linear_rc"]["rate_mean"], rel=1e-12)


class TestEntryPoint:
    def test_run_subcommand_writes_csv(self, tmp_path):
        path, raw = _write_config(tmp_path, sweep={"param": "snr_db", "values": [10.0]})
        rc = cli.main(["run", "--config", str(path)])
        assert rc == 0
        assert os.path.exists(raw["output_path"])

    def test_seed_override_changes_output(self, tmp_path):
        path, raw = _write_config(tmp_path, sweep={"param": "snr_db", "values": [10.0]})
        cli.main(["run", "--config", str(path), "--seed", "5"])
        first = open(raw["output_path"], "rb").read()
        cli.main(["run", "--config", str(path), "--seed", "6"])
        second = open(raw["output_path"], "rb").read()
        assert first != second

    def test_selftest_passes(self):
        assert cli.selftest() == 0

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "mimo_recal.cli", "--help"],
                              capture_output=True, text=True)
        # argparse prints usage and exits 0 for --help via SystemExit
        assert proc.returncode == 0
        assert "mimo-recal" in proc.stdout


def test_thread_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("MIMO_RECAL_THREADS", "1")
    path, raw = _write_config(tmp_path)
    cfg = cli.load_config(str(path))
    table = cli.run_scenario(cfg)
    assert len(table) == 8
