"""Experiment runner: config handling, scenarios, CSV contract."""

import dataclasses
import json
import math
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

from mimo_recal import calibration, cli
from mimo_recal.analysis import draw_ue_pathloss
from mimo_recal.hardware import HardwareMismatch, a_sat_for_ibo, draw_system_hardware
from tests.conftest import package_env


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

    @pytest.mark.parametrize("scenario", [s for s in cli.SCENARIOS if s != "loss_vs_mismatch"])
    def test_monte_carlo_needs_m_above_k_plus_one(self, tmp_path, scenario):
        # M = K + 1 passed the check and then failed inside the run, on the
        # Monte Carlo's closed-form beta
        path, _ = _write_config(tmp_path, scenario=scenario, m=3, k=2)
        with pytest.raises(cli.ConfigError, match=r"^m/k: .*m > k \+ 1, got 3/2"):
            cli.load_config(str(path))
        assert cli.load_config(str(path), ["m=4"]).m == 4

    def test_closed_form_scenario_runs_at_m_k_plus_one(self, tmp_path):
        path, _ = _write_config(tmp_path, scenario="loss_vs_mismatch", m=3, k=2,
                                sweep={"param": "delta2", "values": [0.05]})
        table = cli.run_scenario(cli.load_config(str(path)))
        assert [r["method"] for r in table] == ["closed_form", "ideal", "lrm_closed"]

    @pytest.mark.parametrize("mc, field", [
        ({"n_hardware": 0, "n_channels": 100, "n_symbols": 16}, "mc.n_hardware"),
        ({"n_hardware": 3, "n_channels": 0, "n_symbols": 16}, "mc.n_channels"),
        ({"n_hardware": 3, "n_channels": 100, "n_symbols": -3}, "mc.n_symbols"),
    ])
    def test_empty_monte_carlo_rejected(self, tmp_path, mc, field):
        # an empty Monte Carlo would write NaN rows with n_trials 0, and
        # n_symbols = -3 loaded and ran in surrogate mode
        path, _ = _write_config(tmp_path, mc=mc)
        with pytest.raises(cli.ConfigError, match=field):
            cli.load_config(str(path))

    @pytest.mark.parametrize("value", ["drwan", "Drawn", None, 1])
    def test_unknown_pathloss_rejected(self, tmp_path, value):
        # any value but "drawn" used to run silently with unit path loss
        path, _ = _write_config(tmp_path, params={"pathloss": value})
        with pytest.raises(cli.ConfigError, match="params.pathloss.*unit, drawn"):
            cli.load_config(str(path))

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, "1.0"])
    def test_bad_train_noise_var_rejected(self, tmp_path, value):
        path, _ = _write_config(tmp_path, scenario="cal_rate_vs_snr")
        with pytest.raises(cli.ConfigError, match="params.train_noise_var"):
            cli.load_config(str(path), [f"params.train_noise_var={json.dumps(value)}"])
        assert cli.load_config(str(path), ["params.train_noise_var=0"]).train_noise_var == 0
        path, _ = _write_config(tmp_path, params={"train_noise_var": value})
        with pytest.raises(cli.ConfigError, match="params.train_noise_var"):
            cli.load_config(str(path))

    @pytest.mark.parametrize("param", ["snr_dB", "rho_t", *(
        f.name for f in dataclasses.fields(cli.ExperimentConfig) if f.name not in cli.PARAMS)])
    def test_unknown_sweep_param_rejected(self, tmp_path, param):
        # a sweep over "snr_dB" wrote the same rate at every point; a sweep
        # point is the config with the swept field set, so only the model
        # parameters may be swept, not m or seed
        path, _ = _write_config(tmp_path, sweep={"param": param, "values": [0.0, 20.0]})
        with pytest.raises(cli.ConfigError, match="sweep.param"):
            cli.load_config(str(path))
        path, _ = _write_config(tmp_path)
        with pytest.raises(cli.ConfigError, match="sweep.param"):
            cli.load_config(str(path), [f"sweep.param={param}"])

    @pytest.mark.parametrize("param, values", [
        ("train_noise_var", [0.0, -1.0]), ("train_noise_var", [math.nan]),
        ("train_noise_var", [math.inf]), ("pathloss", [1.0]), ("pathloss", ["drawn"]),
    ])
    def test_swept_values_checked_as_params(self, tmp_path, param, values):
        # swept values used to skip the params checks and fail only at run
        # time; pathloss takes no numbers, so its sweep is refused whatever
        # the values are
        path, _ = _write_config(tmp_path, scenario="cal_rate_vs_snr",
                                sweep={"param": param, "values": values})
        key = "sweep.param" if param == "pathloss" else "sweep.values"
        with pytest.raises(cli.ConfigError, match=f"^{key}"):
            cli.load_config(str(path))
        path, _ = _write_config(tmp_path, scenario="cal_rate_vs_snr",
                                sweep={"param": "train_noise_var", "values": [0.0, 0.01]})
        assert cli.load_config(str(path)).sweep_values == (0.0, 0.01)

    @pytest.mark.parametrize("entries, sets, key", [
        ({"scenario": "cal_rate_vs_order", "sweep": {"param": "order", "values": [2.7]}}, [],
         "sweep.values"),
        ({"sweep": {"param": "n_levels", "values": [7, 7.5]}}, [], "sweep.values"),
        ({}, ['params.ibo_db="8"'], "params.ibo_db"),
        ({}, ["params.n_levels=true"], "params.n_levels"),
        ({}, ["params.order=3.0"], "params.order"),
        ({}, ["params.n_symbols_train=null"], "params.n_symbols_train"),
        ({}, ["params.snr_db=NaN"], "params.snr_db"),
        # a0 is no parameter any more: a0_db is rejected as unknown
        ({}, ["params.a0_db=-Infinity"], "params.a0_db"),
        ({}, ["params.delta2=[0.05]"], "params.delta2"),
        ({"sweep": {"param": "theta", "values": [0.5, math.inf]}}, [], "sweep.values"),
    ])
    def test_param_type_follows_its_default(self, tmp_path, entries, sets, key):
        # order 2.7 ran order 2 under the label 2.7, a string ibo_db failed in
        # the worker with a bare TypeError, and n_levels=true ran as 1
        path, _ = _write_config(tmp_path, **entries)
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(key)}"):
            cli.load_config(str(path), sets)

    def test_param_types_accepted(self, tmp_path):
        # an integer is a number; an integer parameter takes integers
        path, _ = _write_config(tmp_path, scenario="cal_rate_vs_order",
                                sweep={"param": "order", "values": [2, 3]})
        cfg = cli.load_config(str(path), ["params.ibo_db=8", "params.n_levels=6",
                                          "params.theta=0.5"])
        assert cfg.sweep_values == (2, 3)
        assert (cfg.ibo_db, cfg.n_levels, cfg.theta) == (8, 6, 0.5)

    def test_physical_symbols_must_exceed_k(self, tmp_path):
        # n_symbols <= k leaves the physical least-squares fit no residual
        mc = {"n_hardware": 3, "n_channels": 100, "n_symbols": 2}
        path, _ = _write_config(tmp_path, mode="physical", mc=mc)
        with pytest.raises(cli.ConfigError, match="mc.n_symbols"):
            cli.load_config(str(path))
        path, _ = _write_config(tmp_path, mc=mc)
        assert cli.load_config(str(path)).n_symbols == 2
        # loss_vs_mismatch runs no Monte Carlo, so the floor does not apply
        path, _ = _write_config(tmp_path, scenario="loss_vs_mismatch", mode="physical", mc=mc,
                                sweep={"param": "delta2", "values": [0.05]})
        assert cli.load_config(str(path)).n_symbols == 2

    def test_overrides(self, tmp_path):
        path, _ = _write_config(tmp_path)
        cfg = cli.load_config(str(path), ["params.ibo_db=25", "mc.n_hardware=7",
                                          "sweep.values=[5, 15]", "params.pathloss=drawn"])
        assert cfg.ibo_db == 25 and cfg.pathloss == "drawn"
        assert cfg.n_hardware == 7 and cfg.n_channels == 100
        assert cfg.sweep_values == (5, 15)
        with pytest.raises(cli.ConfigError, match="^nonsense: unknown key"):
            cli.load_config(str(path), ["nonsense=1"])
        with pytest.raises(cli.ConfigError, match="--set expects KEY=VALUE"):
            cli.load_config(str(path), ["mc.n_hardware"])

    @pytest.mark.parametrize("entries, sets, key", [
        ({"n_channels": 5, "mc": {"n_hardware": 3}}, [], "n_channels"),
        ({"mc": {"n_chanels": 5}}, [], "mc.n_chanels"),
        ({}, ["mc.n_chanels=5"], "mc.n_chanels"),
        ({"sweep": {"param": "snr_db", "values": [0.0], "step": 5}}, [], "sweep.step"),
        ({"mc.n_channels": 5}, [], "mc.n_channels"),
        ({}, ["mc.n_channels=7.9"], "mc.n_channels"),
        ({}, ["n_channels=7.9"], "n_channels"),
        ({}, ["mc.n_hardware=true"], "mc.n_hardware"),
        ({}, ["params=5"], "params"),
        ({"params": None}, [], "params"),
        ({"sweep": [1, 2]}, [], "sweep"),
        ({"mc": 5}, [], "mc"),
        ({"m": "64"}, [], "m"),
        ({"sweep": {"values": [0.0, 10.0]}}, [], "sweep.param"),
        ({"sweep": {"param": "snr_db"}}, [], "sweep.values"),
        ({}, ["sweep.values=5"], "sweep.values"),
        ({"seed": 1.5}, [], "seed"),
        ({"seed": -1}, [], "seed"),
        ({"output_path": 3}, [], "output_path"),
        ({}, ["params.noise_var=0"], "params.noise_var"),
        ({}, ["params.noise_var=-1"], "params.noise_var"),
        ({}, ["params.order=25"], "params.order"),
        ({}, ["params.order=-1"], "params.order"),
        ({}, ["params.n_levels=0"], "params.n_levels"),
        ({}, ["params.n_symbols_train=0"], "params.n_symbols_train"),
        ({}, ["params.delta2=-0.1"], "params.delta2"),
        ({}, ["params.theta=7"], "params.theta"),
        ({}, ["params.theta=-0.5"], "params.theta"),
        ({"scenario": "cal_rate_vs_order", "sweep": {"param": "order", "values": [3, 21]}},
         [], "sweep.values (order)"),
        ({"scenario": "cal_rate_vs_snr",
          "sweep": {"param": "train_noise_var", "values": [0.5, -1.0]}}, [],
         "sweep.values (train_noise_var)"),
        ({"mode": "bogus"}, [], "mode"),
    ])
    def test_bad_entry_names_its_key(self, tmp_path, entries, sets, key):
        # each of these used to run with a silently dropped or truncated
        # value, to fail with a bare TypeError or KeyError, or to fail only
        # mid-run with an error that did not name the key
        path, _ = _write_config(tmp_path, **entries)
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(key)}:"):
            cli.load_config(str(path), sets)

    @pytest.mark.parametrize("flat, value", [
        ("sweep_param", "snr_db"), ("sweep_values", [0.0]), ("n_hardware", 3),
        ("n_channels", 5), ("n_symbols", 16)])
    def test_flat_spellings_rejected(self, tmp_path, flat, value):
        path, _ = _write_config(tmp_path, **{flat: value})
        with pytest.raises(cli.ConfigError, match=f"^{flat}: unknown key"):
            cli.load_config(str(path))
        path, _ = _write_config(tmp_path)
        with pytest.raises(cli.ConfigError, match=f"^{flat}: unknown key"):
            cli.load_config(str(path), [f"{flat}={json.dumps(value)}"])

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "must hold a JSON object"),
        ('{"m": 16, "k": 2}', "scenario: missing"),
    ])
    def test_file_needs_an_object_with_a_scenario(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(str(path))

    @pytest.mark.parametrize("name", ["a0_db", "noise_var"])
    def test_removed_params_are_unknown(self, tmp_path, name):
        # every rate depends on a0 and the noise variance only through
        # snr_db, so neither is a parameter, whether set or swept
        path, _ = _write_config(tmp_path, params={name: 10.0})
        with pytest.raises(cli.ConfigError, match=f"^params.{name}: unknown parameter"):
            cli.load_config(str(path))
        path, _ = _write_config(tmp_path, sweep={"param": name, "values": [1.0, 2.0]})
        with pytest.raises(cli.ConfigError, match=f"^sweep.param: unknown parameter '{name}'"):
            cli.load_config(str(path))
        assert len(cli.PARAMS) == 9 and name not in cli.PARAMS

    def test_params_must_be_an_object(self, tmp_path):
        # a file or --set cannot give params a non-object
        path, _ = _write_config(tmp_path, params=5)
        with pytest.raises(cli.ConfigError, match="^params: must be an object, got 5"):
            cli.load_config(str(path))
        path, _ = _write_config(tmp_path)
        with pytest.raises(cli.ConfigError, match="^params: unknown key"):
            cli.load_config(str(path), ["params=5"])

    def test_sweep_overrides_in_any_order(self, tmp_path):
        # -5 is no train_noise_var: validating after each override rejected
        # sweep.param when it came before sweep.values
        path, _ = _write_config(tmp_path, scenario="cal_rate_vs_snr",
                                sweep={"param": "snr_db", "values": [-5.0, 10.0]})
        sets = ["sweep.param=train_noise_var", "sweep.values=[0, 0.01]"]
        cfg = cli.load_config(str(path), sets)
        assert cli.load_config(str(path), sets[::-1]) == cfg
        assert (cfg.sweep_param, cfg.sweep_values) == ("train_noise_var", (0, 0.01))

    def test_config_pickles(self, tmp_path):
        # sweep workers receive the config itself
        cfg = cli.load_config(str(_write_config(tmp_path)[0]))
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_every_field_has_one_config_key(self, tmp_path):
        # a field without a key could not be set, and two keys for one field
        # would let a file set it twice; each key sets its own field only
        names = [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
        assert sorted(cli.CONFIG_KEYS) == sorted(names) and len(names) == 20
        assert len(set(cli.CONFIG_KEYS.values())) == len(names)
        path, _ = _write_config(tmp_path)
        cfg = cli.load_config(str(path))
        other = {"scenario": "rate_vs_ibo", "mode": "physical", "output_path": "other.csv",
                 "sweep_param": "ibo_db", "sweep_values": [1.0], "pathloss": "drawn"}
        for name, key in cli.CONFIG_KEYS.items():
            value = other[name] if name in other else getattr(cfg, name) + 1
            got = cli.load_config(str(path), [f"{key}={json.dumps(value)}"])
            assert got == dataclasses.replace(cfg, **{name: value}) != cfg, key

    @pytest.mark.parametrize("name", cli.PARAMS)
    def test_every_param_can_be_swept(self, tmp_path, name):
        path, _ = _write_config(tmp_path, scenario="cal_rate_vs_snr")
        if name == "pathloss":
            # swept values are numbers, and no number is a path-loss law: the
            # parameter is refused, where every value of it was before
            with pytest.raises(cli.ConfigError,
                               match=r"^sweep.param: pathloss takes no numbers, so it cannot "
                                     r"be swept"):
                cli.load_config(str(path), ["sweep.param=pathloss"])
            assert cli.load_config(str(path), ["params.pathloss=drawn"]).pathloss == "drawn"
            return
        value = getattr(cli.ExperimentConfig, name)
        cfg = cli.load_config(str(path), [f"sweep.param={name}", f"sweep.values=[{value}]"])
        assert (cfg.sweep_param, cfg.sweep_values) == (name, (value,))


# for every model parameter: a tiny run where it must matter, its scenario,
# the other params it needs, and two values.  n_symbols_train matters only
# with training noise, and n_levels only above the order + 2 floor.
_PARAM_EFFECT_CASES = {
    "snr_db": ("rate_vs_snr", {}, (0.0, 20.0)),
    "ibo_db": ("rate_vs_ibo", {}, (3.0, 10.0)),
    "delta2": ("loss_vs_mismatch", {}, (0.01, 0.1)),
    "theta": ("loss_vs_mismatch", {}, (0.1, 0.5)),
    "order": ("cal_rate_vs_order", {"n_levels": 6}, (2, 3)),
    "n_levels": ("cal_rate_vs_snr", {"order": 3}, (5, 7)),
    "n_symbols_train": ("cal_rate_vs_snr", {"order": 3, "train_noise_var": 0.5}, (4, 10)),
    "train_noise_var": ("cal_rate_vs_snr", {"order": 3}, (0.0, 0.5)),
    "pathloss": ("rate_vs_snr", {}, ("unit", "drawn")),
}


def test_every_param_has_an_effect_case():
    assert set(_PARAM_EFFECT_CASES) == set(cli.PARAMS)


@pytest.mark.parametrize("name", sorted(_PARAM_EFFECT_CASES))
def test_every_param_moves_some_row(tmp_path, name):
    # a parameter that no row depends on is a setting that does nothing
    scenario, params, values = _PARAM_EFFECT_CASES[name]
    rates = []
    for value in values:
        # the sweep axis of every case is snr_db, at one point
        snr = value if name == "snr_db" else 5.0
        path, _ = _write_config(
            tmp_path, scenario=scenario, m=8, k=2, sweep={"param": "snr_db", "values": [snr]},
            mc={"n_hardware": 2, "n_channels": 10, "n_symbols": 16},
            params={"ibo_db": 5.0, **params, name: value})
        rates.append([r["rate_mean"] for r in cli.run_scenario(cli.load_config(str(path)))])
    assert rates[0] != rates[1]


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

    def test_calibration_rows_at_large_back_off(self, tmp_path):
        # at 40 dB the SLP's first point, 1e-3 of the cap, exceeds the power
        # budget on its own
        path, _ = _write_config(
            tmp_path, scenario="cal_rate_vs_snr", seed=1,
            sweep={"param": "snr_db", "values": [10.0]}, m=8, k=2,
            mc={"n_hardware": 2, "n_channels": 40, "n_symbols": 8},
            params={"ibo_db": 40.0})
        table = cli.run_scenario(cli.load_config(str(path)))
        assert [r["method"] for r in table] == list(cli.CALIBRATION_METHODS)
        assert all(np.isfinite(r["rate_mean"]) for r in table)

    def test_one_training_set_per_hardware_draw(self, tmp_path, monkeypatch):
        # linear_rc and poly_nrc calibrate from the same OTA pilots, and the
        # training is simulated once per hardware draw
        seen = {"simulated": [], "linear": [], "calibrate": []}
        simulate, linear, calibrate = (cli.simulate_ota_training,
                                       calibration.linear_calibration, calibration.calibrate)

        def spy_simulate(*args, **kwargs):
            seen["simulated"].append(simulate(*args, **kwargs))
            return seen["simulated"][-1]

        def spy_linear(training, level):
            seen["linear"].append((training, level))
            return linear(training, level)

        def spy_calibrate(hw, training, *args, **kwargs):
            seen["calibrate"].append(training)
            return calibrate(hw, training, *args, **kwargs)

        monkeypatch.setattr(cli, "simulate_ota_training", spy_simulate)
        monkeypatch.setattr(calibration, "linear_calibration", spy_linear)
        monkeypatch.setattr(calibration, "calibrate", spy_calibrate)
        n_hardware = 3
        path, _ = _write_config(
            tmp_path, scenario="cal_rate_vs_snr",
            sweep={"param": "snr_db", "values": [15.0]}, m=8, k=2,
            mc={"n_hardware": n_hardware, "n_channels": 20, "n_symbols": 8},
            params={"ibo_db": 10.0, "order": 3, "n_levels": 5})
        cli.run_scenario(cli.load_config(str(path)))

        assert len(seen["simulated"]) == len(seen["calibrate"]) == n_hardware
        # two linear calibrations per draw: the linear_rc row, then the
        # top-level scale of calibrate's anchored fit
        assert len(seen["linear"]) == 2 * n_hardware
        for i, (full, used) in enumerate(zip(seen["simulated"], seen["calibrate"])):
            (row, level), (fit, top) = seen["linear"][2 * i:2 * i + 2]
            assert used is full and row is full and fit is full
            assert 0 <= level < full.plan.n_levels and top == full.plan.n_levels - 1

    def test_one_monte_carlo_call_per_hardware_draw(self, tmp_path, monkeypatch):
        # the four methods of one hardware draw are scored on the same
        # channel draws: one estimate_sindr_mc call with a (4, M) stack
        seen = {"estimate": [], "linear": [], "calibrate": [], "slp": []}
        estimate, linear, calibrate, slp = (cli.estimate_sindr_mc,
                                            calibration.linear_calibration,
                                            calibration.calibrate, calibration.slp_solve)

        def spy_estimate(*args, c=None, **kwargs):
            seen["estimate"].append(np.array(c))
            return estimate(*args, c=c, **kwargs)

        def spy_linear(*args, **kwargs):
            seen["linear"].append(linear(*args, **kwargs))
            return seen["linear"][-1]

        def spy_calibrate(*args, **kwargs):
            seen["calibrate"].append(calibrate(*args, **kwargs))
            return seen["calibrate"][-1]

        def spy_slp(*args, **kwargs):
            seen["slp"].append(slp(*args, **kwargs))
            return seen["slp"][-1]

        monkeypatch.setattr(cli, "estimate_sindr_mc", spy_estimate)
        monkeypatch.setattr(calibration, "slp_solve", spy_slp)
        monkeypatch.setattr(calibration, "linear_calibration", spy_linear)
        monkeypatch.setattr(calibration, "calibrate", spy_calibrate)
        n_hardware, m = 3, 8
        path, _ = _write_config(
            tmp_path, scenario="cal_rate_vs_snr",
            sweep={"param": "snr_db", "values": [15.0]}, m=m, k=2,
            mc={"n_hardware": n_hardware, "n_channels": 20, "n_symbols": 8},
            params={"ibo_db": 10.0, "order": 3, "n_levels": 5})
        table = cli.run_scenario(cli.load_config(str(path)))

        assert [r["method"] for r in table] == ["none", "linear_rc", "poly_nrc", "perfect_nrc"]
        assert len(seen["estimate"]) == n_hardware
        # two SLP solves per draw: the fitted polynomial model inside
        # calibrate, then the true mismatch functions
        assert len(seen["slp"]) == 2 * n_hardware
        for c, c_lin, res, res_p in zip(seen["estimate"], seen["linear"][0::2],
                                        seen["calibrate"], seen["slp"][1::2]):
            assert c.shape == (4, m)
            assert np.array_equal(c[0], np.ones(m))
            # linear_rc is c_lin rescaled to the power budget: same phases
            assert np.allclose(np.angle(c[1] / c_lin), 0.0, atol=1e-12)
            assert np.array_equal(c[2], res.c)
            # perfect_nrc takes the SLP amplitudes with calibration phases
            assert np.allclose(np.abs(c[3]), np.abs(res_p.c), rtol=1e-14, atol=0.0)

    def test_lrm_closed_scores_the_drawn_law(self, tmp_path, monkeypatch):
        # lrm_closed is the linear-mismatch SINR under the law the hardware
        # is drawn from, and ideal is the same SINR under the zero law
        drawn, scored = [], []
        draw, linear = cli.draw_system_hardware, cli.sinr_linear_mismatch

        def spy_draw(rng, m, k, dists, *args, **kwargs):
            drawn.append(dists)
            return draw(rng, m, k, dists, *args, **kwargs)

        def spy_linear(m, rho_t, a0, phi, mismatch, noise_var):
            scored.append(mismatch)
            return linear(m, rho_t, a0, phi, mismatch, noise_var)

        monkeypatch.setattr(cli, "draw_system_hardware", spy_draw)
        monkeypatch.setattr(cli, "sinr_linear_mismatch", spy_linear)
        path, _ = _write_config(tmp_path, sweep={"param": "snr_db", "values": [10.0]},
                                mc={"n_hardware": 1, "n_channels": 10, "n_symbols": 16},
                                params={"ibo_db": 10.0, "delta2": 0.02, "theta": 0.4})
        table = cli.run_scenario(cli.load_config(str(path)))

        assert [r["method"] for r in table] == ["closed_form", "mc", "ideal", "lrm_closed"]
        assert len(drawn) == 1 and len(scored) == 2
        ideal, lrm_closed = scored
        assert ideal == HardwareMismatch.none()
        assert lrm_closed is drawn[0]
        assert lrm_closed == HardwareMismatch.uniform(0.02, 0.4)

    @pytest.mark.parametrize("scenario", ["rate_vs_snr", "cal_rate_vs_snr"])
    def test_one_sfc64_stream_per_hardware_draw(self, tmp_path, monkeypatch, scenario):
        # hardware draw h of every sweep point reads SFC64 on child h of the
        # config seed: path loss first, then the hardware
        seen = []
        estimate = cli.estimate_sindr_mc

        def spy_estimate(hw, phi, *args, **kwargs):
            seen.append((hw, phi))
            return estimate(hw, phi, *args, **kwargs)

        monkeypatch.setattr(cli, "estimate_sindr_mc", spy_estimate)
        seed, n_hardware, m, k, snrs = 7, 3, 8, 2, (0.0, 20.0)
        path, _ = _write_config(
            tmp_path, scenario=scenario, seed=seed, m=m, k=k,
            sweep={"param": "snr_db", "values": list(snrs)},
            mc={"n_hardware": n_hardware, "n_channels": 10, "n_symbols": 8},
            params={"ibo_db": 10.0, "order": 3, "n_levels": 5, "pathloss": "drawn"})
        cfg = cli.load_config(str(path))
        cli.run_scenario(cfg)

        assert len(seen) == len(snrs) * n_hardware
        children = np.random.SeedSequence(seed).spawn(n_hardware)
        mismatch = HardwareMismatch.uniform(cfg.delta2, cfg.theta)
        bases = [a_sat_for_ibo(10.0, 10.0 ** (snr / 10.0) / cli.A0, m) for snr in snrs]
        for i, base in enumerate(bases):
            for h, child in enumerate(children):
                rng = np.random.Generator(np.random.SFC64(child))
                phi = draw_ue_pathloss(rng, k)
                want = draw_system_hardware(rng, m, k, mismatch, base, a0=cli.A0)
                hw, got_phi = seen[i * n_hardware + h]
                assert np.array_equal(got_phi, phi)
                for name in ("t", "a_sat", "bs_rx", "ue_tx_gain", "ue_rx"):
                    assert np.array_equal(getattr(hw, name), getattr(want, name)), (i, h, name)
                assert hw.a0 == want.a0
        # both sweep points see the same hardware; only the saturation level
        # follows the SNR
        for (hw0, phi0), (hw1, phi1) in zip(seen[:n_hardware], seen[n_hardware:]):
            assert np.array_equal(phi0, phi1)
            for name in ("t", "bs_rx", "ue_tx_gain", "ue_rx"):
                assert np.array_equal(getattr(hw0, name), getattr(hw1, name))
            assert np.allclose(hw1.a_sat * bases[0], hw0.a_sat * bases[1], rtol=1e-15, atol=0)

    def test_theta_sweep_through_zero_shares_hardware(self, tmp_path, monkeypatch):
        # a gain law with theta = 0 skipped its phase draws, so every later
        # role of that hardware draw read other stream positions
        seen = []
        closed = cli.sindr_zf_closed_all

        def spy_closed(hw, phi, *args):
            seen.append((hw, phi))
            return closed(hw, phi, *args)

        monkeypatch.setattr(cli, "sindr_zf_closed_all", spy_closed)
        n_hardware = 3
        path, _ = _write_config(
            tmp_path, scenario="loss_vs_mismatch", seed=3, m=16, k=2,
            sweep={"param": "theta", "values": [0.0, 0.3]},
            mc={"n_hardware": n_hardware, "n_channels": 10, "n_symbols": 16},
            params={"delta2": 0.05, "pathloss": "drawn"})
        cli.run_scenario(cli.load_config(str(path)))

        assert len(seen) == 2 * n_hardware
        for (hw0, phi0), (hw1, phi1) in zip(seen[:n_hardware], seen[n_hardware:]):
            assert np.array_equal(phi0, phi1)
            # |amp e^{j phase}| is amp to within rounding
            for name in ("t", "bs_rx", "ue_rx", "ue_tx_gain"):
                assert np.allclose(np.abs(getattr(hw0, name)), np.abs(getattr(hw1, name)),
                                   rtol=1e-15, atol=0), name
            assert np.array_equal(hw0.a_sat, hw1.a_sat)

    def test_training_length_leaves_untrained_rows(self, tmp_path):
        # the calibration Monte Carlo reads its own child stream, so the OTA
        # training, whose length follows n_symbols_train, moves no row that
        # uses no training
        path, _ = _write_config(
            tmp_path, scenario="cal_rate_vs_snr", seed=3, m=8, k=2,
            sweep={"param": "n_symbols_train", "values": [4, 10]},
            mc={"n_hardware": 2, "n_channels": 10, "n_symbols": 16},
            params={"snr_db": 5.0, "ibo_db": 5.0, "order": 3})
        table = cli.run_scenario(cli.load_config(str(path)))
        rows = {(r["sweep_value"], r["method"]): r["rate_mean"] for r in table}
        for method in ("none", "perfect_nrc"):
            assert rows[4.0, method] == rows[10.0, method], method

    @pytest.mark.parametrize("scenario, mode, param, values", [
        ("rate_vs_snr", "surrogate", "snr_db", [0.0, 20.0]),
        ("rate_vs_snr", "physical", "snr_db", [0.0, 20.0]),
        ("rate_vs_ibo", "surrogate", "ibo_db", [3.0, 10.0]),
        ("cal_rate_vs_snr", "surrogate", "snr_db", [5.0, 15.0]),
    ])
    def test_sweep_rows_are_one_point_runs(self, tmp_path, scenario, mode, param, values):
        # common random numbers: every row of a sweep is byte-identical to the
        # row of a one-point run at that value
        path, _ = _write_config(
            tmp_path, scenario=scenario, mode=mode, m=8, k=2,
            sweep={"param": param, "values": values},
            mc={"n_hardware": 3, "n_channels": 10, "n_symbols": 16},
            params={"ibo_db": 10.0, "order": 3, "n_levels": 5})

        def data_lines(sets):
            cfg = cli.load_config(str(path), sets)
            cli.emit_csv(cli.run_scenario(cfg), cfg.output_path)
            return (tmp_path / "out.csv").read_text().splitlines()[1:]

        sweep = data_lines([])
        points = [line for v in values for line in data_lines([f"sweep.values=[{v}]"])]
        assert sweep and sweep == points

    def test_physical_calibration_reruns_identical(self, tmp_path):
        path, _ = _write_config(
            tmp_path, scenario="cal_rate_vs_snr", mode="physical",
            sweep={"param": "snr_db", "values": [15.0]}, m=8, k=2,
            mc={"n_hardware": 2, "n_channels": 6, "n_symbols": 16},
            params={"ibo_db": 10.0, "order": 3, "n_levels": 5})
        cfg = cli.load_config(str(path))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.emit_csv(cli.run_scenario(cfg), str(out1))
        cli.emit_csv(cli.run_scenario(cfg), str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        assert [line.split(",")[3] for line in out1.read_text().splitlines()[1:]] == [
            "none", "linear_rc", "poly_nrc", "perfect_nrc"]

    @pytest.mark.parametrize("scenario", ["rate_vs_snr", "cal_rate_vs_snr"])
    def test_physical_rates_do_not_depend_on_a0(self, tmp_path, monkeypatch, scenario):
        # rho_t = SNR noise_var / a0 and the amplifiers carry a0, so every
        # rate sees a0 only through rounding; physical mode once drew the
        # hardware with a0 = 10 whatever a0 the rates used
        rows = []
        for a0 in (10.0, 100.0):
            monkeypatch.setattr(cli, "A0", a0)
            path, _ = _write_config(
                tmp_path, scenario=scenario, mode="physical",
                sweep={"param": "snr_db", "values": [20.0]}, m=8, k=2,
                mc={"n_hardware": 2, "n_channels": 10, "n_symbols": 16},
                params={"ibo_db": 3.0, "order": 3, "n_levels": 5})
            rows.append(cli.run_scenario(cli.load_config(str(path))))
        for low, high in zip(*rows):
            assert low["method"] == high["method"]
            assert high["rate_mean"] == pytest.approx(low["rate_mean"], rel=1e-12)

    @pytest.mark.parametrize("mode", ["surrogate", "physical"])
    def test_noisy_training_rows_do_not_depend_on_a0(self, tmp_path, monkeypatch, mode):
        # the pilots go through the data's transmit chain, so at a fixed
        # snr_db = a0 rho_t / noise_var, with the training noise a fixed
        # ratio to noise_var, a noisy calibration point writes the same bytes
        # whatever a0 and noise_var are; pilots that carried a0 where the
        # data carries sqrt(a0) gained training SNR with a0
        path, _ = _write_config(
            tmp_path, scenario="cal_rate_vs_snr", mode=mode,
            sweep={"param": "snr_db", "values": [0.0]}, m=8, k=2,
            mc={"n_hardware": 2, "n_channels": 10, "n_symbols": 16},
            params={"ibo_db": 5.0, "order": 3, "n_levels": 5, "train_noise_var": 0.5})
        out = []
        for a0, noise_var in ((10.0, 1.0), (100.0, 1.0), (10.0, 4.0)):
            monkeypatch.setattr(cli, "A0", a0)
            monkeypatch.setattr(cli, "NOISE_VAR", noise_var)
            cli.emit_csv(cli.run_scenario(cli.load_config(str(path))), str(tmp_path / "out.csv"))
            out.append((tmp_path / "out.csv").read_bytes())
        assert out[1] == out[0] and out[2] == out[0]

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

    def test_run_is_the_only_subcommand(self, capsys):
        # the oracle checks live in the test suite, not in the library
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["selftest"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "{run}" in out and "selftest" not in out
        assert not hasattr(cli, "selftest")

    def test_paper_scale_overrides_m_and_k(self, tmp_path, monkeypatch):
        # --paper-scale wins over --set; the spy keeps the run off paper scale
        seen = []
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: seen.append(cfg) or [])
        path, _ = _write_config(tmp_path)
        assert cli.main(["run", "--config", str(path), "--set", "m=16", "--paper-scale"]) == 0
        assert [(cfg.m, cfg.k) for cfg in seen] == [(256, 20)]

    def test_module_run_matches_in_process(self, tmp_path):
        # the module run shares its pairs out to two spawned workers, which
        # import the module's guarded main
        path, _ = _write_config(tmp_path)
        args = ["run", "--config", str(path), "--set", "mc.n_channels=20",
                "--set", "sweep.values=[0,10]"]
        here, there = tmp_path / "here.csv", tmp_path / "there.csv"
        assert cli.main([*args, "--set", f"output_path={here}"]) == 0
        proc = subprocess.run([sys.executable, "-m", "mimo_recal.cli", *args,
                               "--set", f"output_path={there}"],
                              capture_output=True, text=True,
                              env={**package_env(), "MIMO_RECAL_THREADS": "2"})
        assert proc.returncode == 0, proc.stderr
        assert there.read_bytes() == here.read_bytes()
        assert len(here.read_text().splitlines()) == 1 + 2 * 4

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "mimo_recal.cli", "--help"],
                              capture_output=True, text=True, env=package_env())
        # argparse prints usage and exits 0 for --help via SystemExit
        assert proc.returncode == 0
        assert "mimo-recal" in proc.stdout


def test_thread_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("MIMO_RECAL_THREADS", "1")
    path, raw = _write_config(tmp_path)
    cfg = cli.load_config(str(path))
    table = cli.run_scenario(cfg)
    assert len(table) == 8


def test_process_pool_matches_serial(tmp_path, monkeypatch):
    path, _ = _write_config(tmp_path, sweep={"param": "snr_db", "values": [0.0, 10.0, 20.0]})
    cfg = cli.load_config(str(path))
    for threads in ("1", "2"):
        monkeypatch.setenv("MIMO_RECAL_THREADS", threads)
        cli.emit_csv(cli.run_scenario(cfg), str(tmp_path / f"{threads}.csv"))
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


@pytest.mark.parametrize("scenario, mode", [
    ("rate_vs_snr", "surrogate"),
    ("rate_vs_snr", "physical"),
    ("cal_rate_vs_snr", "surrogate"),
])
def test_pool_over_draws_matches_serial(tmp_path, monkeypatch, scenario, mode):
    # the pool's unit is one (sweep point, hardware draw) pair, so a
    # one-point run is shared out too, with the bytes of a serial run
    path, _ = _write_config(
        tmp_path, scenario=scenario, mode=mode, m=8, k=2,
        sweep={"param": "snr_db", "values": [15.0]},
        mc={"n_hardware": 4, "n_channels": 10, "n_symbols": 16},
        params={"ibo_db": 10.0, "order": 3, "n_levels": 5, "pathloss": "drawn"})
    cfg = cli.load_config(str(path))
    for threads in ("1", "2"):
        monkeypatch.setenv("MIMO_RECAL_THREADS", threads)
        cli.emit_csv(cli.run_scenario(cfg), str(tmp_path / f"{threads}.csv"))
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "2",
                                        "MKL_NUM_THREADS": "4"}])
def test_pool_workers_get_one_blas_thread(tmp_path, monkeypatch, preset):
    # a worker that kept the BLAS library's own threads oversubscribed the
    # cores; the caller's settings come back after the pool, set or unset,
    # and the pool has no more workers than pairs
    import concurrent.futures

    seen = []
    executor = concurrent.futures.ProcessPoolExecutor

    def spy_executor(*args, **kwargs):
        seen.append(({name: os.environ.get(name) for name in cli._BLAS_THREADS},
                     kwargs["max_workers"], kwargs["mp_context"].get_start_method()))
        return executor(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy_executor)
    for name in cli._BLAS_THREADS:
        monkeypatch.delenv(name, raising=False)
    for name, value in preset.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setenv("MIMO_RECAL_THREADS", "4")
    path, _ = _write_config(tmp_path, sweep={"param": "snr_db", "values": [10.0]},
                            mc={"n_hardware": 2, "n_channels": 10, "n_symbols": 16})
    assert len(cli.run_scenario(cli.load_config(str(path)))) == 4
    assert seen == [(dict.fromkeys(cli._BLAS_THREADS, "1"), 2, "spawn")]
    assert {name: os.environ.get(name) for name in cli._BLAS_THREADS} == {
        name: preset.get(name) for name in cli._BLAS_THREADS}


@pytest.mark.parametrize("value", ["0", "-1", "two", "1.5"])
def test_bad_thread_env_rejected(tmp_path, monkeypatch, value):
    # int() raised a bare ValueError, and 0 or below ran serially
    monkeypatch.setenv("MIMO_RECAL_THREADS", value)
    cfg = cli.load_config(str(_write_config(tmp_path)[0]))
    with pytest.raises(cli.ConfigError, match="MIMO_RECAL_THREADS"):
        cli.run_scenario(cfg)


def test_default_workers_are_the_cores_capped_at_the_pairs(tmp_path, monkeypatch):
    # unset MIMO_RECAL_THREADS: min(cores, pairs) spawned workers; the
    # stand-in pool scores the pairs in this process
    import concurrent.futures

    seen = []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            seen.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.delenv("MIMO_RECAL_THREADS")
    path, _ = _write_config(tmp_path, sweep={"param": "snr_db", "values": [10.0]},
                            mc={"n_hardware": 2, "n_channels": 10, "n_symbols": 16})
    assert len(cli.run_scenario(cli.load_config(str(path)))) == 4
    assert seen == [(2, "spawn")]
