"""Workload definitions: one ``cli`` sweep point each, as an experiment config.

The seed of the config is the benchmark's ``--seed``; everything else is
fixed here.  ``SMOKE`` shrinks every workload to a size that runs in well
under a second per point, for the smoke mode and the benchmark's tests.
"""

from __future__ import annotations

import copy

WORKLOADS = {
    # paper scale: the batched ZF effective-channel kernel dominates
    "rate-paper": {
        "scenario": "rate_vs_snr", "m": 256, "k": 20, "mode": "surrogate",
        "sweep": {"param": "snr_db", "values": [10.0]},
        "mc": {"n_hardware": 1, "n_channels": 500, "n_symbols": 256},
        "params": {},
    },
    # OTA training, polynomial fit and SLP solve on one hardware draw
    "calibration": {
        "scenario": "cal_rate_vs_snr", "m": 64, "k": 8, "mode": "surrogate",
        "sweep": {"param": "snr_db", "values": [10.0]},
        "mc": {"n_hardware": 1, "n_channels": 500, "n_symbols": 256},
        "params": {"ibo_db": 10.0, "order": 5, "n_levels": 7, "n_symbols_train": 10},
    },
    # sample-level SSPA chain and a least-squares solve per channel draw
    "physical": {
        "scenario": "rate_vs_snr", "m": 64, "k": 8, "mode": "physical",
        "sweep": {"param": "snr_db", "values": [10.0]},
        "mc": {"n_hardware": 2, "n_channels": 100, "n_symbols": 256},
        "params": {},
    },
}

SMOKE = {
    "rate-paper": {"m": 32, "k": 4, "mc": {"n_hardware": 2, "n_channels": 64, "n_symbols": 64}},
    "calibration": {"m": 16, "k": 2, "mc": {"n_hardware": 2, "n_channels": 64, "n_symbols": 64}},
    "physical": {"m": 16, "k": 2, "mc": {"n_hardware": 2, "n_channels": 16, "n_symbols": 64}},
}


def config(workload: str, seed: int, output_path: str, smoke: bool = False) -> dict:
    """The experiment config of ``workload`` as ``cli.load_config`` reads it."""
    cfg = copy.deepcopy(WORKLOADS[workload])
    if smoke:
        cfg.update(copy.deepcopy(SMOKE[workload]))
    cfg["seed"] = int(seed)
    cfg["output_path"] = output_path
    return cfg
