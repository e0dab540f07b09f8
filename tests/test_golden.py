"""Golden outputs: eight small configs under ``tests/golden/`` rerun through
``run_scenario`` + ``emit_csv`` against their committed CSVs.

Labels (columns, scenario, sweep values, methods, n_trials) must match
exactly and every rate within 1e-7 relative: far above the last-digit drift
of another BLAS, far below the Monte-Carlo shift of any change to a random
stream or a formula at these sizes.  ``tests/golden/regenerate.py`` rewrites
the CSVs.
"""

import csv
from pathlib import Path

import pytest

from mimo_recal import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(GOLDEN.glob("*.json"))
FLOAT_COLUMNS = ("rate_mean", "rate_stderr")


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_every_scenario_and_mode_is_pinned():
    cfgs = [cli.load_config(str(path)) for path in CONFIGS]
    assert {c.scenario for c in cfgs} == set(cli.SCENARIOS)
    assert {(c.scenario, c.mode) for c in cfgs if c.mode == "physical"} == {
        ("rate_vs_snr", "physical"), ("cal_rate_vs_snr", "physical")}
    # both OTA paths: pilots only, and pilots with receive noise
    noise = {c.train_noise_var > 0 for c in cfgs if c.scenario.startswith("cal_")}
    assert noise == {False, True}


def _run(config: Path, out: Path) -> Path:
    cfg = cli.load_config(str(config), [f"output_path={out}"])
    cli.emit_csv(cli.run_scenario(cfg), cfg.output_path)
    return out


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_csv_matches_golden(config, tmp_path):
    _assert_golden(config, _run(config, tmp_path / "out.csv"))


def _assert_golden(config: Path, out: Path) -> None:
    want = _rows(config.with_suffix(".csv"))
    got = _rows(out)
    assert list(got[0]) == list(want[0]) == list(cli.CSV_COLUMNS)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        labels = [col for col in cli.CSV_COLUMNS if col not in FLOAT_COLUMNS]
        assert [g[c] for c in labels] == [w[c] for c in labels], f"row {i}"
        for col in FLOAT_COLUMNS:
            a, b = float(g[col]), float(w[col])
            assert abs(a - b) <= 1e-7 * max(abs(a), abs(b)), (
                f"row {i} ({w['method']} at {w['sweep_value']}): {col} {a!r} != {b!r}")


def test_pool_matches_serial_golden_run(tmp_path, monkeypatch):
    # two workers share out the (sweep point, hardware draw) pairs and write
    # the bytes of the one-worker run
    config = GOLDEN / "cal_rate_vs_snr.json"
    out = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("MIMO_RECAL_THREADS", threads)
        out[threads] = _run(config, tmp_path / f"{threads}.csv")
    assert out["2"].read_bytes() == out["1"].read_bytes()
    _assert_golden(config, out["2"])
