#!/usr/bin/env python3
"""Regenerate the golden CSVs that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Runs every ``tests/golden/*.json`` config through ``cli.run_scenario`` with
one worker and writes ``<name>.csv`` next to it.  A regenerated CSV is new
test data: say in CHANGES.md which files moved and why.
"""

from __future__ import annotations

import os
from pathlib import Path

from mimo_recal import cli

HERE = Path(__file__).resolve().parent


def main() -> int:
    os.environ["MIMO_RECAL_THREADS"] = "1"
    for config in sorted(HERE.glob("*.json")):
        csv = config.with_suffix(".csv")
        cfg = cli.load_config(str(config), [f"output_path={csv}"])
        cli.emit_csv(cli.run_scenario(cfg), cfg.output_path)
        print(f"wrote {csv.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
