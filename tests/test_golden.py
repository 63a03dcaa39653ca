"""Frozen ``simulate --format json`` reports for the shipped scenarios.

The files under ``tests/golden/`` were written by ``streamring simulate
--scenario scenarios/<name>.json --format json --out tests/golden/<name>.json``.
A refactor must reproduce them byte for byte; a change that is meant to alter
a report regenerates the file with that command and says why.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from streamring.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


@pytest.mark.parametrize("name", ["bilingual_10", "worst_case_6", "handoff_3"])
def test_simulate_json_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    code = main(
        ["simulate", "--scenario", str(ROOT / "scenarios" / f"{name}.json"),
         "--format", "json", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.json").read_bytes()
