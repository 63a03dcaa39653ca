"""Frozen ``simulate --format json`` reports.

The files under ``tests/golden/`` were written by ``streamring simulate
--scenario S --format json --out tests/golden/<name>.json``, where S is
``scenarios/<name>.json`` for the shipped scenarios and
``tests/golden/<name>.scenario.json`` for the others.  Two of those exist
only to pin the report paths the shipped ones never reach:

* ``churn_stalls_6`` — an affine model with tau > 1 and a cold-start extra
  (cold and warm sessions, stalls), a pool of 2 against up to 5 listener
  languages (failed allocations), joins, leaves and language changes, the
  speaker leaving mid-turn and same-time events of every kind.
* ``table_tail_4`` — a table model with tau > 1, sessions ending in a short
  tail segment, and ``translate_same_language``.

``churn_large_5`` is the first meeting of ``python3 perfbench/workloads.py
--workload churn-large --seed 5``: 500 people in 40 languages with a pool of
32, so every pass fails some allocations, and 28 joins, leaves and language
changes between 4 hand-offs.  It pins the roster-scale bookkeeping: the
per-language listener sets behind routing and stall charging.

The calibration goldens pin the other two commands that print a model's
tau table.  ``calibrate_A100.json`` is the standard output of ``streamring
calibrate --label A100 --format json --out
tests/golden/calibrate_A100.model.json``, which also writes that model file,
and ``topt_A100.json`` is the standard output of ``streamring topt --model
tests/golden/calibrate_A100.model.json --continuous --format json``.

Each simulated scenario's ``<name>.csv`` is the same command's output
with ``--format csv``: the ``samples`` table as the CSV writer reads it, by
value.

A refactor must reproduce them byte for byte; a change that is meant to alter
a report regenerates the file with that command and says why.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from streamring.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


SCENARIOS = {
    "bilingual_10": ROOT / "scenarios" / "bilingual_10.json",
    "worst_case_6": ROOT / "scenarios" / "worst_case_6.json",
    "handoff_3": ROOT / "scenarios" / "handoff_3.json",
    "churn_stalls_6": GOLDEN_DIR / "churn_stalls_6.scenario.json",
    "table_tail_4": GOLDEN_DIR / "table_tail_4.scenario.json",
    "churn_large_5": GOLDEN_DIR / "churn_large_5.scenario.json",
}


def simulated(name: str, fmt: str, tmp_path: Path) -> bytes:
    """The bytes ``simulate --format fmt --out`` writes for ``name``."""
    out = tmp_path / f"{name}.{fmt}"
    code = main(
        ["simulate", "--scenario", str(SCENARIOS[name]),
         "--format", fmt, "--out", str(out)]
    )
    assert code == EXIT_OK
    return out.read_bytes()


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_simulate_json_matches_golden(name, tmp_path, capsys):
    golden = GOLDEN_DIR / f"{name}.json"
    assert simulated(name, "json", tmp_path) == golden.read_bytes()


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_simulate_csv_matches_golden(name, tmp_path, capsys):
    golden = GOLDEN_DIR / f"{name}.csv"
    assert simulated(name, "csv", tmp_path) == golden.read_bytes()


def test_calibrate_and_topt_json_match_golden(tmp_path, capsys):
    model = tmp_path / "model.json"
    code = main(["calibrate", "--label", "A100", "--format", "json",
                 "--out", str(model)])
    assert code == EXIT_OK
    golden_model = GOLDEN_DIR / "calibrate_A100.model.json"
    assert model.read_bytes() == golden_model.read_bytes()
    assert capsys.readouterr().out.encode() == (
        GOLDEN_DIR / "calibrate_A100.json").read_bytes()
    code = main(["topt", "--model", str(golden_model), "--continuous",
                 "--format", "json"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.encode() == (
        GOLDEN_DIR / "topt_A100.json").read_bytes()
