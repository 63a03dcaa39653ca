"""Acceptance suite: seven end-to-end criteria, one test function each.

Every test carries its stated numeric tolerance and runtime budget and
prints a single PASS line (visible under ``pytest -s``); under ``pytest
-v`` the per-test PASSED/FAILED verdicts serve the same purpose.  Oracle
values are restated here as literals so this file is self-contained.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from streamring.calibration import (
    fit,
    load_bundled_measurements,
    t_opt_continuous,
    t_opt_discrete,
)
from streamring.cli import main as cli_main
from streamring.core import CostModel, Meeting
from streamring.latency import LatencyModel
from streamring.orchestrator import (
    required_languages,
    update_orchestration,
    verify_invariants,
)
from streamring.segproc import StreamSpec, schedule_stream
from streamring.simulator import sweep_cost

from tests.test_cli import SCENARIO_DIR

# Reciprocal-throughput table the fixture must reproduce (2-decimal print
# precision, hence the +/-0.005 half-ulp tolerance; one value lands exactly
# on the boundary, so the comparison allows 1e-9 of float headroom).
PRINTED_TAU = {
    "A100": [1.87, 1.04, 0.76, 0.54, 0.42],
    "RTX4060": [4.52, 2.41, 1.70, 1.14, 0.82],
    "T4": [8.99, 5.14, 3.64, 2.40, 1.59],
}

# Continuous viability crossings frozen from independent solvers (closed
# form for the affine tiers, 1e-12 bisection for the log tier).
CROSSINGS = {
    "A100": 2.1012658227848093,
    "RTX4060": 5.957746478873237,
    "T4": 13.730605774568744,
}

GRID = [1.0, 2.0, 3.0, 5.0, 8.0]
LANGS = ("de", "en", "fr", "tr")


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {name}: PASS  [{elapsed:.2f}s < {budget}s]")


def test_criterion_1_tau_reproduction():
    started = time.perf_counter()
    sets = load_bundled_measurements()
    checked = 0
    for label, expected in PRINTED_TAU.items():
        points = sets[label].throughput_points()
        assert [pt.t for pt in points] == GRID
        for point, printed in zip(points, expected):
            assert abs(point.tau - printed) <= 0.005 + 1e-9, (
                f"{label} at {point.t}s: tau={point.tau} vs printed {printed}"
            )
            checked += 1
    assert checked == 15
    _report("1 (tau reproduction, 15 values, +/-0.005)", started, 1.0)


def test_criterion_2_discrete_t_opt():
    started = time.perf_counter()
    sets = load_bundled_measurements()
    results = {
        label: t_opt_discrete(sets[label].throughput_points())
        for label in ("A100", "RTX4060", "T4")
    }
    assert results == {"A100": 3.0, "RTX4060": 8.0, "T4": None}
    _report("2 (discrete T_opt 3/8/none, exact)", started, 1.0)


def test_criterion_3_cost_collapse():
    started = time.perf_counter()
    sizes = list(range(2, 51))
    for unit_cost in (1.0, 2.5):
        cost = CostModel(unit_cost=unit_cost)
        for row in sweep_cost(sizes, 4, "all-distinct", cost=cost):
            assert row["token_cost"] == unit_cost * (row["n"] - 1)
            assert row["naive_cost"] == unit_cost * row["n"] * (row["n"] - 1)
        for row in sweep_cost(sizes, 4, "all-same", cost=cost):
            assert row["token_cost"] == unit_cost

    rng = random.Random(42)
    for _ in range(10_000):
        n = rng.randint(2, 50)
        pool = rng.randint(1, 6)
        langs = [LANGS[rng.randrange(min(pool, len(LANGS)))] for _ in range(n)]
        meeting = Meeting(
            participants={f"p{i}": lang for i, lang in enumerate(langs)},
            pool_capacity=n,
        )
        k = len(required_languages(meeting, "p0"))
        assert k * 1.0 / (n * (n - 1)) <= 1.0 / n  # token/naive <= 1/N
    _report("3 (cost collapse exact + 10,000 random assignments)", started, 5.0)


def test_criterion_4_orchestrator_oracle_equivalence():
    started = time.perf_counter()
    cases = 0
    for n in range(2, 7):
        ids = [f"p{i}" for i in range(n)]
        for assignment in itertools.product(LANGS, repeat=n):
            roster = dict(zip(ids, assignment))
            for speaker_index in range(n):
                meeting = Meeting(participants=roster, pool_capacity=n)
                update_orchestration(meeting, ids[speaker_index])
                oracle = {
                    lang for pid, lang in zip(ids, assignment)
                    if pid != ids[speaker_index]
                } - {assignment[speaker_index]}
                assert len(meeting.pipelines) == len(oracle)
                assert verify_invariants(meeting) == []
                cases += 1
    assert cases == sum(n * 4**n for n in range(2, 7))  # 30,944 states
    _report(f"4 (oracle equivalence, {cases} exhaustive states)", started, 30.0)


def test_criterion_5_zero_stall_theorem():
    started = time.perf_counter()
    rng = random.Random(42)

    for _ in range(1000):
        a = rng.uniform(0.05, 5.0)
        b = rng.uniform(0.0, 0.95)
        T = (a / (1.0 - b)) * rng.uniform(1.02, 3.0)
        model = LatencyModel(form="affine", a=a, b=b)
        assert model.tau(T) < 1.0
        n_segments = rng.randint(1, 1000)
        jobs, report = schedule_stream(
            StreamSpec(total_duration=n_segments * T, mode="live"), model, T
        )
        assert len(jobs) == n_segments
        # on time to the bit: each segment is ready when the player needs it
        assert all(job.finish_at == job.needed_at for job in jobs)
        assert report.stall_count == 0
        assert report.stall_total == 0.0
        assert report.startup_delay == model.evaluate(T)  # bit-exact

    for _ in range(1000):
        a = rng.uniform(0.05, 5.0)
        if rng.random() < 0.5:
            b = rng.uniform(1.001, 3.0)  # lagging at every duration
            T = rng.uniform(0.2, 5.0)
        else:
            b = rng.uniform(0.0, 0.95)
            T = (a / (1.0 - b)) * rng.uniform(0.1, 0.98)
        model = LatencyModel(form="affine", a=a, b=b)
        assert model.tau(T) > 1.0
        n_segments = rng.randint(2, 300)
        jobs, _ = schedule_stream(
            StreamSpec(total_duration=n_segments * T, mode="live"), model, T
        )
        p = model.evaluate(T)
        for k, job in enumerate(jobs):
            lag = max(0.0, job.finish_at - job.needed_at)
            assert lag == pytest.approx(k * (p - T), abs=1e-9)
    _report("5 (zero-stall exact x1000; lag k(p-T) +/-1e-9 x1000)", started, 30.0)


def test_criterion_6_calibration_fidelity():
    started = time.perf_counter()
    sets = load_bundled_measurements()
    for label, form, rmse_bound in (
        ("A100", "affine", 0.01),
        ("RTX4060", "affine", 0.01),
        ("T4", "log", 0.1),
    ):
        model, diag = fit(sets[label], form)
        assert diag.rmse < rmse_bound, f"{label} rmse {diag.rmse}"
        crossing = t_opt_continuous(model)
        assert crossing == pytest.approx(CROSSINGS[label], abs=0.05), label
    _report("6 (fit RMSE bounds + continuous T_opt +/-0.05)", started, 1.0)


def test_criterion_7_end_to_end_determinism(capsys):
    names = ("bilingual_10.json", "worst_case_6.json", "handoff_3.json")
    for name in names:
        argv = ["simulate", "--scenario", str(SCENARIO_DIR / name),
                "--seed", "42", "--format", "json"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second, f"{name}: reports differ between runs"
        json.loads(first)  # and it is well-formed JSON
    print(f"criterion 7 (byte-identical simulate x2 on {len(names)} scenarios): PASS")
