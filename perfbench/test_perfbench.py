"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import time

import pytest

import checks
import workloads
from run import Bench, Program, traced_patches
from tracing import Patches, Tracer


def test_generator_is_deterministic(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.write(workload, 11, tmp_path / "a")
        second = workloads.write(workload, 11, tmp_path / "b")
        assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
        other = workloads.generate(workload, 12)
        assert [workloads.render(s) for s in other] != [p.read_bytes() for p in first]


def test_generator_keeps_the_workload_shape():
    for seed in (0, 1, 2):
        for scenario in workloads.generate("handoff-large", seed):
            assert len(scenario["participants"]) == workloads.ROSTER
            assert {e["kind"] for e in scenario["events"]} == {"speaker-change"}
            assert scenario["run_duration"] == 72.0
        stream = workloads.generate("long-stream", seed)
        taus = []
        for scenario in stream:
            t = scenario["segment_duration"]
            taus.append(workloads.TABLE_A / t + workloads.TABLE_B)
        assert min(taus) < 0.99 and max(taus) > 1.01


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    return Bench("long-stream", 5, None, work=tmp_path_factory.mktemp("w"),
                 setup_reps=1)


def _wrapped(prog: Program) -> list[tuple[object, str]]:
    return [
        (prog.cli, "load_scenario"), (prog.cli, "run_scenario"),
        (prog.cli, "report_to_json"), (prog.simulator, "validate_scenario"),
        (prog.simulator, "resolve_model"), (prog.simulator, "update_orchestration"),
        (prog.simulator, "schedule_stream"), (prog.latency.LatencyModel, "evaluate"),
        (prog.core.LanguageTag, "__eq__"),
    ]


def test_traced_output_equals_untraced_and_names_are_restored(bench):
    names = _wrapped(bench.prog)
    before = [vars(owner)[attr] for owner, attr in names]
    bench.call(0)
    plain = bench.outs[0].read_bytes()
    tracer = Tracer()
    with traced_patches(bench.prog, tracer):
        assert bench.prog.cli.run_scenario is not before[1]
        bench.call(0, tracer)
    assert bench.outs[0].read_bytes() == plain
    bench.checked_pass()
    assert [vars(owner)[attr] for owner, attr in names] == before
    assert bench.failed == 0
    assert set(tracer.names) >= {"cli.main", "run_scenario", "schedule_stream", "evaluate"}


def test_patches_restore_after_an_error():
    class Owner:
        def method(self):
            return 1

    original = vars(Owner)["method"]
    with pytest.raises(RuntimeError):
        with Patches() as patches:
            patches.replace(Owner, "method", lambda f: lambda self: 2)
            assert Owner().method() == 2
            raise RuntimeError
    assert vars(Owner)["method"] is original


def test_self_time_subtracts_child_spans():
    class Layer:
        @staticmethod
        def inner():
            time.sleep(0.02)

    def outer():
        Layer.inner()
        time.sleep(0.01)

    tracer = Tracer()
    with Patches() as patches:
        patches.replace(Layer, "inner", tracer.wrap("inner"))
        tracer.call("outer", outer)
    (selfs,) = tracer.self_times()
    ((_, outer_total),) = tracer.spans("outer")
    assert selfs["inner"] >= 0.02
    assert selfs["outer"] == pytest.approx(outer_total - selfs["inner"])
    assert 0.01 <= selfs["outer"] < 0.02


def _corrupting(change):
    def make(original):
        def report_to_json(report):
            payload = original(report)
            change(payload)
            return payload
        return report_to_json
    return make


@pytest.mark.parametrize("index,change", [
    (0, lambda p: p["samples"][0].update(k=9)),  # pool is 8
    (1, lambda p: p["aggregates"].update(total_stall_seconds=0.5)),  # tau < 1
    (0, lambda p: p["samples"].reverse()),  # time runs backwards
    (1, lambda p: p["warnings"].append("unexpected")),  # digest differs
])
def test_corrupted_report_counts_as_failure(bench, index, change):
    bench.call(index)  # a correct call first, so the digest is known
    failed = bench.failed
    with Patches() as patches:
        patches.replace(bench.prog.cli, "report_to_json", _corrupting(change))
        bench.call(index)
    assert bench.failed == failed + 1
    bench.failures.clear()
    bench._failed_calls.clear()


def test_checks_read_the_scenario():
    scenario = workloads.generate("long-stream", 5)[1]
    facts = checks.scenario_facts(scenario, tau=0.9)
    assert facts.pool == workloads.STREAM_POOL
    assert facts.languages == workloads.STREAM_LANGUAGES
    report = {
        "scenario_digest": "x", "resolved_segment_duration": 0.4,
        "aggregates": {"max_k": 7, "mean_k": 1.0, "total_stall_seconds": 0.0,
                       "cost_ratio": 0.1},
        "warnings": [], "listener_stalls": {}, "turn_startups": [],
        "samples": [{"time_s": 0.0, "k": 5, "token_cost": 5.0, "naive_cost": 1.0,
                     "alloc_failures": 0, "stalls_cum": 0.0}],
    }
    assert checks.check_report(report, facts, None) == [
        "max_k 7 exceeds the 6 distinct languages"]
    extended = json.loads(json.dumps(report))
    extended["new_key"] = 1
    extended["samples"][0]["new_field"] = 2
    assert checks.report_digest(extended) == checks.report_digest(report)
