"""Simulator tests: scenario validation, event-loop composition, metrics
assembly, shipped scenario files, and the cost sweep.

Oracle policy: expected pipeline counts come from stepping scenarios by hand
with the brute-force required-language rule; the uniform-assignment sweep is
checked against the closed-form inclusion-exclusion expectation
E[k] = (pool-1) * (1 - ((pool-1)/pool)^(N-1)).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from streamring import simulator
from streamring.cli import _render_csv
from streamring.core import CostModel, ValidationError
from streamring.latency import fit
from streamring.simulator import (
    METRICS_CSV_HEADER,
    Scenario,
    ScenarioError,
    ScenarioEvent,
    load_scenario,
    report_to_json,
    run_scenario,
    save_scenario,
    scenario_digest,
    sweep_cost,
    validate_scenario,
)
from tests.test_latency import fixture_set

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

A100_SPEC = {"fixture": "A100", "form": "affine"}


def two_party(**overrides) -> Scenario:
    base = dict(
        participants=[("A", "en"), ("B", "de")],
        pool_capacity=4,
        model_spec=dict(A100_SPEC),
        segment_duration=3.0,
        run_duration=30.0,
        events=[ScenarioEvent(time=0.0, kind="speaker-change", participant="A")],
    )
    base.update(overrides)
    return Scenario(**base)


def expected_uniform_k(pool: int, n: int) -> float:
    others = pool - 1
    return others * (1.0 - (others / pool) ** (n - 1))


class TestValidation:
    def test_valid_scenario(self):
        assert validate_scenario(two_party()) == []

    def test_all_violations_listed(self):
        scenario = Scenario(
            participants=[("A", "en"), ("A", "de")],
            pool_capacity=-1,
            model_spec={"fixture": "H200"},
            segment_duration=-3.0,
            run_duration=0.0,
            events=[
                ScenarioEvent(time=9.0, kind="speaker-change", participant="Z"),
                ScenarioEvent(time=5.0, kind="join", participant="B", language="fr"),
            ],
        )
        violations = validate_scenario(scenario)
        joined = "\n".join(violations)
        assert "run_duration" in joined
        assert "pool_capacity" in joined
        assert "duplicate participant" in joined
        assert "H200" in joined
        assert "segment_duration" in joined
        assert "not sorted" in joined
        assert "'Z'" in joined
        with pytest.raises(ScenarioError) as exc:
            run_scenario(scenario)
        assert "not sorted" in str(exc.value)

    def test_temporal_reference_checks(self):
        scenario = two_party(
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(time=5.0, kind="join", participant="B", language="fr"),
                ScenarioEvent(time=6.0, kind="leave", participant="C"),
                ScenarioEvent(time=7.0, kind="language-change", participant="D", language="fr"),
                ScenarioEvent(time=40.0, kind="speaker-change", participant="A"),
            ]
        )
        joined = "\n".join(validate_scenario(scenario))
        assert "already present" in joined
        assert "not present" in joined
        assert "outside [0, run_duration]" in joined

    def test_run_resolves_the_model_once(self, monkeypatch):
        calls = []
        resolve = simulator.resolve_model
        monkeypatch.setattr(
            simulator, "resolve_model", lambda spec: calls.append(spec) or resolve(spec)
        )
        run_scenario(two_party())
        assert calls == [A100_SPEC]
        assert validate_scenario(two_party()) == []
        assert len(calls) == 2

    def test_join_needs_language(self):
        scenario = two_party(
            events=[ScenarioEvent(time=1.0, kind="join", participant="C")]
        )
        assert any("missing language" in v for v in validate_scenario(scenario))

    def test_unknown_event_kind_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            ScenarioEvent(time=0.0, kind="teleport", participant="A")


class TestTwoPartyMeeting:
    def test_single_turn_timeline(self):
        report = run_scenario(two_party())
        assert report.max_k == 1
        assert report.mean_k == 1.0
        assert report.cost_ratio == 0.5  # C*1 vs C*2*1
        assert report.total_stall_seconds == 0.0
        assert report.warnings == ()
        assert report.series.listener_stalls == {"B": 0.0}
        (startup,) = report.series.turn_startups
        assert startup.language == "de"
        assert startup.cold
        assert startup.startup_delay == pytest.approx(2.29, abs=1e-9)
        # one state sample at t=0, ten segment boundaries, final state
        assert len(report.series.samples) == 12
        assert all(s.k == 1 for s in report.series.samples)
        assert all(s.naive_cost == 2.0 for s in report.series.samples)

    def test_samples_are_cost_consistent(self):
        report = run_scenario(two_party(unit_cost=2.5))
        for sample in report.series.samples:
            assert sample.token_cost == 2.5 * sample.k
            assert sample.naive_cost == 2.5 * 2 * 1


class TestShippedScenarios:
    def test_bilingual_10(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "bilingual_10.json"))
        assert report.max_k == 1
        assert report.mean_k == 1.0
        assert report.cost_ratio == pytest.approx(1.0 / 90.0, rel=1e-12)
        assert all(s.naive_cost == 90.0 for s in report.series.samples)
        assert set(report.series.listener_stalls) == {f"p{i}" for i in range(1, 10)}
        assert all(v == 0.0 for v in report.series.listener_stalls.values())

    def test_worst_case_6(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "worst_case_6.json"))
        assert report.max_k == 5
        assert report.mean_k == 5.0
        assert report.cost_ratio == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert len(report.series.turn_startups) == 10  # 5 per turn, two turns
        assert all(t.cold for t in report.series.turn_startups)
        assert not any("allocation failed" in w for w in report.warnings)

    def test_handoff_3(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "handoff_3.json"))
        assert report.max_k == 2
        assert report.mean_k == 2.0
        assert not any("allocation failed" in w for w in report.warnings)
        # four turns, two sessions each; every hand-off re-initializes
        assert len(report.series.turn_startups) == 8
        assert all(t.cold for t in report.series.turn_startups)
        assert [t.time for t in report.series.turn_startups] == [
            0.0, 0.0, 12.0, 12.0, 24.0, 24.0, 36.0, 36.0,
        ]

    def test_replay_determinism(self):
        for name in ("bilingual_10.json", "worst_case_6.json", "handoff_3.json"):
            scenario = load_scenario(SCENARIO_DIR / name)
            first = json.dumps(report_to_json(run_scenario(scenario)), sort_keys=True)
            second = json.dumps(report_to_json(run_scenario(scenario)), sort_keys=True)
            assert first == second


class TestMembershipDynamics:
    def test_join_then_speaker_leave(self):
        scenario = two_party(
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(time=10.0, kind="join", participant="C", language="fr"),
                ScenarioEvent(time=20.0, kind="leave", participant="A"),
            ]
        )
        report = run_scenario(scenario)
        assert report.max_k == 2
        assert report.mean_k == pytest.approx(1.0)  # (1*10 + 2*10 + 0*10)/30
        # de runs [0,20) uninterrupted by the join; fr runs [10,20)
        assert [(t.time, t.language) for t in report.series.turn_startups] == [
            (0.0, "de"),
            (10.0, "fr"),
        ]

    def test_repeated_speaker_change_is_noop(self):
        scenario = two_party(
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(time=10.0, kind="speaker-change", participant="A"),
            ]
        )
        report = run_scenario(scenario)
        assert len(report.series.turn_startups) == 1
        assert report.series.turn_startups[0].time == 0.0

    def test_listener_language_change_opens_new_session(self):
        scenario = Scenario(
            participants=[("A", "en"), ("B", "de"), ("C", "de")],
            pool_capacity=4,
            model_spec=dict(A100_SPEC),
            segment_duration=3.0,
            run_duration=30.0,
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(
                    time=10.0, kind="language-change", participant="C", language="fr"
                ),
            ],
        )
        report = run_scenario(scenario)
        assert report.max_k == 2
        assert [(t.time, t.language) for t in report.series.turn_startups] == [
            (0.0, "de"),
            (10.0, "fr"),
        ]

    def test_speaker_language_change_reinitializes(self):
        scenario = two_party(
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(
                    time=10.0, kind="language-change", participant="A", language="tr"
                ),
            ]
        )
        report = run_scenario(scenario)
        # same target language, but the source changed: session restarts cold
        assert [(t.time, t.language, t.cold) for t in report.series.turn_startups] == [
            (0.0, "de", True),
            (10.0, "de", True),
        ]

    def test_listener_leave_keeps_shared_session(self):
        scenario = Scenario(
            participants=[("A", "en"), ("B", "de"), ("C", "de")],
            pool_capacity=4,
            model_spec=dict(A100_SPEC),
            segment_duration=3.0,
            run_duration=30.0,
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(time=10.0, kind="leave", participant="B"),
                ScenarioEvent(time=20.0, kind="leave", participant="C"),
            ],
        )
        report = run_scenario(scenario)
        assert len(report.series.turn_startups) == 1  # de never re-buffers
        ks = {s.time_s: s.k for s in report.series.samples}
        assert ks[20.0] == 0  # stale after the last de listener leaves

    def test_same_time_events_apply_in_fixed_order(self):
        # B leaves and rejoins with a new language at the same instant;
        # leave ranks before join, so this is legal and atomic
        scenario = two_party(
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(time=12.0, kind="leave", participant="B"),
                ScenarioEvent(time=12.0, kind="join", participant="B", language="fr"),
            ]
        )
        report = run_scenario(scenario)
        assert [(t.time, t.language) for t in report.series.turn_startups] == [
            (0.0, "de"),
            (12.0, "fr"),
        ]

    def test_independent_same_time_events_commute(self):
        def build(order):
            return two_party(
                participants=[("A", "en"), ("B", "de")],
                events=[
                    ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                    *order,
                ],
            )

        join_c = ScenarioEvent(time=6.0, kind="join", participant="C", language="fr")
        join_d = ScenarioEvent(time=6.0, kind="join", participant="D", language="it")
        one = report_to_json(run_scenario(build([join_c, join_d])))
        other = report_to_json(run_scenario(build([join_d, join_c])))
        # digests differ (the files differ); every observable must not
        one.pop("scenario_digest")
        other.pop("scenario_digest")
        assert json.dumps(one, sort_keys=True) == json.dumps(other, sort_keys=True)


class TestLaggingModel:
    def test_stalls_accrue_to_listener(self):
        scenario = two_party(
            model_spec={"fixture": "T4", "form": "log"},
            segment_duration=8.0,
            run_duration=40.0,
        )
        report = run_scenario(scenario)
        p8 = fit(fixture_set("T4"), "log")[0].evaluate(8.0)
        expected = 4 * (p8 - 8.0)  # 5 segments, every one after the first stalls
        assert report.total_stall_seconds == pytest.approx(expected, abs=1e-9)
        assert report.series.listener_stalls["B"] == pytest.approx(expected, abs=1e-9)
        assert any("not real-time viable" in w for w in report.warnings)
        stalls = [s.stalls_cum for s in report.series.samples]
        assert stalls == sorted(stalls)


class TestAutoSegmentDuration:
    def test_table_resolves_to_grid_point(self):
        report = run_scenario(
            two_party(model_spec={"fixture": "A100", "form": "table"},
                      segment_duration="auto")
        )
        assert report.resolved_segment_duration == 3.0

    def test_parametric_resolves_to_crossing(self):
        report = run_scenario(two_party(segment_duration="auto"))
        assert report.resolved_segment_duration == pytest.approx(
            2.1012658227848093, abs=1e-9
        )

    def test_never_viable_falls_back_with_warning(self):
        report = run_scenario(
            two_party(model_spec={"fixture": "T4", "form": "table"},
                      segment_duration="auto")
        )
        assert report.resolved_segment_duration == 8.0
        assert any("falling back" in w for w in report.warnings)
        assert any("not real-time viable" in w for w in report.warnings)


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        scenario = two_party()
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        again = load_scenario(path)
        assert again == scenario
        assert scenario_digest(again) == scenario_digest(scenario)

    def test_digest_tracks_content(self):
        a = two_party()
        b = two_party(run_duration=31.0)
        assert scenario_digest(a) != scenario_digest(b)
        assert len(scenario_digest(a)) == 64

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{\"participants\": []}")
        with pytest.raises(ValidationError):
            load_scenario(path)


class TestMetricsCsv:
    def test_csv_shape(self):
        report = run_scenario(two_party())
        samples = report_to_json(report)["samples"]
        rows = [line.split(",") for line in
                _render_csv(METRICS_CSV_HEADER, samples).splitlines()]
        assert rows[0] == [
            "time_s", "k", "token_cost", "naive_cost", "alloc_failures", "stalls_cum",
        ]
        assert len(rows) == len(report.series.samples) + 1
        assert all(len(r) == 6 for r in rows)
        assert float(rows[1][0]) == 0.0


class TestSweep:
    def test_all_distinct_worst_case(self):
        rows = sweep_cost(list(range(2, 21)), 4, "all-distinct")
        for row in rows:
            assert row.mean_k == row.n - 1
            assert row.token_cost == row.n - 1
            assert row.naive_cost == row.n * (row.n - 1)

    def test_all_same_best_case(self):
        cost = CostModel(unit_cost=2.0)
        rows = sweep_cost([2, 10, 50], 4, "all-same", cost=cost)
        assert all(row.token_cost == 2.0 for row in rows)

    def test_uniform_matches_inclusion_exclusion(self):
        (row,) = sweep_cost([5], 4, "uniform", trials=4000, seed=42)
        assert row.mean_k == pytest.approx(expected_uniform_k(4, 5), abs=0.05)
        (big,) = sweep_cost([50], 4, "uniform", trials=500, seed=42)
        assert big.mean_k == pytest.approx(expected_uniform_k(4, 50), abs=0.01)

    def test_token_cost_never_beats_one_over_n(self):
        rows = sweep_cost(list(range(2, 30)), 6, "uniform", trials=50, seed=7)
        for row in rows:
            assert row.token_cost / row.naive_cost <= 1.0 / row.n + 1e-12

    def test_seeded_reproducibility(self):
        first = sweep_cost([2, 5, 9], 4, "uniform", trials=200, seed=11)
        second = sweep_cost([2, 5, 9], 4, "uniform", trials=200, seed=11)
        assert first == second

    def test_validation(self):
        with pytest.raises(ValidationError):
            sweep_cost([1], 4, "uniform")
        with pytest.raises(ValidationError):
            sweep_cost([2], 0, "uniform")
        with pytest.raises(ValidationError):
            sweep_cost([2], 4, "uniform", trials=0)
        with pytest.raises(ValidationError):
            sweep_cost([2], 4, "round-robin")


class TestProperties:
    @given(
        languages=st.lists(
            st.sampled_from(["de", "en", "fr", "tr"]), min_size=2, max_size=5
        ),
        capacity=st.integers(min_value=0, max_value=4),
        turns=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_k_bound_and_counterfactual_dominance(self, languages, capacity, turns):
        n = len(languages)
        ids = [f"p{i}" for i in range(n)]
        events = [
            ScenarioEvent(
                time=float(t), kind="speaker-change", participant=ids[s % n]
            )
            for t, s in sorted(turns)
        ]
        scenario = Scenario(
            participants=list(zip(ids, languages)),
            pool_capacity=capacity,
            model_spec=dict(A100_SPEC),
            segment_duration=3.0,
            run_duration=10.0,
            events=events,
        )
        report = run_scenario(scenario)
        for sample in report.series.samples:
            assert sample.k <= min(capacity, n - 1)
            if sample.k >= 1:
                assert sample.naive_cost >= n * sample.token_cost
        assert report.cost_ratio <= 1.0
