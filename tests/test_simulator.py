"""Simulator tests: scenario validation, event-loop composition, metrics
assembly, shipped scenario files, and the cost sweep.

Oracle policy: expected pipeline counts come from stepping scenarios by hand
with the brute-force required-language rule; the uniform-assignment sweep is
checked against the closed-form inclusion-exclusion expectation
E[k] = (pool-1) * (1 - ((pool-1)/pool)^(N-1)).
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from dataclasses import replace
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from streamring import simulator
from streamring.calibration import fit, fit_auto, table_model
from streamring.cli import _write_csv
from streamring.core import (
    _BLOCK_ROWS,
    CostModel,
    LanguageTag,
    Meeting,
    Roster,
    ValidationError,
    cost_naive,
    dumps_json,
)
from streamring.latency import model_from_json
from streamring.orchestrator import EventKind, update_orchestration
from streamring.segproc import StreamSpec, check_viability, schedule_stream
from streamring.simulator import (
    METRICS_CSV_HEADER,
    MetricsSeries,
    RunReport,
    Scenario,
    ScenarioError,
    ScenarioEvent,
    ScenarioEventKind,
    load_scenario,
    report_to_json,
    run_scenario,
    save_scenario,
    scenario_digest,
    scenario_from_json,
    scenario_to_json,
    sweep_cost,
    validate_scenario,
)
from tests.test_latency import fixture_set

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

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


def canonical_digest(scenario: Scenario) -> str:
    """The SHA-256 of the canonical JSON text, built whole."""
    canonical = json.dumps(
        scenario_to_json(scenario), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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

    @pytest.mark.parametrize("where", ["roster", "join"])
    def test_empty_participant_id_listed(self, where):
        if where == "roster":
            scenario = two_party(participants=[("A", "en"), ("B", "de"), ("", "fr")])
        else:
            scenario = two_party(events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(time=1.0, kind="join", participant="", language="fr"),
            ])
        assert any(
            "participant id must be non-empty" in v for v in validate_scenario(scenario)
        )
        with pytest.raises(ScenarioError) as exc:
            run_scenario(scenario)
        assert str(exc.value).startswith("invalid scenario:")
        assert "participant id must be non-empty" in str(exc.value)

    def test_duplicate_of_a_rejected_entry_is_listed(self):
        # the first "A" is rejected, so it never joins the roster; its
        # second entry is a duplicate all the same
        scenario = two_party(
            participants=[("A", "  "), ("A", "en"), ("B", "de")],
            events=[ScenarioEvent(time=0.0, kind="speaker-change", participant="B")])
        assert validate_scenario(scenario) == [
            "participant 'A': language tag must be non-empty",
            "duplicate participant id 'A'",
        ]
        with pytest.raises(ScenarioError) as exc:
            run_scenario(scenario)
        assert str(exc.value) == (
            "invalid scenario:\n"
            "  - participant 'A': language tag must be non-empty\n"
            "  - duplicate participant id 'A'")

    def test_unknown_event_kind_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            ScenarioEvent(time=0.0, kind="teleport", participant="A")

    @pytest.mark.parametrize("participants, violation", [
        ([("A", "en"), ("B", 5)],
         "participant 'B': participants[1].language must be a string, got 5"),
        ([("A", "en"), ("B", ["de"])],
         "participant 'B': participants[1].language must be a string, got ['de']"),
        ([("A", "en"), (("x",), "en")],
         "participants[1].id must be a string, got ('x',)"),
        ([("A", "en"), (["x"], "en")],
         "participants[1].id must be a string, got ['x']"),
    ])
    def test_participant_that_is_not_a_string_is_listed(self, participants, violation):
        # worded as scenario_from_json words the same value in a file
        scenario = two_party(participants=participants)
        assert validate_scenario(scenario) == [violation]
        with pytest.raises(ScenarioError) as exc:
            run_scenario(scenario)
        assert str(exc.value) == f"invalid scenario:\n  - {violation}"

    @pytest.mark.parametrize("participant", [7, ("x",), None])
    def test_event_participant_must_be_a_string(self, participant):
        with pytest.raises(ValidationError, match="event participant must be a string"):
            ScenarioEvent(time=0.0, kind="join", participant=participant, language="en")


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
        assert startup["language"] == "de"
        assert startup["cold"]
        assert startup["startup_delay"] == pytest.approx(2.29, abs=1e-9)
        # one state sample at t=0, ten segment boundaries, final state
        assert len(report.series.samples) == 12
        assert all(s["k"] == 1 for s in report.series.samples)
        assert all(s["naive_cost"] == 2.0 for s in report.series.samples)

    def test_samples_are_cost_consistent(self):
        report = run_scenario(two_party(unit_cost=2.5))
        for sample in report.series.samples:
            assert sample["token_cost"] == 2.5 * sample["k"]
            assert sample["naive_cost"] == 2.5 * 2 * 1

    @pytest.mark.parametrize("pool", [4, 0], ids=["served", "unserved"])
    def test_event_at_negative_zero_reports_as_at_zero(self, pool):
        # validation accepts -0.0 (it is >= 0); unserved, the allocation
        # failure's warning names the time too
        def published(time: float) -> str:
            report = report_to_json(run_scenario(two_party(
                pool_capacity=pool,
                events=[ScenarioEvent(time, "speaker-change", "A")])))
            del report["scenario_digest"]  # it hashes the input as given
            return dumps_json(report)

        assert published(-0.0) == published(0.0)


class TestShippedScenarios:
    def test_bilingual_10(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "bilingual_10.json"))
        assert report.max_k == 1
        assert report.mean_k == 1.0
        assert report.cost_ratio == pytest.approx(1.0 / 90.0, rel=1e-12)
        assert all(s["naive_cost"] == 90.0 for s in report.series.samples)
        assert set(report.series.listener_stalls) == {f"p{i}" for i in range(1, 10)}
        assert all(v == 0.0 for v in report.series.listener_stalls.values())

    def test_worst_case_6(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "worst_case_6.json"))
        assert report.max_k == 5
        assert report.mean_k == 5.0
        assert report.cost_ratio == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert len(report.series.turn_startups) == 10  # 5 per turn, two turns
        assert all(t["cold"] for t in report.series.turn_startups)
        assert not any("allocation failed" in w for w in report.warnings)

    def test_handoff_3(self):
        report = run_scenario(load_scenario(SCENARIO_DIR / "handoff_3.json"))
        assert report.max_k == 2
        assert report.mean_k == 2.0
        assert not any("allocation failed" in w for w in report.warnings)
        # four turns, two sessions each; every hand-off re-initializes
        assert len(report.series.turn_startups) == 8
        assert all(t["cold"] for t in report.series.turn_startups)
        assert [t["time"] for t in report.series.turn_startups] == [
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
        assert [(t["time"], t["language"]) for t in report.series.turn_startups] == [
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
        assert report.series.turn_startups[0]["time"] == 0.0

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
        assert [(t["time"], t["language"]) for t in report.series.turn_startups] == [
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
        assert [
            (t["time"], t["language"], t["cold"]) for t in report.series.turn_startups
        ] == [
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
        ks = {s["time_s"]: s["k"] for s in report.series.samples}
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
        assert [(t["time"], t["language"]) for t in report.series.turn_startups] == [
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


    def test_same_time_joins_apply_by_participant_id(self):
        # D (fr) and C (es) join at once, listed in reverse id order, with
        # one free slot: C's join applies first, so es gets the pipeline
        def build(order):
            return two_party(
                pool_capacity=2,
                events=[
                    ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                    *order,
                ],
            )

        join_c = ScenarioEvent(time=6.0, kind="join", participant="C", language="es")
        join_d = ScenarioEvent(time=6.0, kind="join", participant="D", language="fr")
        report = run_scenario(build([join_d, join_c]))
        assert [(t["time"], t["language"]) for t in report.series.turn_startups] == [
            (0.0, "de"), (6.0, "es")]
        assert report.warnings == (
            "allocation failed for language fr at t=6 s (pool capacity 2)",)
        one = report_to_json(report)
        other = report_to_json(run_scenario(build([join_c, join_d])))
        one.pop("scenario_digest")
        other.pop("scenario_digest")
        assert dumps_json(one) == dumps_json(other)

    def test_language_change_applies_before_a_same_time_speaker_change(self):
        # B turns to en, A's language, and takes the floor at once: the
        # change applies first, so the source language stays en and the fr
        # session reopens warm; the other order would hand the floor to a
        # de speaker and reopen it cold
        scenario = two_party(
            participants=[("A", "en"), ("B", "de"), ("C", "fr")],
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(time=9.0, kind="speaker-change", participant="B"),
                ScenarioEvent(time=9.0, kind="language-change", participant="B",
                              language="en"),
            ],
        )
        startups = run_scenario(scenario).series.turn_startups
        assert [(t["time"], t["language"], t["cold"]) for t in startups] == [
            (0.0, "de", True), (0.0, "fr", True), (9.0, "fr", False)]

    def test_an_unserved_language_is_logged_once_per_interval(self, caplog):
        # ja is unserved from its first member's join at 3.5 s until the
        # floor is released at 17.5 s, and again from 20 s until that member
        # leaves at 31.1 s: two records, while the report still warns once
        # per pass, four times at t = 11 alone (ROADMAP item 7)
        with caplog.at_level("ERROR", logger="streamring.orchestrator"):
            report = run_scenario(
                load_scenario(GOLDEN_DIR / "churn_stalls_6.scenario.json"))
        assert [r.getMessage() for r in caplog.records] == [
            f"no free pipeline slot for languages {code} (capacity 2)"
            for code in ("zh", "ja", "es", "fr", "de", "ja", "tr")]
        assert report.warnings.count(
            "allocation failed for language ja at t=11 s (pool capacity 2)") == 4
        assert sum("language ja " in w for w in report.warnings) == 11


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
        stalls = [s["stalls_cum"] for s in report.series.samples]
        assert stalls == sorted(stalls)


class TestCheckedOnce:
    """A run starts from what checking the scenario built."""

    def test_members_and_event_order_are_built_once(self, monkeypatch):
        built: list[str] = []
        new = LanguageTag.__new__

        def counting_new(cls, code):
            tag = new(cls, code)
            built.append(tag)
            return tag

        sorts: list[Scenario] = []
        order = simulator._ordered_events

        def counting_order(scenario):
            sorts.append(scenario)
            return order(scenario)

        monkeypatch.setattr(LanguageTag, "__new__", counting_new)
        monkeypatch.setattr(simulator, "_ordered_events", counting_order)
        run_scenario(two_party(
            participants=[("A", "en"), ("B", "de"), ("C", "fr")],
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(time=9.0, kind="speaker-change", participant="B"),
            ],
        ))
        assert sorted(built) == ["de", "en", "fr"]
        assert len(sorts) == 1

    def test_members_of_one_language_share_one_tag(self):
        scenario = two_party(participants=[
            ("A", "en"), ("B", "de"), ("C", "EN"), ("D", " de"), ("E", "en"),
            ("F", "fr")])
        roster = simulator._check_scenario(scenario)[2]
        assert roster["A"] is roster["C"] is roster["E"]
        assert roster["B"] is roster["D"]
        assert sorted(roster.languages()) == ["de", "en", "fr"]

    @pytest.mark.parametrize("same, expected", [(False, 2), (True, 3)])
    def test_most_listener_languages_counted_while_someone_speaks(
            self, same, expected):
        # A (en, heard by B) speaks to de and fr, and to en too under
        # identity translation; once A leaves no one speaks, so D's fourth
        # language needs no pipeline
        scenario = two_party(
            participants=[("A", "en"), ("B", "en"), ("C", "de"), ("E", "fr")],
            translate_same_language=same,
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(time=5.0, kind="leave", participant="A"),
                ScenarioEvent(time=6.0, kind="join", participant="D",
                              language="ja"),
            ],
        )
        assert simulator._check_scenario(scenario)[4] == expected


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


class TestFixtureColdStart:
    """A fit is warm; a fixture reference's cold start is set on it once."""

    @pytest.mark.parametrize("form", ["affine", "log", "auto", "table"])
    @pytest.mark.parametrize("label", ["A100", "RTX4060", "T4"])
    def test_the_cold_start_reaches_the_model_in_every_form(self, label, form):
        model = simulator.resolve_model(
            {"fixture": label, "form": form, "cold_start_extra": 0.81})
        assert model.cold_start_extra == 0.81
        mset = fixture_set(label)
        if form == "table":
            warm = table_model(mset)
        elif form == "auto":
            warm = fit_auto(mset)[0]
        else:
            warm = fit(mset, form)[0]
        assert warm.cold_start_extra == 0.0
        assert model == replace(warm, cold_start_extra=0.81)
        _, playback = schedule_stream(StreamSpec(30.0), model, 3.0)
        assert playback.startup_delay == model.evaluate(3.0) + 0.81


#: Ids and languages that need escaping or look like the digest's own
#: separators.
_ids = st.text(max_size=6) | st.sampled_from([
    'say "hi"', "back\\slash", "line\nbreak", "na\u00efve \u2603",
    '","', ",\n", '"},{"id":', ""])


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        scenario = two_party()
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        again = load_scenario(path)
        assert again == scenario
        assert scenario_digest(again) == scenario_digest(scenario)
        # a library caller's tag, a str subclass, is read field by field
        tagged = two_party(participants=[("A", LanguageTag("en")), ("B", "de")])
        assert scenario_from_json(scenario_to_json(tagged)) == tagged

    @pytest.mark.parametrize(
        "source",
        [*sorted(SCENARIO_DIR.glob("*.json")),
         *sorted(GOLDEN_DIR.glob("*.scenario.json"))],
        ids=lambda path: path.name,
    )
    def test_file_is_indent2_json(self, source, tmp_path):
        scenario = load_scenario(source)
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        expected = json.dumps(scenario_to_json(scenario), sort_keys=True, indent=2)
        assert path.read_bytes() == (expected + "\n").encode("utf-8")

    def test_digest_tracks_content(self):
        a = two_party()
        b = two_party(run_duration=31.0)
        assert scenario_digest(a) != scenario_digest(b)
        assert len(scenario_digest(a)) == 64

    @example(two_party(participants=[]))
    @example(two_party(participants=[(5, "en"), (("B", "C"), {"x": 1, "y": 2})]))
    @example(two_party(model_spec={"participants": [], "b": [{"id": 1}]}))
    @given(st.builds(
        two_party,
        participants=st.lists(st.tuples(_ids, _ids), max_size=12),
        events=st.lists(st.builds(
            ScenarioEvent, time=st.floats(), kind=st.sampled_from(
                [kind.value for kind in ScenarioEventKind]),
            participant=_ids, language=st.none() | _ids), max_size=3),
        segment_duration=st.floats() | st.just("auto"),
    ))
    def test_digest_hashes_the_canonical_json(self, scenario):
        assert scenario_digest(scenario) == canonical_digest(scenario)

    @pytest.mark.parametrize("size, odd", [
        (0, False), (1, False), (255, False), (256, False), (257, False),
        (600, False), (257, True), (600, True),
    ], ids=["0", "1", "255", "256", "257", "600", "257-odd", "600-odd"])
    def test_digest_is_the_same_across_block_seams(self, size, odd):
        # The participants are hashed _BLOCK_ROWS at a time, and the goldens'
        # rosters are smaller than one block.  Each id and language needs
        # escaping, and one holds the item separator the fast path splits
        # on.  An odd roster holds a library caller's value that splits into
        # two cells in its second block, which alone is encoded as dicts.
        awkward = ['"', "\\", "\n", '",\n"', "\u00fc", "\u65e5\u672c"]
        participants = [(f"{awkward[i % 6]}{i}", awkward[(i + 1) % 6])
                        for i in range(size)]
        if odd:
            participants[_BLOCK_ROWS] = ("odd", ["de", "fr"])
        scenario = two_party(participants=participants)
        assert scenario_digest(scenario) == canonical_digest(scenario)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{\"participants\": []}")
        with pytest.raises(ValidationError):
            load_scenario(path)


class TestMetricsCsv:
    def test_csv_shape(self):
        report = run_scenario(two_party())
        samples = report_to_json(report)["samples"]
        buf = io.StringIO()
        _write_csv(METRICS_CSV_HEADER, samples, buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()]
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
            n = row["n"]
            assert row["mean_k"] == n - 1
            assert row["token_cost"] == n - 1
            assert row["naive_cost"] == n * (n - 1)
            assert row["cost_ratio"] == 1 / n

    def test_all_same_best_case(self):
        cost = CostModel(unit_cost=2.0)
        rows = sweep_cost([2, 10, 50], 4, "all-same", cost=cost)
        assert all(row["token_cost"] == 2.0 for row in rows)

    def test_uniform_matches_inclusion_exclusion(self):
        (row,) = sweep_cost([5], 4, "uniform", trials=4000, seed=42)
        assert row["mean_k"] == pytest.approx(expected_uniform_k(4, 5), abs=0.05)
        (big,) = sweep_cost([50], 4, "uniform", trials=500, seed=42)
        assert big["mean_k"] == pytest.approx(expected_uniform_k(4, 50), abs=0.01)

    def test_token_cost_never_beats_one_over_n(self):
        rows = sweep_cost(list(range(2, 30)), 6, "uniform", trials=50, seed=7)
        for row in rows:
            assert row["cost_ratio"] <= 1.0 / row["n"] + 1e-12

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


class TestSharedSchedules:
    """Each distinct (open time, warmth) among the sessions one step closes
    is scheduled once: those sessions share one ``schedule_stream`` result,
    and each still gets its own startup, listener charges and segment
    boundaries.  Two events at one instant are two steps, so sessions of one
    (open time, warmth) that their two passes close are scheduled twice."""

    MODEL = {"form": "affine", "params": {"a": 0.8, "b": 0.5},
             "cold_start_extra": 1.25}

    def scenario(self) -> Scenario:
        return Scenario(
            participants=[
                ("A", "en"), ("B", "en"), ("C", "de"), ("D", "fr"), ("G", "es"),
            ],
            pool_capacity=8,
            model_spec=dict(self.MODEL),
            segment_duration=1.0,  # tau = 1.3: every session stalls
            run_duration=30.0,
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                # es closes alone, before the sessions it opened with
                ScenarioEvent(time=5.0, kind="leave", participant="G"),
                # same-language hand-off: de and fr close together, reopen warm
                ScenarioEvent(time=10.0, kind="speaker-change", participant="B"),
                # mid-turn joins open it and es, cold, each at its own time
                ScenarioEvent(time=14.0, kind="join", participant="E", language="it"),
                ScenarioEvent(time=17.0, kind="join", participant="F", language="es"),
                # hand-off to de: the warm pair, it and es close together
                ScenarioEvent(time=20.0, kind="speaker-change", participant="C"),
            ],
        )

    # (opened, closed, language, cold, charged listeners) of every session,
    # in the order they close; the last four close at the end of the run
    SESSIONS = [
        (0.0, 5.0, "es", True, []),  # G has left when es closes
        (0.0, 10.0, "de", True, ["C"]),
        (0.0, 10.0, "fr", True, ["D"]),
        (10.0, 20.0, "de", False, []),  # C holds the floor when it closes
        (17.0, 20.0, "es", True, ["F"]),
        (10.0, 20.0, "fr", False, ["D"]),
        (14.0, 20.0, "it", True, ["E"]),
        (20.0, 30.0, "en", True, ["A", "B"]),
        (20.0, 30.0, "es", True, ["F"]),
        (20.0, 30.0, "fr", True, ["D"]),
        (20.0, 30.0, "it", True, ["E"]),
    ]

    def direct(self, opened: float, closed: float, cold: bool):
        model = model_from_json(self.MODEL)
        if not cold:
            model = replace(model, cold_start_extra=0.0)
        return schedule_stream(StreamSpec(closed - opened), model, 1.0)

    def same_instant(self) -> Scenario:
        """At t = 10 G (es) leaves and B (en) takes the floor: the leave's
        pass closes es and the hand-off's de and fr, all opened cold at 0."""
        return replace(self.scenario(), events=[
            ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
            ScenarioEvent(time=10.0, kind="leave", participant="G"),
            ScenarioEvent(time=10.0, kind="speaker-change", participant="B"),
        ])

    SAME_INSTANT_SESSIONS = [
        (0.0, 10.0, "es", True, []),  # G has left when es closes
        (0.0, 10.0, "de", True, ["C"]),
        (0.0, 10.0, "fr", True, ["D"]),
        (10.0, 30.0, "de", False, ["C"]),
        (10.0, 30.0, "fr", False, ["D"]),
    ]

    def counted_calls(self, monkeypatch, scenario: Scenario):
        """The run's report and the (duration, cold start) of each
        ``schedule_stream`` call it made."""
        calls = []
        original = simulator.schedule_stream

        def counted(stream, model, segment_duration):
            calls.append((stream.total_duration, model.cold_start_extra))
            return original(stream, model, segment_duration)

        monkeypatch.setattr(simulator, "schedule_stream", counted)
        return run_scenario(scenario), calls

    def test_one_schedule_per_distinct_session(self, monkeypatch):
        report, calls = self.counted_calls(monkeypatch, self.scenario())
        distinct = {(o, c, cold) for o, c, _, cold, _ in self.SESSIONS}
        assert len(report.series.turn_startups) == len(self.SESSIONS) == 11
        assert len(calls) == len(distinct) == 6

    def test_one_schedule_per_step_at_one_instant(self, monkeypatch):
        report, calls = self.counted_calls(monkeypatch, self.same_instant())
        assert len(report.series.turn_startups) == 5
        # (0 -> 10, cold) once in the leave's step and once in the hand-off's
        assert calls.count((10.0, 1.25)) == 2
        assert calls.count((20.0, 0.0)) == 1
        assert len(calls) == 3

    def test_every_session_matches_its_own_schedule(self):
        self.check_sessions(self.scenario(), self.SESSIONS)
        self.check_sessions(self.same_instant(), self.SAME_INSTANT_SESSIONS)

    def check_sessions(self, scenario: Scenario, sessions: list) -> None:
        report = run_scenario(scenario)
        startups, stalls, boundaries = [], {}, []
        for opened, closed, language, cold, listeners in sessions:
            jobs, play = self.direct(opened, closed, cold)
            assert play.stall_total > 0.0
            startups.append({"time": opened, "language": language,
                             "startup_delay": play.startup_delay, "cold": cold})
            for pid in listeners:
                stalls[pid] = stalls.get(pid, 0.0) + play.stall_total
            boundaries += [
                (opened + job.available_at, 0, language, job.stall)
                for job in jobs
            ]
        startups.sort(key=lambda s: (s["time"], s["language"]))
        assert report.series.turn_startups == startups
        assert report.series.listener_stalls == stalls

        # every boundary's stall, in report order, is the next sample's step
        times = {0.0, scenario.run_duration, *(e.time for e in scenario.events)}
        states = [(t, 1, "", 0.0) for t in times]
        rows = sorted(boundaries + states, key=lambda row: row[:3])
        stalls_cum, expected = 0.0, []
        for when, _, _, stall in rows:
            stalls_cum += stall
            expected.append((when, stalls_cum))
        assert [
            (s["time_s"], s["stalls_cum"]) for s in report.series.samples
        ] == expected


class TestStallsCum:
    """``stalls_cum`` adds only the boundaries whose stall is non-zero.  The
    sum starts at ``+0.0`` and a sum of non-negative floats never reaches
    ``-0.0``, so it has the bits of a ``+=`` over every boundary, and the
    rows between two stalls share one float object."""

    @pytest.mark.parametrize("path", [
        GOLDEN_DIR / "churn_stalls_6.scenario.json",  # tau > 1
        GOLDEN_DIR / "table_tail_4.scenario.json",  # tau > 1
        SCENARIO_DIR / "worst_case_6.json",  # tau < 1
    ], ids=lambda path: path.name.split(".")[0])
    def test_equals_a_running_sum_over_every_boundary(self, path):
        scenario = load_scenario(path)
        report = run_scenario(scenario)
        samples = report.series.samples
        # per_session_report adds every boundary's stall, zeros included
        expected = per_session_report(scenario)["samples"]
        assert len(samples) == len(expected) > 10
        assert [float.hex(row["stalls_cum"]) for row in samples] == [
            float.hex(row["stalls_cum"]) for row in expected]
        if report.total_stall_seconds == 0.0:  # tau < 1: one object
            assert len({id(row["stalls_cum"]) for row in samples}) == 1
        else:
            assert samples[-1]["stalls_cum"] > 0.0


class TestRepeatedRows:
    """At tau < 1 the sessions of one turn share a schedule and stall by 0,
    so their rows at each shared boundary are equal in every field: the
    report holds each run of them as one dict, which the writer encodes
    once.  A state point always makes a new row."""

    def scenario(self) -> Scenario:
        return Scenario(
            participants=[("A", "en"), ("B", "de"), ("C", "fr"), ("D", "es"),
                          ("E", "it")],
            pool_capacity=8,
            model_spec={"form": "affine", "params": {"a": 0.1, "b": 0.5},
                        "cold_start_extra": 0.25},
            segment_duration=1.0,  # tau = 0.6
            run_duration=12.5,
            events=[
                # de, fr, es and it share the first turn's schedule, and
                # en, fr, es and it the second's
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(time=5.0, kind="speaker-change", participant="B"),
                # pt opens mid-turn, on a schedule of its own
                ScenarioEvent(time=8.25, kind="join", participant="F",
                              language="pt"),
            ],
        )

    def test_a_run_of_equal_rows_is_one_dict(self):
        report = run_scenario(self.scenario())
        assert report.total_stall_seconds == 0.0
        samples = report.series.samples
        pairs = list(zip(samples, samples[1:]))
        for before, after in pairs:
            # equal rows at two time objects: a boundary, then a state point
            assert (before is after) == (
                before == after and before["time_s"] is after["time_s"])
        runs = [len(list(run)) for _, run in groupby(samples, key=id)]
        assert len(set(map(id, samples))) == len(runs)  # none recurs later
        assert max(runs) == 4 and len(samples) > 2 * len(runs) > 40

    def test_rows_equal_the_per_entry_rows(self):
        scenario = self.scenario()
        payload = report_to_json(run_scenario(scenario))
        expected = per_session_report(scenario)  # a new dict per entry
        assert len(payload["samples"]) == len(expected["samples"])
        for row, fresh in zip(payload["samples"], expected["samples"]):
            assert json.dumps(row, sort_keys=True) == json.dumps(
                fresh, sort_keys=True)
        assert dumps_json(payload) == json.dumps(
            expected, sort_keys=True, indent=2)


class TestTiedBoundaries:
    """Two schedules can put a boundary at one float time: here de, fr and
    it open at t = 0 and es at t = 2, and with T = 1 s their boundaries
    coincide from t = 3 on.  At such a time the rows go in language order,
    de, es, fr, it, so the two schedules' languages interleave, and
    ``stalls_cum`` adds the stalls in that order."""

    def scenario(self, a: float) -> Scenario:
        return Scenario(
            participants=[("A", "en"), ("B", "de"), ("C", "fr"), ("E", "it")],
            pool_capacity=8,
            model_spec={"form": "affine", "params": {"a": a, "b": 0.5},
                        "cold_start_extra": 1.25},
            segment_duration=1.0,
            run_duration=10.0,
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(time=2.0, kind="join", participant="D",
                              language="es"),
            ],
        )

    @pytest.mark.parametrize("a, stalled", [(0.8, True), (0.1, False)],
                             ids=["tau-1.3", "tau-0.6"])
    def test_rows_interleave_by_language(self, a, stalled):
        scenario = self.scenario(a)
        report = run_scenario(scenario)
        assert (report.total_stall_seconds > 0.0) == stalled
        samples = report.series.samples
        expected = per_session_report(scenario)["samples"]
        assert len(samples) == len(expected)
        for row, fresh in zip(samples, expected):
            assert row == fresh
            assert float.hex(row["stalls_cum"]) == float.hex(fresh["stalls_cum"])
        # the tie: four rows at t = 3, one per listener language
        assert [row["time_s"] for row in samples].count(3.0) == 4
        # a new dict on a stall or a new time object, else the row before
        for before, after in zip(samples, samples[1:]):
            assert (before is after) == (
                before == after and before["time_s"] is after["time_s"])


def replayed_violations(scenario: Scenario) -> list[str]:
    """The roster and event checks of ``validate_scenario`` as an independent
    replay over language strings, one branch per event kind."""
    violations: list[str] = []
    roster: dict[str, str] = {}
    listed: list[str] = []  # a rejected entry's id is listed too
    for pid, lang in scenario.participants:
        if pid in listed:
            violations.append(f"duplicate participant id {pid!r}")
            continue
        listed.append(pid)
        try:
            LanguageTag(lang)
        except ValidationError as exc:
            violations.append(f"participant {pid!r}: {exc}")
            continue
        roster[pid] = lang

    times = [e.time for e in scenario.events]
    if times != sorted(times):
        violations.append("events are not sorted by time")

    for event in simulator._ordered_events(scenario):
        where = f"event at t={event.time} ({event.kind.value} {event.participant!r})"
        if not 0 <= event.time <= scenario.run_duration:
            violations.append(f"{where}: time outside [0, run_duration]")
        if event.kind in (ScenarioEventKind.JOIN, ScenarioEventKind.LANGUAGE_CHANGE):
            if event.language is None:
                violations.append(f"{where}: missing language")
                continue
            try:
                LanguageTag(event.language)
            except ValidationError as exc:
                violations.append(f"{where}: {exc}")
                continue
        if event.kind is ScenarioEventKind.JOIN:
            if event.participant in roster:
                violations.append(f"{where}: participant already present")
            else:
                roster[event.participant] = event.language
        elif event.kind is ScenarioEventKind.LEAVE:
            if event.participant not in roster:
                violations.append(f"{where}: participant not present")
            else:
                del roster[event.participant]
        elif event.kind is ScenarioEventKind.LANGUAGE_CHANGE:
            if event.participant not in roster:
                violations.append(f"{where}: participant not present")
            else:
                roster[event.participant] = event.language
        elif event.participant not in roster:
            violations.append(f"{where}: participant not present")
    return violations


def per_session_report(scenario: Scenario) -> dict:
    """``report_to_json(run_scenario(scenario))`` computed the way the
    simulator did before sessions shared schedules: every session calls
    ``schedule_stream`` itself, its listeners are charged in sorted order,
    and every sample row computes its own cost columns."""
    model = simulator.resolve_model(scenario.model_spec)
    segment, warnings = simulator.resolve_segment_duration(
        model, scenario.segment_duration
    )
    viability = check_viability(model, segment)
    if not viability.viable:
        warnings.append(
            f"segment duration {segment:g} s is not real-time viable "
            f"(tau={viability.tau:.3f}); playback will lag behind the stream"
        )
    cost = CostModel(unit_cost=scenario.unit_cost)
    meeting = Meeting(
        participants=dict(scenario.participants),
        pool_capacity=scenario.pool_capacity,
        translate_same_language=scenario.translate_same_language,
    )
    warm = replace(model, cold_start_extra=0.0)
    series = MetricsSeries()
    sessions: dict = {}
    entries: list = []
    states: list = []
    totals = {"stall": 0.0, "failures": 0}

    def close(language, when):
        started_at, cold = sessions.pop(language, (when, False))
        if when - started_at <= 1e-9:
            return
        jobs, play = schedule_stream(
            StreamSpec(when - started_at), model if cold else warm, segment
        )
        series.turn_startups.append({
            "time": started_at, "language": str(language),
            "startup_delay": play.startup_delay, "cold": cold,
        })
        totals["stall"] += play.stall_total
        for pid in sorted(meeting.participants.ids_of(language)):
            if pid != meeting.active_speaker:
                stalls = series.listener_stalls
                stalls[pid] = stalls.get(pid, 0.0) + play.stall_total
        entries.extend(
            (started_at + job.available_at, 0, str(language), job.stall)
            for job in jobs
        )

    def record(when):
        point = (when, len(meeting.pipelines), meeting.size, totals["failures"])
        if states and states[-1][0] == when:
            states[-1] = point
        else:
            states.append(point)

    def orchestrate(when, speaker, turnover):
        _, events = update_orchestration(meeting, speaker)
        for event in events:
            if event.kind is EventKind.PIPELINE_DECOMMISSIONED:
                close(event.language, when)
            elif event.kind is EventKind.PIPELINE_ALLOCATED or (
                event.kind is EventKind.PIPELINE_REUSED
                and (event.reinitialized or turnover)
            ):
                close(event.language, when)
                sessions[event.language] = (
                    when,
                    event.kind is EventKind.PIPELINE_ALLOCATED
                    or event.reinitialized,
                )
            elif event.kind is EventKind.ALLOCATION_FAILED:
                totals["failures"] += 1
                warnings.append(
                    f"allocation failed for language {event.language} at "
                    f"t={when:g} s (pool capacity {meeting.pool_capacity})"
                )
        record(when)

    record(0.0)
    for event in simulator._ordered_events(scenario):
        if event.kind is ScenarioEventKind.SPEAKER_CHANGE:
            if event.participant != meeting.active_speaker:
                orchestrate(event.time, event.participant, True)
            continue
        simulator._apply(meeting.participants, event)
        speaker = meeting.active_speaker
        orchestrate(
            event.time, speaker if speaker in meeting.participants else None, False
        )
    for language in sorted(sessions):
        close(language, scenario.run_duration)
    record(scenario.run_duration)
    series.turn_startups.sort(key=lambda s: (s["time"], s["language"]))

    entries.extend((point[0], 1, "", point) for point in states)
    entries.sort(key=lambda item: item[:3])
    current, stalls_cum = states[0], 0.0
    for when, priority, _, payload in entries:
        if priority == 1:
            current = payload
        else:
            stalls_cum += payload
        _, k, n, failures = current
        series.samples.append(dict(
            time_s=when,
            k=k,
            token_cost=cost.unit_cost * k,
            naive_cost=cost_naive(n, cost) if n >= 2 else 0.0,
            alloc_failures=failures,
            stalls_cum=stalls_cum,
        ))

    max_k = states[-1][1]
    token = naive = k_time = 0.0
    for (when, k, n, _), nxt in zip(states, states[1:]):
        max_k = max(max_k, k)
        dt = nxt[0] - when
        k_time += k * dt
        token += cost.unit_cost * k * dt
        if n >= 2:
            naive += cost_naive(n, cost) * dt
    return report_to_json(RunReport(
        scenario_digest=scenario_digest(scenario),
        resolved_segment_duration=segment,
        series=series,
        max_k=max_k,
        mean_k=k_time / scenario.run_duration,
        total_stall_seconds=totals["stall"],
        cost_ratio=token / naive if naive > 0 else 0.0,
        warnings=tuple(warnings),
    ))


@st.composite
def meetings(draw) -> Scenario:
    """Small meetings whose events mix hand-offs, some to a speaker of the
    same language, with joins, leaves and language changes, several at one
    instant; T = 1 s runs at tau = 1.3 and T = 3 s at tau ~ 0.77."""
    languages = ["en", "de", "fr", "it"]
    roster = {
        f"p{i}": lang
        for i, lang in enumerate(
            draw(st.lists(st.sampled_from(languages), min_size=2, max_size=5))
        )
    }
    participants = list(roster.items())
    events, time = [], 0.0
    for step in range(draw(st.integers(min_value=1, max_value=9))):
        time += draw(st.sampled_from([0.0, 1.5, 4.0, 7.0]))
        kind = draw(st.sampled_from(
            ["speaker-change"] * 3 + ["join", "leave", "language-change"]
        ))
        if kind == "join":
            pid, language = f"q{step}", draw(st.sampled_from(languages))
            roster[pid] = language
        elif not roster:
            continue
        else:
            pid = draw(st.sampled_from(sorted(roster)))
            language = None
            if kind == "leave":
                del roster[pid]
            elif kind == "language-change":
                language = roster[pid] = draw(st.sampled_from(languages))
        events.append(ScenarioEvent(time, kind, pid, language))
    model = {"form": "affine", "params": {"a": 0.8, "b": 0.5},
             "cold_start_extra": draw(st.sampled_from([0.0, 1.25]))}
    return Scenario(
        participants=participants,
        pool_capacity=draw(st.integers(min_value=0, max_value=4)),
        model_spec=model,
        segment_duration=draw(st.sampled_from([1.0, 3.0])),
        run_duration=max(time, 1.0) + draw(st.sampled_from([0.0, 2.5, 9.0])),
        events=events,
        translate_same_language=draw(st.booleans()),
    )


#: Languages of ``larger_meetings``, of which a meeting uses the first 6-10.
LARGER_LANGUAGES = ("ar", "de", "en", "es", "fr", "hi", "it", "ja", "pt", "zh")


@st.composite
def larger_meetings(draw) -> Scenario:
    """Meetings of 8-40 people on 6-10 languages with a pool smaller than
    the language count, so that passes fail to allocate and a hand-off
    re-routes many listeners at once; up to 10 events, several at one
    instant, where a join may bring back an id that left.  The model is the
    exhaustive gate's: T = 0.5 s stalls, 3 s does not."""
    languages = LARGER_LANGUAGES[:draw(st.integers(min_value=6, max_value=10))]
    size = draw(st.integers(min_value=8, max_value=40))
    roster = {f"p{i}": draw(st.sampled_from(languages)) for i in range(size)}
    participants = list(roster.items())
    events, time, rank, departed = [], 0.0, 0, set()
    kinds = [ScenarioEventKind.SPEAKER_CHANGE] * 4 + [
        ScenarioEventKind.JOIN, ScenarioEventKind.LEAVE,
        ScenarioEventKind.LANGUAGE_CHANGE]
    for step in range(draw(st.integers(min_value=0, max_value=10))):
        gap = draw(st.sampled_from([0.0, 0.0, 1.5, 4.0]))
        time, rank = time + gap, rank if gap == 0.0 else 0
        # within an instant, drawn in the order the simulator applies them
        kind = draw(st.sampled_from(
            [k for k in kinds if simulator._KIND_RANK[k] >= rank]))
        rank = simulator._KIND_RANK[kind]
        language = None
        if kind is ScenarioEventKind.JOIN:  # a new id, or one that left
            pid = draw(st.sampled_from([f"q{step}", *sorted(departed)]))
            language = roster[pid] = draw(st.sampled_from(languages))
            departed.discard(pid)
        else:
            pid = draw(st.sampled_from(sorted(roster)))
            if kind is ScenarioEventKind.LEAVE:
                del roster[pid]
                departed.add(pid)
            elif kind is ScenarioEventKind.LANGUAGE_CHANGE:
                language = roster[pid] = draw(st.sampled_from(languages))
        events.append(ScenarioEvent(time, kind, pid, language))
    model = {"form": "affine", "params": {"a": 0.6, "b": 0.68},
             "cold_start_extra": draw(st.sampled_from([0.0, 0.5]))}
    return Scenario(
        participants=participants,
        pool_capacity=draw(st.integers(min_value=1, max_value=len(languages) - 1)),
        model_spec=model,
        segment_duration=draw(st.sampled_from([0.5, 3.0])),
        run_duration=max(time, 1.0) + draw(st.sampled_from([0.0, 2.5])),
        events=events,
        translate_same_language=draw(st.booleans()),
    )


IDS = st.sampled_from(["A", "B", "C", "D"])
TAGS = st.sampled_from(["en", "DE", " fr ", "", "  "])


class TestProperties:
    @given(
        roster=st.lists(st.tuples(IDS, TAGS), max_size=5),
        events=st.lists(
            st.builds(
                ScenarioEvent,
                time=st.sampled_from([-1.0, 0.0, 2.5, 5.0, 11.0]),
                kind=st.sampled_from(list(ScenarioEventKind)),
                participant=IDS,
                language=st.one_of(st.none(), TAGS),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_violations_match_an_independent_replay(self, roster, events):
        scenario = Scenario(
            participants=roster,
            pool_capacity=2,
            model_spec={"form": "affine", "params": {"a": 0.2, "b": 0.5}},
            segment_duration=3.0,
            run_duration=10.0,
            events=events,
        )
        assert validate_scenario(scenario) == replayed_violations(scenario)

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
            assert sample["k"] <= min(capacity, n - 1)
            if sample["k"] >= 1:
                assert sample["naive_cost"] >= n * sample["token_cost"]
        assert report.cost_ratio <= 1.0

    @given(scenario=meetings())
    @settings(max_examples=300, deadline=None)
    def test_shared_schedules_match_per_session_scheduling(self, scenario):
        assume(not validate_scenario(scenario))
        # the published text, so that 0.0 and -0.0 would differ too
        assert dumps_json(report_to_json(run_scenario(scenario))) == dumps_json(
            per_session_report(scenario)
        )

    @given(scenario=larger_meetings())
    @settings(max_examples=500, deadline=None)
    def test_larger_meetings_match_per_session_scheduling(self, scenario):
        assert not validate_scenario(scenario)
        assert dumps_json(report_to_json(run_scenario(scenario))) == dumps_json(
            per_session_report(scenario)
        )

    @given(scenario=st.one_of(meetings(), larger_meetings()))
    @settings(max_examples=200, deadline=None)
    def test_alloc_failures_counts_the_allocation_warnings(self, scenario):
        """A row's ``alloc_failures`` is the number of allocation warnings
        at its time or before.  A segment boundary at an event's time
        belongs to the interval that ends there, so it sorts before that
        time's state point and counts only the warnings before it."""
        assume(not validate_scenario(scenario))
        report = run_scenario(scenario)
        pattern = re.compile(r"allocation failed for language \S+ at "
                             r"t=(\S+) s \(pool capacity \d+\)")
        failed = [float(m[1]) for m in map(pattern.fullmatch, report.warnings)
                  if m]
        assert failed == sorted(failed)
        samples = report.series.samples
        for row, after in zip(samples, [*samples[1:], None]):
            when = row["time_s"]
            last = after is None or after["time_s"] != when  # a state point
            assert row["alloc_failures"] == sum(
                t < when or (last and t == when) for t in failed)
        assert samples[-1]["alloc_failures"] == len(failed)


class TestListenerLedger:
    """A close records its stall on its language's ledger, and a member is
    charged when they stop listening or at the end of the run.  Each case
    takes one settlement path on a stalling model (tau = 1.3) and must give
    the bits of one charge per close, as ``per_session_report`` makes."""

    PEOPLE = [("A", "en"), ("B", "de"), ("C", "de"), ("D", "fr"), ("E", "en")]
    CASES = {
        "late-join": [(0, "speaker-change", "A"), (5, "join", "F", "de"),
                      (8, "speaker-change", "D"), (16, "speaker-change", "A")],
        "mid-session-leave": [(0, "speaker-change", "A"), (5, "leave", "C"),
                              (8, "speaker-change", "D"),
                              (16, "speaker-change", "A")],
        "leave-then-rejoin": [(0, "speaker-change", "A"),
                              (8, "speaker-change", "D"), (10, "leave", "C"),
                              (12, "join", "C", "fr"),
                              (16, "speaker-change", "A")],
        "language-changes": [(0, "speaker-change", "A"),
                             (4, "language-change", "E", "de"),
                             (8, "speaker-change", "D"),
                             (12, "language-change", "E", "en"),
                             (16, "speaker-change", "A")],
        "listener-takes-the-floor-and-hands-it-back": [
            (0, "speaker-change", "A"), (6, "speaker-change", "B"),
            (12, "speaker-change", "A"), (16, "speaker-change", "D")],
        "speaker-changes-language": [(0, "speaker-change", "A"),
                                     (6, "language-change", "A", "de"),
                                     (12, "speaker-change", "D")],
        "speaker-leaves": [(0, "speaker-change", "A"), (6, "leave", "A"),
                           (12, "speaker-change", "D")],
        "speaker-changes-language-then-leaves": [
            (0, "speaker-change", "A"), (4, "language-change", "A", "de"),
            (6, "leave", "A"), (12, "speaker-change", "D")],
        "identity-translation": [(0, "speaker-change", "A"),
                                 (8, "speaker-change", "E"),
                                 (16, "speaker-change", "B")],
    }

    @pytest.mark.parametrize("name", CASES)
    def test_charges_match_one_charge_per_close(self, name):
        scenario = Scenario(
            participants=list(self.PEOPLE),
            pool_capacity=4,
            model_spec={"form": "affine", "params": {"a": 0.8, "b": 0.5},
                        "cold_start_extra": 1.25},
            segment_duration=1.0,
            run_duration=22.0,
            events=[ScenarioEvent(float(t), *rest) for t, *rest in self.CASES[name]],
            translate_same_language=name == "identity-translation",
        )
        stalls = run_scenario(scenario).series.listener_stalls
        expected = per_session_report(scenario)["listener_stalls"]
        assert len(stalls) >= 3
        assert {pid: stall.hex() for pid, stall in stalls.items()} == {
            pid: stall.hex() for pid, stall in expected.items()}

    def test_a_close_reads_no_member_set(self, monkeypatch):
        """Outside the orchestrator, a run reads each language's members
        once at the end, however many hand-offs close its sessions."""
        languages = ["de", "fr", "es", "it", "ja"]
        people = [("A", "en"), ("B", "de")] + [
            (f"L{i:03d}", languages[i % 5]) for i in range(200)]
        calls, orchestrating = [0], [False]
        ids_of, orchestrate = Roster.ids_of, simulator.update_orchestration

        def counted_ids_of(roster, language):
            calls[0] += not orchestrating[0]
            return ids_of(roster, language)

        def flagged_orchestrate(*args, **kwargs):
            orchestrating[0] = True
            try:
                return orchestrate(*args, **kwargs)
            finally:
                orchestrating[0] = False

        monkeypatch.setattr(Roster, "ids_of", counted_ids_of)
        monkeypatch.setattr(simulator, "update_orchestration", flagged_orchestrate)
        counts = []
        for handoffs in (4, 40):
            scenario = Scenario(
                participants=people,
                pool_capacity=8,
                model_spec={"form": "affine", "params": {"a": 0.8, "b": 0.5}},
                segment_duration=1.0,
                run_duration=200.0,
                events=[ScenarioEvent(200.0 * i / handoffs, "speaker-change",
                                      "AB"[i % 2]) for i in range(handoffs)],
            )
            calls[0] = 0
            report = run_scenario(scenario)
            closed = {row["language"] for row in report.series.turn_startups}
            assert len(report.series.turn_startups) > handoffs
            assert calls[0] <= len(closed)
            counts.append(calls[0])
        assert counts[0] == counts[1]


class TestPinnedDefects:
    """Today's report defects, pinned with exact values so that the change
    that mends one must update its test on purpose.  Each names the
    ROADMAP item that mends it."""

    def test_handoff_3_charges_no_one_who_listened_before_taking_the_floor(self):
        # ROADMAP item 6 (hand-off attribution): B listens to de during A's
        # turns, but is settled before each hand-off's closes, so B is never
        # charged
        report = run_scenario(load_scenario(SCENARIO_DIR / "handoff_3.json"))
        assert report.series.listener_stalls == {"A": 0.0, "C": 0.0}

    def test_a_new_speakers_session_reaches_no_one(self):
        # ROADMAP item 6 (hand-off attribution): the de session of A's turn
        # stalls 6.3 s, which counts in the total but is charged to no one
        scenario = Scenario(
            participants=[("A", "en"), ("B", "de"), ("C", "fr")],
            pool_capacity=4,
            model_spec={"form": "affine", "params": {"a": 0.5, "b": 1.2}},
            segment_duration=2.0,
            run_duration=32.0,
            events=[
                ScenarioEvent(time=0.0, kind="speaker-change", participant="A"),
                ScenarioEvent(time=16.0, kind="speaker-change", participant="B"),
            ],
        )
        report = run_scenario(scenario)
        assert report.total_stall_seconds == 25.19999999999999
        assert report.series.listener_stalls == {
            "A": 6.299999999999997, "C": 12.599999999999994}

    def test_a_boundary_after_its_sessions_close(self):
        # ROADMAP item 6 (a boundary after its session's close): the last
        # sample falls after the run's end
        scenario = two_party(
            model_spec={"form": "affine", "params": {"a": 0.05, "b": 0.5}},
            segment_duration=0.2,
            run_duration=0.7,
            events=[ScenarioEvent(time=0.1, kind="speaker-change",
                                  participant="A")],
        )
        report = run_scenario(scenario)
        assert [row["time_s"] for row in report.series.samples] == [
            0.0, 0.1, 0.30000000000000004, 0.5, 0.7, 0.7000000000000001]

    def test_a_language_left_unserved_fails_once_per_pass(self):
        # ROADMAP item 7 (one failure record per unserved interval): each of
        # the four passes at t = 11 warns about ja again, and alloc_failures
        # counts every warning of that instant
        report = run_scenario(
            load_scenario(GOLDEN_DIR / "churn_stalls_6.scenario.json"))
        assert report.warnings.count(
            "allocation failed for language ja at t=11 s (pool capacity 2)") == 4
        counts = [(row["time_s"], row["alloc_failures"])
                  for row in report.series.samples if 9 <= row["time_s"] <= 11]
        assert counts[-3:] == [(11.0, 7), (11.0, 7), (11.0, 14)]
