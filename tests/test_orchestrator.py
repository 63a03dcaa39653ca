"""Orchestration-transition tests.

Oracle policy: pipeline counts are checked against a brute-force
required-language recount that never touches orchestrator code; small
meetings (N <= 4 over a 4-tag alphabet) are enumerated exhaustively, and
randomized speaker-change sequences re-verify the structural invariants
after every transition.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from streamring.core import (
    SPEAKER_RAW,
    LanguageTag,
    Meeting,
    Roster,
    Route,
    UnknownParticipantError,
)
from streamring.orchestrator import (
    EventKind,
    OrchestrationEvent,
    required_languages,
    update_orchestration,
    verify_invariants,
)

# -- brute-force oracle -----------------------------------------------------


def oracle_required(
    members: dict[str, str], speaker: str, same_language_filter: bool = True
) -> set[str]:
    langs = {lang for pid, lang in members.items() if pid != speaker}
    if same_language_filter:
        langs -= {members[speaker]}
    return langs


def make_meeting(members: dict[str, str], capacity: int) -> Meeting:
    return Meeting(participants=members, pool_capacity=capacity)


def count(events, kind: EventKind) -> int:
    return sum(1 for e in events if e.kind is kind)


def langs_of(events, kind: EventKind) -> set[LanguageTag]:
    return {e.language for e in events if e.kind is kind}


class TestRequiredLanguages:
    def test_duplicates_collapse(self):
        m = make_meeting({"A": "en", "B": "de", "C": "de"}, 4)
        assert required_languages(m, "A") == {LanguageTag("de")}

    def test_same_language_filter(self):
        m = make_meeting({"A": "en", "B": "en"}, 4)
        assert required_languages(m, "A") == set()
        assert required_languages(m, "A", translate_same_language=True) == {
            LanguageTag("en")
        }

    def test_multiple_languages(self):
        m = make_meeting({"A": "en", "B": "de", "C": "tr"}, 4)
        assert required_languages(m, "A") == {LanguageTag("de"), LanguageTag("tr")}

    def test_no_speaker_requires_nothing(self):
        m = make_meeting({"A": "en", "B": "de"}, 4)
        assert required_languages(m, None) == set()

    def test_unknown_speaker(self):
        m = make_meeting({"A": "en"}, 4)
        with pytest.raises(UnknownParticipantError):
            required_languages(m, "Z")


class TestUpdateOrchestration:
    def test_shared_language_pipelines(self):
        m = make_meeting({"A": "en", "B": "de", "C": "de", "D": "tr"}, 4)
        _, events = update_orchestration(m, "A")
        assert set(m.pipelines) == {LanguageTag("de"), LanguageTag("tr")}
        assert count(events, EventKind.PIPELINE_ALLOCATED) == 2
        assert count(events, EventKind.ROUTE_ADDED) == 3
        assert count(events, EventKind.SPEAKER_BYPASSED) == 1
        assert count(events, EventKind.PIPELINE_DECOMMISSIONED) == 0
        assert count(events, EventKind.ALLOCATION_FAILED) == 0
        de_pipe = m.pipelines[LanguageTag("de")]
        assert Route(source=de_pipe, destination="B") in m.routes
        assert Route(source=de_pipe, destination="C") in m.routes
        assert Route(source=SPEAKER_RAW, destination=de_pipe) in m.routes
        assert m.bypass == {"A"}
        assert verify_invariants(m) == []

    def test_speaker_handoff(self):
        m = make_meeting({"A": "en", "B": "de", "C": "de", "D": "tr"}, 4)
        update_orchestration(m, "A")
        tr_pipe_before = m.pipelines[LanguageTag("tr")]
        _, events = update_orchestration(m, "B")
        # B speaks de: C joins bypass, de pipeline goes stale, en is new,
        # tr is kept but re-pointed at the new source language
        assert set(m.pipelines) == {LanguageTag("en"), LanguageTag("tr")}
        assert count(events, EventKind.PIPELINE_DECOMMISSIONED) == 1
        assert langs_of(events, EventKind.PIPELINE_DECOMMISSIONED) == {
            LanguageTag("de")
        }
        assert count(events, EventKind.PIPELINE_ALLOCATED) == 1
        reused = [e for e in events if e.kind is EventKind.PIPELINE_REUSED]
        assert [e.reinitialized for e in reused] == [True]
        assert m.pipelines[LanguageTag("tr")] == tr_pipe_before
        assert m.bypass == {"B", "C"}
        assert verify_invariants(m) == []

    def test_monolingual_meeting_all_bypass(self):
        m = make_meeting({"A": "en", "B": "en"}, 4)
        _, events = update_orchestration(m, "A")
        assert m.pipelines == {}
        assert m.routes == set()
        assert m.bypass == {"A", "B"}
        assert count(events, EventKind.PIPELINE_ALLOCATED) == 0
        assert verify_invariants(m) == []

    def test_identity_translation_flag(self):
        m = make_meeting({"A": "en", "B": "en"}, 4)
        update_orchestration(m, "A", translate_same_language=True)
        assert set(m.pipelines) == {LanguageTag("en")}
        assert m.bypass == {"A"}
        assert verify_invariants(m, translate_same_language=True) == []

    def test_scarcity_fails_lexicographically_last(self):
        m = make_meeting({"A": "en", "B": "de", "C": "tr", "D": "fr"}, 2)
        _, events = update_orchestration(m, "A")
        # de < fr < tr: the two slots go to de and fr, tr reports failure
        assert set(m.pipelines) == {LanguageTag("de"), LanguageTag("fr")}
        assert langs_of(events, EventKind.ALLOCATION_FAILED) == {LanguageTag("tr")}
        assert not any(r.destination == "C" for r in m.routes)
        assert any(r.destination == "D" for r in m.routes)
        assert verify_invariants(m) == []

    def test_one_log_record_per_pass(self, caplog):
        m = make_meeting({"A": "en", "B": "ja", "C": "tr", "D": "fr", "E": "de"}, 1)
        with caplog.at_level("ERROR", logger="streamring.orchestrator"):
            _, events = update_orchestration(m, "A")
        failed = [e.language for e in events if e.kind is EventKind.ALLOCATION_FAILED]
        assert failed == [LanguageTag(code) for code in ("fr", "ja", "tr")]
        assert [r.getMessage() for r in caplog.records] == [
            "no free pipeline slot for languages fr, ja, tr (capacity 1)"
        ]
        caplog.clear()
        with caplog.at_level("ERROR", logger="streamring.orchestrator"):
            update_orchestration(m, None)  # nothing required, nothing logged
        assert caplog.records == []

    def test_failed_language_retried_after_slot_frees(self):
        m = make_meeting({"A": "en", "B": "de", "C": "tr", "D": "fr"}, 2)
        update_orchestration(m, "A")
        _, events = update_orchestration(m, "D")
        # fr goes stale and frees a slot; en takes it; tr still over capacity
        assert set(m.pipelines) == {LanguageTag("de"), LanguageTag("en")}
        assert langs_of(events, EventKind.PIPELINE_DECOMMISSIONED) == {
            LanguageTag("fr")
        }
        assert langs_of(events, EventKind.PIPELINE_ALLOCATED) == {LanguageTag("en")}
        assert langs_of(events, EventKind.ALLOCATION_FAILED) == {LanguageTag("tr")}
        assert verify_invariants(m) == []

    def test_unknown_speaker_leaves_state_untouched(self):
        m = make_meeting({"A": "en", "B": "de"}, 4)
        update_orchestration(m, "A")
        before_map = dict(m.pipelines)
        with pytest.raises(UnknownParticipantError):
            update_orchestration(m, "Z")
        assert m.active_speaker == "A"
        assert m.pipelines == before_map

    def test_releasing_the_floor(self):
        m = make_meeting({"A": "en", "B": "de"}, 4)
        update_orchestration(m, "A")
        _, events = update_orchestration(m, None)
        assert m.pipelines == {}
        assert m.routes == set()
        assert m.bypass == set()
        assert count(events, EventKind.PIPELINE_DECOMMISSIONED) == 1
        assert count(events, EventKind.SPEAKER_BYPASSED) == 0
        assert m.free_slots == 4
        assert verify_invariants(m) == []

    def test_idempotent_second_pass(self):
        m = make_meeting({"A": "en", "B": "de", "C": "tr"}, 4)
        update_orchestration(m, "A")
        routes_before = set(m.routes)
        map_before = dict(m.pipelines)
        _, events = update_orchestration(m, "A")
        assert m.routes == routes_before
        assert m.pipelines == map_before
        assert count(events, EventKind.PIPELINE_ALLOCATED) == 0
        assert count(events, EventKind.PIPELINE_DECOMMISSIONED) == 0
        assert count(events, EventKind.ROUTE_ADDED) == 0
        reused = [e for e in events if e.kind is EventKind.PIPELINE_REUSED]
        assert len(reused) == 2 and not any(e.reinitialized for e in reused)

    def test_outgoing_speaker_gets_the_reused_identity_pipeline(self):
        m = make_meeting({"A": "en", "B": "en", "C": "de"}, 4)
        update_orchestration(m, "A", translate_same_language=True)
        en_pipe = m.pipelines[LanguageTag("en")]
        _, events = update_orchestration(m, "C", translate_same_language=True)
        assert m.delivery == {"A": en_pipe, "B": en_pipe}
        added = [e for e in events if e.kind is EventKind.ROUTE_ADDED]
        assert [(e.participant, e.pipeline_id) for e in added] == [("A", en_pipe)]

    def test_warm_reuse_when_source_language_unchanged(self):
        m = make_meeting({"A": "en", "B": "en", "C": "de"}, 4)
        update_orchestration(m, "A")
        _, events = update_orchestration(m, "B")  # still an en speaker
        reused = [e for e in events if e.kind is EventKind.PIPELINE_REUSED]
        assert [e.reinitialized for e in reused] == [False]
        assert count(events, EventKind.ROUTE_ADDED) == 0  # C's route unchanged
        assert m.bypass == {"A", "B"}

    def test_speaker_language_change_reinitializes(self):
        m = make_meeting({"A": "en", "B": "de", "C": "tr"}, 4)
        update_orchestration(m, "A")
        m.participants["A"] = "fr"
        _, events = update_orchestration(m, "A")
        reused = [e for e in events if e.kind is EventKind.PIPELINE_REUSED]
        assert [e.reinitialized for e in reused] == [True, True]
        assert m.source_language == LanguageTag("fr")

    def test_events_carry_timestamp(self):
        m = make_meeting({"A": "en", "B": "de"}, 4)
        _, events = update_orchestration(m, "A", time=12.5)
        assert events and all(e.time == 12.5 for e in events)

    def test_events_are_immutable_with_their_fields_and_defaults(self):
        event = OrchestrationEvent(EventKind.ROUTE_ADDED)
        assert OrchestrationEvent._fields == (
            "kind", "time", "language", "pipeline_id", "participant",
            "reinitialized",
        )
        assert event == OrchestrationEvent(
            kind=EventKind.ROUTE_ADDED, time=0.0, language=None,
            pipeline_id=None, participant=None, reinitialized=False,
        )
        for name in OrchestrationEvent._fields:
            with pytest.raises(AttributeError):
                setattr(event, name, None)
        assert event.time == 0.0 and event.kind is EventKind.ROUTE_ADDED

    def test_retired_pipelines_are_forgotten(self):
        m = make_meeting({"A": "en", "B": "de"}, 4)
        update_orchestration(m, "A")
        pid = m.pipelines[LanguageTag("de")]
        update_orchestration(m, "B")
        assert pid not in m.pipelines.values()
        assert list(m.pipelines) == [LanguageTag("en")]
        for speaker in ["A", "B"] * 10:
            update_orchestration(m, speaker)
        assert len(m.pipelines) == 1
        assert m.free_slots == 3


class TestVerifyInvariants:
    def _orchestrated(self) -> Meeting:
        m = make_meeting({"A": "en", "B": "de", "C": "tr"}, 4)
        update_orchestration(m, "A")
        return m

    def test_clean_state(self):
        assert verify_invariants(self._orchestrated()) == []

    def test_speaker_consuming_a_pipeline(self):
        m = self._orchestrated()
        pid = m.pipelines[LanguageTag("de")]
        m.delivery["A"] = pid
        assert Route(source=pid, destination="A") in m.routes
        assert any("speaker" in v for v in verify_invariants(m))

    def test_speaker_missing_from_bypass(self):
        m = self._orchestrated()
        m.bypass.discard("A")
        assert any("bypass" in v for v in verify_invariants(m))

    def test_duplicate_pipeline_for_language(self):
        m = self._orchestrated()
        pipeline_map = m.pipelines
        pipeline_map[LanguageTag("tr")] = pipeline_map[LanguageTag("de")]
        assert any("more than one language" in v for v in verify_invariants(m))

    def test_stale_pipeline_after_language_change(self):
        m = self._orchestrated()
        m.participants["B"] = "fr"
        assert any("unrequired" in v for v in verify_invariants(m))

    def test_route_to_decommissioned_pipeline(self):
        m = self._orchestrated()
        pid = m.pipelines.pop(LanguageTag("de"))
        dangling = [v for v in verify_invariants(m) if f"{pid!r}, which is not live" in v]
        assert len(dangling) == 2  # SPEAKER_RAW -> pid and pid -> B

    def test_under_allocation_with_free_slots(self):
        m = self._orchestrated()
        pid = m.pipelines.pop(LanguageTag("de"))
        m.delivery = {
            listener: p for listener, p in m.delivery.items() if p != pid
        }
        assert not any(pid in (r.source, r.destination) for r in m.routes)
        assert any("free slots" in v for v in verify_invariants(m))

    def test_listener_fed_another_language(self):
        m = make_meeting({"A": "en", "B": "de", "C": "fr"}, 1)
        update_orchestration(m, "A")
        assert verify_invariants(m) == []
        m.delivery["C"] = m.pipelines[LanguageTag("de")]
        assert any("'C' is fed pipeline 'pl0001', which does not translate "
                   "into their language fr" in v for v in verify_invariants(m))

    def test_delivery_to_a_non_member(self):
        m = self._orchestrated()
        m.delivery["Z"] = m.pipelines[LanguageTag("de")]
        assert any("'Z', who is not a member" in v for v in verify_invariants(m))

    def test_listener_moved_onto_the_raw_stream(self):
        m = make_meeting({"A": "en", "B": "de", "C": "de"}, 2)
        update_orchestration(m, "A")
        assert verify_invariants(m) == []
        m.bypass.add("C")
        m.delivery.pop("C")
        violations = verify_invariants(m)
        assert any("'C' hears the raw stream" in v for v in violations)
        assert any("listener 'C' has 0 routes" in v for v in violations)

    def test_same_language_listener_missing_from_bypass(self):
        m = make_meeting({"A": "en", "B": "en", "C": "de"}, 2)
        update_orchestration(m, "A")
        m.bypass.discard("B")
        assert any("'B' shares the speaker's language" in v
                   for v in verify_invariants(m))

    def test_over_capacity(self):
        m = make_meeting({"A": "en", "B": "de", "C": "tr"}, 2)
        update_orchestration(m, "A")
        assert verify_invariants(m) == []
        m.pool_capacity = 1
        assert m.free_slots == -1
        assert any("exceed pool capacity 1" in v for v in verify_invariants(m))


ALPHABET = ["de", "en", "fr", "tr"]


class TestExhaustiveSmallMeetings:
    def test_pipeline_count_matches_oracle(self):
        # every meeting of 2..4 members over a 4-tag alphabet, every speaker
        checked = 0
        for n in range(2, 5):
            ids = [f"p{i}" for i in range(n)]
            for assignment in itertools.product(ALPHABET, repeat=n):
                members = dict(zip(ids, assignment))
                for speaker in ids:
                    m = make_meeting(members, capacity=n)
                    update_orchestration(m, speaker)
                    expected = oracle_required(members, speaker)
                    assert set(m.pipelines) == {
                        LanguageTag(lang) for lang in expected
                    }
                    assert verify_invariants(m) == []
                    assert m.free_slots + len(m.pipelines) == n
                    checked += 1
        assert checked == sum(n * 4**n for n in range(2, 5))


LANGUAGES = ["de", "en", "es", "fr", "it", "tr"]

participants_strategy = st.dictionaries(
    keys=st.sampled_from([f"p{i}" for i in range(8)]),
    values=st.sampled_from(LANGUAGES),
    min_size=2,
    max_size=8,
)


class TestProperties:
    @given(members=participants_strategy, data=st.data())
    @settings(max_examples=200)
    def test_speaker_change_sequences_stay_consistent(self, members, data):
        n = len(members)
        m = make_meeting(members, capacity=n)
        ids = sorted(members)
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            speaker = data.draw(st.sampled_from(ids))
            update_orchestration(m, speaker)
            expected = oracle_required(members, speaker)
            assert len(m.pipelines) == len(expected)
            assert len(m.pipelines) <= n - 1
            assert m.free_slots + len(m.pipelines) == n
            assert verify_invariants(m) == []

    @given(members=participants_strategy, capacity=st.integers(min_value=0, max_value=3))
    @settings(max_examples=200)
    def test_scarce_pool_allocates_up_to_capacity(self, members, capacity):
        m = make_meeting(members, capacity=capacity)
        speaker = sorted(members)[0]
        _, events = update_orchestration(m, speaker)
        expected = oracle_required(members, speaker)
        assert len(m.pipelines) == min(capacity, len(expected))
        failures = [e for e in events if e.kind is EventKind.ALLOCATION_FAILED]
        assert len(failures) == len(expected) - len(m.pipelines)
        assert verify_invariants(m) == []

    @given(members=participants_strategy)
    @settings(max_examples=100)
    def test_second_pass_is_a_fixed_point(self, members):
        m = make_meeting(members, capacity=len(members))
        speaker = sorted(members)[-1]
        update_orchestration(m, speaker)
        snapshot = (
            dict(m.pipelines),
            set(m.routes),
            set(m.bypass),
        )
        _, events = update_orchestration(m, speaker)
        assert (
            dict(m.pipelines),
            set(m.routes),
            set(m.bypass),
        ) == snapshot
        assert count(events, EventKind.PIPELINE_ALLOCATED) == 0
        assert count(events, EventKind.PIPELINE_DECOMMISSIONED) == 0

    @given(
        members=participants_strategy,
        capacity=st.integers(min_value=0, max_value=4),
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_reinitialized_iff_speaker_language_changed(
        self, members, capacity, data
    ):
        # Roster edits are applied before the pass, as the simulator does.
        m = make_meeting(members, capacity)
        roster = dict(members)
        speaker = None
        previous_language = None  # the speaker's language at the previous pass
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            op = data.draw(
                st.sampled_from(
                    ["speak", "join", "leave", "language", "speaker-language"]
                )
            )
            if op == "speak":
                speaker = data.draw(st.sampled_from([None, *sorted(roster)]))
            elif op == "join":
                pid = data.draw(st.sampled_from([f"p{i}" for i in range(10)]))
                roster[pid] = data.draw(st.sampled_from(LANGUAGES))
            elif op == "leave" and roster:
                pid = data.draw(st.sampled_from(sorted(roster)))
                del roster[pid]
                if pid == speaker:
                    speaker = None
            elif op == "language" and roster:
                pid = data.draw(st.sampled_from(sorted(roster)))
                roster[pid] = data.draw(st.sampled_from(LANGUAGES))
            elif op == "speaker-language" and speaker is not None:
                roster[speaker] = data.draw(st.sampled_from(LANGUAGES))
            m.participants = Roster(roster)
            _, events = update_orchestration(m, speaker)
            language = roster[speaker] if speaker is not None else None
            for event in events:
                if event.kind is EventKind.PIPELINE_REUSED:
                    assert event.reinitialized == (language != previous_language)
            previous_language = language
            assert len(m.pipelines) <= capacity
            assert verify_invariants(m) == []


def scratch_delivery(
    m: Meeting, speaker, translate_same_language: bool
) -> dict[str, str]:
    """Each listener's pipeline, recomputed from the whole roster."""
    if speaker is None:
        return {}
    speaker_language = m.participants[speaker]
    return {
        pid: m.pipelines[language]
        for pid, language in m.participants.items()
        if pid != speaker
        and (translate_same_language or language != speaker_language)
        and language in m.pipelines
    }


def rebuilt_routes(
    m: Meeting, speaker, translate_same_language: bool
) -> set[Route]:
    """The route set a full rebuild over the sorted roster produces."""
    routes: set[Route] = set()
    if speaker is None:
        return routes
    speaker_language = m.participants[speaker]
    for pid in sorted(m.participants):
        language = m.participants[pid]
        if pid == speaker:
            continue
        if not translate_same_language and language == speaker_language:
            continue
        if language not in m.pipelines:
            continue
        pipeline_id = m.pipelines[language]
        routes.add(Route(source=SPEAKER_RAW, destination=pipeline_id))
        routes.add(Route(source=pipeline_id, destination=pid))
    return routes


# mixed case: tags that differ only in case must share one index entry
CASED_LANGUAGES = [*LANGUAGES, "EN", "De"]


class TestRosterIndex:
    @given(data=st.data())
    @settings(max_examples=300)
    def test_index_matches_a_fresh_grouping(self, data):
        m = make_meeting({}, 4)
        ids = [f"p{i}" for i in range(8)]
        for _ in range(data.draw(st.integers(min_value=1, max_value=20))):
            op = data.draw(st.sampled_from(["set", "delete", "reassign"]))
            if op == "set":
                pid = data.draw(st.sampled_from(ids))
                m.participants[pid] = data.draw(st.sampled_from(CASED_LANGUAGES))
            elif op == "delete" and m.participants:
                del m.participants[data.draw(st.sampled_from(sorted(m.participants)))]
            elif op == "reassign":
                members = data.draw(
                    st.dictionaries(
                        st.sampled_from(ids), st.sampled_from(CASED_LANGUAGES)
                    )
                )
                m.participants = Roster(members)
            grouping: dict[LanguageTag, set[str]] = {}
            for pid, language in m.participants.items():
                grouping.setdefault(language, set()).add(pid)
            roster = m.participants
            index = {lang: set(roster.ids_of(lang)) for lang in roster.languages()}
            assert index == grouping
            assert roster.ids_of(LanguageTag("xx")) == set()

    @given(
        members=participants_strategy,
        capacity=st.integers(min_value=0, max_value=4),
        translate_same_language=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_routes_match_a_full_rebuild(
        self, members, capacity, translate_same_language, data
    ):
        # Roster edits in place, as the simulator makes them, then a pass.
        m = make_meeting(members, capacity)
        speaker = None
        previous: dict[str, str] = {}
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            op = data.draw(
                st.sampled_from(
                    ["speak", "join", "leave", "language", "speaker-language"]
                )
            )
            roster = m.participants
            if op == "speak":
                speaker = data.draw(st.sampled_from([None, *sorted(roster)]))
            elif op in ("join", "language", "speaker-language"):
                if op == "join":
                    pid = data.draw(st.sampled_from([f"p{i}" for i in range(10)]))
                elif op == "language" and roster:
                    pid = data.draw(st.sampled_from(sorted(roster)))
                elif op == "speaker-language" and speaker is not None:
                    pid = speaker
                else:
                    continue
                roster[pid] = data.draw(st.sampled_from(LANGUAGES))
            elif op == "leave" and roster:
                pid = data.draw(st.sampled_from(sorted(roster)))
                del roster[pid]
                if pid == speaker:
                    speaker = None
            _, events = update_orchestration(
                m, speaker, translate_same_language=translate_same_language
            )
            expected = scratch_delivery(m, speaker, translate_same_language)
            added = [e.participant for e in events if e.kind is EventKind.ROUTE_ADDED]
            assert added == sorted(
                pid for pid, p in expected.items() if previous.get(pid) != p
            )
            assert m.delivery == expected
            assert m.routes == rebuilt_routes(
                m, speaker, translate_same_language
            )
            assert verify_invariants(
                m, translate_same_language=translate_same_language
            ) == []
            previous = expected


def reference_pass(
    meeting: Meeting, new_speaker, *, time: float, translate_same_language: bool
) -> list[OrchestrationEvent]:
    """The O(N) pass: the required languages counted over the whole roster,
    and every listener's delivery rebuilt, then diffed against the last."""
    events: list[OrchestrationEvent] = []
    roster = meeting.participants
    required: set[LanguageTag] = set()
    speaker_language = None
    if new_speaker is not None:
        speaker_language = roster[new_speaker]
        required = {lang for pid, lang in roster.items() if pid != new_speaker}
        if not translate_same_language or speaker_language not in required:
            required.discard(speaker_language)
    meeting.active_speaker = new_speaker
    pipelines = meeting.pipelines
    for language in sorted(set(pipelines) - required):
        events.append(OrchestrationEvent(
            kind=EventKind.PIPELINE_DECOMMISSIONED, time=time,
            language=language, pipeline_id=pipelines.pop(language)))
    reinitialized = meeting.source_language != speaker_language
    meeting.source_language = speaker_language
    for language in sorted(required):
        if language in pipelines:
            events.append(OrchestrationEvent(
                kind=EventKind.PIPELINE_REUSED, time=time, language=language,
                pipeline_id=pipelines[language], reinitialized=reinitialized))
        elif meeting.free_slots <= 0:
            events.append(OrchestrationEvent(
                kind=EventKind.ALLOCATION_FAILED, time=time, language=language))
        else:
            pipelines[language] = meeting.new_pipeline_id()
            events.append(OrchestrationEvent(
                kind=EventKind.PIPELINE_ALLOCATED, time=time,
                language=language, pipeline_id=pipelines[language]))
    bypass: set[str] = set()
    if new_speaker is not None:
        bypass.add(new_speaker)
        if not translate_same_language:
            bypass.update(
                pid for pid, lang in roster.items() if lang == speaker_language
            )
        events.append(OrchestrationEvent(
            kind=EventKind.SPEAKER_BYPASSED, time=time,
            participant=new_speaker, language=speaker_language))
    delivery = {
        pid: pipelines[lang]
        for pid, lang in roster.items()
        if pid != new_speaker and lang in pipelines
    }
    previous = meeting.delivery
    for pid in sorted(p for p, pipe in delivery.items() if previous.get(p) != pipe):
        events.append(OrchestrationEvent(
            kind=EventKind.ROUTE_ADDED, time=time,
            language=roster[pid], pipeline_id=delivery[pid],
            participant=pid))
    meeting.delivery = delivery
    meeting.bypass = bypass
    return events


def state_of(m: Meeting) -> tuple:
    return (m.active_speaker, m.delivery, m.bypass, m.pipelines,
            m.source_language, m.pipeline_seq)


class TestAgainstTheFullPass:
    @given(
        members=participants_strategy,
        capacity=st.integers(min_value=0, max_value=4),
        translate_same_language=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=400)
    def test_events_and_state_match_the_full_pass(
        self, members, capacity, translate_same_language, data
    ):
        # Both meetings read one roster; only the incremental pass takes its
        # edits.
        m = make_meeting(members, capacity)
        reference = Meeting(participants=m.participants, pool_capacity=capacity)
        ids = [f"p{i}" for i in range(10)]
        speaker = None
        for step in range(data.draw(st.integers(min_value=1, max_value=16))):
            op = data.draw(st.sampled_from(
                ["pass", "join", "leave", "language", "speaker-language",
                 "replace"]
            ))
            roster = m.participants
            if op == "join":
                pid = data.draw(st.sampled_from(ids))
                roster[pid] = data.draw(st.sampled_from(CASED_LANGUAGES))
            elif op in ("language", "speaker-language", "leave") and roster:
                pid = (speaker if op == "speaker-language" and speaker is not None
                       else data.draw(st.sampled_from(sorted(roster))))
                if op == "leave":
                    del roster[pid]
                    if pid == speaker:
                        speaker = None
                else:
                    roster[pid] = data.draw(st.sampled_from(CASED_LANGUAGES))
            elif op == "replace":
                kept = data.draw(st.dictionaries(
                    st.sampled_from(ids), st.sampled_from(CASED_LANGUAGES)))
                m.participants = reference.participants = Roster(kept)
                if speaker not in kept:
                    speaker = None
            # then the floor: kept, released or handed to anyone present
            speaker = data.draw(st.sampled_from(
                [speaker, None, *sorted(m.participants)]))
            _, events = update_orchestration(
                m, speaker, time=float(step),
                translate_same_language=translate_same_language,
            )
            expected = reference_pass(
                reference, speaker, time=float(step),
                translate_same_language=translate_same_language,
            )
            assert events == expected
            assert state_of(m) == state_of(reference)
