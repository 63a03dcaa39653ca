"""Orchestration-transition tests.

Oracle policy: pipeline counts are checked against a brute-force
required-language recount that never touches orchestrator code; small
meetings (N <= 4 over a 4-tag alphabet) are enumerated exhaustively, and
randomized speaker-change sequences re-verify the structural invariants
after every transition.
"""

from __future__ import annotations

import itertools
import logging
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from streamring.core import (
    LanguageTag,
    Meeting,
    Roster,
    UnknownParticipantError,
)
from streamring.orchestrator import (
    EventKind,
    OrchestrationEvent,
    required_languages,
    update_orchestration,
    verify_invariants,
)

logger = logging.getLogger("streamring.orchestrator")

# -- brute-force oracle -----------------------------------------------------


def oracle_required(
    members: dict[str, str], speaker: str, same_language_filter: bool = True
) -> set[str]:
    langs = {lang for pid, lang in members.items() if pid != speaker}
    if same_language_filter:
        langs -= {members[speaker]}
    return langs


def make_meeting(
    members: dict[str, str], capacity: int, translate_same_language: bool = False
) -> Meeting:
    return Meeting(participants=members, pool_capacity=capacity,
                   translate_same_language=translate_same_language)


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
        m = make_meeting({"A": "en", "B": "en", "C": "de"}, 4, True)
        assert required_languages(m, "A") == {LanguageTag("en"), LanguageTag("de")}
        # a lone speaker of their language gets no identity pipeline
        assert required_languages(m, "C") == {LanguageTag("en")}

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
        # one event per pipeline, none for the speaker or per listener
        assert count(events, EventKind.PIPELINE_ALLOCATED) == 2
        assert len(events) == 2
        de_pipe = m.pipelines[LanguageTag("de")]
        tr_pipe = m.pipelines[LanguageTag("tr")]
        # each pipeline -> listener route, and the raw stream feeds exactly
        # the pipelines that deliver to someone
        assert m.delivery == {"B": de_pipe, "C": de_pipe, "D": tr_pipe}
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

    def test_events_are_whole_instances_of_their_class(self):
        # a pass builds its records without the class constructor
        # B takes the floor from A, whose language gets the one slot
        m = make_meeting({"A": "en", "B": "de", "C": "fr"}, 1)
        events = [event for speaker in ["A", "B", "C"]
                  for event in update_orchestration(m, speaker)[1]]
        assert {event.kind for event in events} == set(EventKind)
        fields = OrchestrationEvent._fields
        for event in events:
            assert type(event) is OrchestrationEvent
            assert len(event) == len(fields)
            assert event == OrchestrationEvent(*event)
            assert repr(event) == repr(OrchestrationEvent(*event))
        assert repr(events[0]) == (
            "OrchestrationEvent(kind=<EventKind.PIPELINE_ALLOCATED: "
            "'pipeline-allocated'>, language='de', pipeline_id='pl0001', "
            "reinitialized=False)")

    def test_monolingual_meeting_all_bypass(self):
        m = make_meeting({"A": "en", "B": "en"}, 4)
        _, events = update_orchestration(m, "A")
        assert m.pipelines == {}
        assert m.delivery == {}
        assert m.bypass == {"A", "B"}
        assert count(events, EventKind.PIPELINE_ALLOCATED) == 0
        assert verify_invariants(m) == []

    def test_identity_translation_flag(self):
        m = make_meeting({"A": "en", "B": "en"}, 4, translate_same_language=True)
        update_orchestration(m, "A")
        assert set(m.pipelines) == {LanguageTag("en")}
        assert m.raw_language is None
        assert m.bypass == {"A"}
        assert verify_invariants(m) == []

    def test_scarcity_fails_lexicographically_last(self):
        m = make_meeting({"A": "en", "B": "de", "C": "tr", "D": "fr"}, 2)
        _, events = update_orchestration(m, "A")
        # de < fr < tr: the two slots go to de and fr, tr reports failure
        assert set(m.pipelines) == {LanguageTag("de"), LanguageTag("fr")}
        assert langs_of(events, EventKind.ALLOCATION_FAILED) == {LanguageTag("tr")}
        assert m.delivery == {"B": m.pipelines[LanguageTag("de")],
                              "D": m.pipelines[LanguageTag("fr")]}
        assert verify_invariants(m) == []

    def test_one_log_record_per_unserved_interval(self, caplog):
        # pool 1: each step's pass, the languages its record names (none:
        # no record) and the languages it leaves unserved, which its
        # allocation-failed events name at every pass
        m = make_meeting({"A": "en", "B": "ja", "C": "tr", "D": "fr", "E": "de"}, 1)

        def join(pid, language):
            m.participants[pid] = language
            return m.active_speaker

        def leave(pid):
            del m.participants[pid]
            return m.active_speaker

        steps = [
            # the interval opens: de takes the slot, three languages fail
            (lambda: "A", "fr, ja, tr", "fr ja tr"),
            # a membership pass keeps them unserved: no record
            (lambda: join("F", "ja"), None, "fr ja tr"),
            # a hand-off to tr's one speaker drops tr from the required set
            # and opens en
            (lambda: "C", "en", "en fr ja"),
            # de's one member leaves and en, first in order, takes the slot
            (lambda: leave("E"), None, "fr ja"),
            # back to A: en's slot goes to fr, and tr is required again
            (lambda: "A", "tr", "ja tr"),
            # fr's one member leaves and ja is served: partly served
            (lambda: leave("D"), None, "tr"),
            # tr's one member leaves: the interval closes
            (lambda: leave("C"), None, ""),
            # and reopens when tr is required again
            (lambda: join("C", "tr"), "tr", "tr"),
            # releasing the floor closes every interval
            (lambda: None, None, ""),
            (lambda: "A", "tr", "tr"),
        ]
        for index, (step, named, unserved) in enumerate(steps):
            caplog.clear()
            with caplog.at_level("ERROR", logger="streamring.orchestrator"):
                _, events = update_orchestration(m, step())
            assert [r.getMessage() for r in caplog.records] == (
                [] if named is None else
                [f"no free pipeline slot for languages {named} (capacity 1)"]
            ), index
            assert [e.language for e in events
                    if e.kind is EventKind.ALLOCATION_FAILED] == unserved.split()
            assert m.unserved == {LanguageTag(code) for code in unserved.split()}
            assert verify_invariants(m) == []

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
        assert m.delivery == {}
        assert m.bypass == set()
        assert [e.kind for e in events] == [EventKind.PIPELINE_DECOMMISSIONED]
        assert m.free_slots == 4
        assert verify_invariants(m) == []

    def test_idempotent_second_pass(self):
        m = make_meeting({"A": "en", "B": "de", "C": "tr"}, 4)
        update_orchestration(m, "A")
        delivery_before = m.delivery
        map_before = dict(m.pipelines)
        _, events = update_orchestration(m, "A")
        assert m.delivery == delivery_before
        assert m.pipelines == map_before
        # the floor and the source stay put: no kept pipeline is reported
        assert events == []
        assert m.source_language == LanguageTag("en")

    def test_a_membership_pass_reports_only_the_languages_it_changes(self):
        m = make_meeting({"A": "en", "B": "de", "C": "tr", "D": "ja"}, 3)
        update_orchestration(m, "A")
        m.participants["E"] = "fr"  # no slot left for fr
        _, events = update_orchestration(m, "A")
        assert [(e.kind, e.language) for e in events] == [
            (EventKind.ALLOCATION_FAILED, LanguageTag("fr")),
        ]
        del m.participants["C"]  # tr's slot goes to fr
        _, events = update_orchestration(m, "A")
        assert [(e.kind, e.language) for e in events] == [
            (EventKind.PIPELINE_DECOMMISSIONED, LanguageTag("tr")),
            (EventKind.PIPELINE_ALLOCATED, LanguageTag("fr")),
        ]
        assert verify_invariants(m) == []

    def test_outgoing_speaker_gets_the_reused_identity_pipeline(self):
        m = make_meeting({"A": "en", "B": "en", "C": "de"}, 4, True)
        update_orchestration(m, "A")
        en_pipe = m.pipelines[LanguageTag("en")]
        _, events = update_orchestration(m, "C")
        # the outgoing speaker's route is read from the delivery, not an event
        assert m.delivery == {"A": en_pipe, "B": en_pipe}
        reused = [e for e in events if e.kind is EventKind.PIPELINE_REUSED]
        assert [(e.language, e.pipeline_id) for e in reused] == [
            (LanguageTag("en"), en_pipe)]

    def test_delivery_follows_roster_edits_between_passes(self):
        m = make_meeting({"A": "en", "B": "de", "C": "tr"}, 4)
        update_orchestration(m, "A")
        de_pipe = m.pipelines[LanguageTag("de")]
        m.participants["D"] = "DE"
        m.participants["C"] = "de"
        del m.participants["B"]
        assert m.delivery == {"C": de_pipe, "D": de_pipe}
        with pytest.raises(TypeError):
            Meeting(participants={"A": "en"}, pool_capacity=1, delivery={})

    def test_raw_language_is_derived_from_the_source_and_the_mode(self):
        m = make_meeting({"A": "en", "B": "en", "C": "de"}, 4)
        update_orchestration(m, "A")
        assert m.raw_language == LanguageTag("en")
        m.translate_same_language = True
        assert m.raw_language is None
        assert m.bypass == {"A"}
        with pytest.raises(AttributeError):
            m.raw_language = LanguageTag("en")
        with pytest.raises(TypeError):
            Meeting(participants={"A": "en"}, pool_capacity=1, raw_language=None)

    def test_a_join_pass_reads_no_member_of_the_speakers_language(self):
        m = make_meeting({"A": "en", "B": "en", "C": "de"}, 4)
        update_orchestration(m, "A")
        m.participants["D"] = "de"
        roster = m.participants
        read: list[LanguageTag] = []

        def ids_of(language, original=roster.ids_of):
            read.append(language)
            return original(language)

        roster.ids_of = ids_of  # on the instance, shadowing the method
        update_orchestration(m, "A")
        assert LanguageTag("en") not in read
        assert m.bypass == {"A", "B"}

    def test_a_join_reaches_the_raw_stream_before_the_next_pass(self):
        m = make_meeting({"A": "en", "B": "de"}, 4)
        update_orchestration(m, "A")
        m.participants["C"] = "EN"
        assert m.bypass == {"A", "C"}
        del m.participants["C"]
        assert m.bypass == {"A"}

    def test_warm_reuse_when_source_language_unchanged(self):
        m = make_meeting({"A": "en", "B": "en", "C": "de"}, 4)
        update_orchestration(m, "A")
        _, events = update_orchestration(m, "B")  # still an en speaker
        reused = [e for e in events if e.kind is EventKind.PIPELINE_REUSED]
        assert [e.reinitialized for e in reused] == [False]
        assert m.delivery == {"C": reused[0].pipeline_id}  # C's route unchanged
        assert m.bypass == {"A", "B"}

    def test_speaker_language_change_reinitializes(self):
        m = make_meeting({"A": "en", "B": "de", "C": "tr"}, 4)
        update_orchestration(m, "A")
        m.participants["A"] = "fr"
        _, events = update_orchestration(m, "A")
        reused = [e for e in events if e.kind is EventKind.PIPELINE_REUSED]
        assert [e.reinitialized for e in reused] == [True, True]
        assert m.source_language == LanguageTag("fr")

    def test_a_pass_takes_no_time(self):
        # the time is the caller's own step: a pass neither takes nor
        # echoes it, and the keyword raises before any state is touched
        m = make_meeting({"A": "en", "B": "de"}, 4)
        with pytest.raises(TypeError):
            update_orchestration(m, "A", time=12.5)
        assert m.active_speaker is None and m.pipelines == {}

    def test_events_are_immutable_with_their_fields_and_defaults(self):
        fr = LanguageTag("fr")
        event = OrchestrationEvent(EventKind.ALLOCATION_FAILED, fr)
        assert OrchestrationEvent._fields == (
            "kind", "language", "pipeline_id", "reinitialized")
        assert event == OrchestrationEvent(
            kind=EventKind.ALLOCATION_FAILED, language=fr, pipeline_id=None,
            reinitialized=False,
        )
        for name in OrchestrationEvent._fields:
            with pytest.raises(AttributeError):
                setattr(event, name, None)
        with pytest.raises(TypeError):  # every decision is for a language
            OrchestrationEvent(EventKind.ALLOCATION_FAILED)
        assert [kind.value for kind in EventKind] == [
            "pipeline-allocated", "pipeline-reused",
            "pipeline-decommissioned", "allocation-failed"]

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
        # the speaker is never delivered, even from an identity pipeline
        m = make_meeting({"A": "en", "B": "en", "C": "de"}, 4, True)
        update_orchestration(m, "A")
        assert set(m.delivery) == {"B", "C"}
        # a speaker stored without a pass, whose language has a pipeline
        m = self._orchestrated()
        m.active_speaker = "B"
        assert "B" not in m.delivery
        assert verify_invariants(m) == [
            "the pipelines translate from 'en', expected 'de'",
            "pipelines kept for unrequired languages: de",
            "languages recorded as unserved: none, expected en",
        ]

    def test_raw_stream_to_another_language(self):
        m = self._orchestrated()
        m.source_language = LanguageTag("de")
        assert m.bypass == {"A", "B"}
        assert "the pipelines translate from 'de', expected 'en'" in (
            verify_invariants(m))

    def test_raw_stream_under_identity_translation(self):
        m = make_meeting({"A": "en", "B": "en", "C": "de"}, 4, True)
        update_orchestration(m, "A")
        assert verify_invariants(m) == []
        assert m.bypass == {"A"}
        m.source_language = LanguageTag("de")
        assert m.bypass == {"A"}  # no raw stream reaches de either
        assert verify_invariants(m) == [
            "the pipelines translate from 'de', expected 'en'"]

    def test_stale_source_under_identity_translation(self):
        # A changes language with no pass since: no raw stream is misrouted,
        # yet every pipeline still translates from en
        m = make_meeting({"A": "en", "B": "en", "C": "de"}, 4, True)
        update_orchestration(m, "A")
        m.participants["A"] = "fr"
        assert m.bypass == {"A"}
        expected = ["the pipelines translate from 'en', expected 'fr'"]
        assert verify_invariants(m) == expected
        # the keyword is ignored, and warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_invariants(m, translate_same_language=False) == expected

    def test_raw_stream_left_on_after_the_speaker_leaves(self):
        m = self._orchestrated()
        del m.participants["A"]
        m.active_speaker = None  # no pass since
        assert "the pipelines translate from 'en', expected None" in (
            verify_invariants(m))

    def test_speaker_who_left_with_no_pass_since(self):
        m = make_meeting({"A": "en", "B": "de"}, 4)
        update_orchestration(m, "A")
        del m.participants["A"]
        assert verify_invariants(m) == [
            "active speaker 'A' is not a member",
            "the pipelines translate from 'en', expected None",
            "pipelines kept for unrequired languages: de",
        ]

    def test_unserved_record_out_of_step(self):
        # fr fails to allocate: the record holds exactly the required
        # languages without a pipeline
        m = make_meeting({"A": "en", "B": "de", "C": "fr"}, 1)
        update_orchestration(m, "A")
        assert m.unserved == {LanguageTag("fr")}
        m.unserved = frozenset()
        assert verify_invariants(m) == [
            "languages recorded as unserved: none, expected fr"]
        m.unserved = frozenset({LanguageTag("de"), LanguageTag("fr")})
        assert verify_invariants(m) == [
            "languages recorded as unserved: de, fr, expected fr"]

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
        # a pipeline a pass decommissions leaves every route at once
        m = self._orchestrated()
        pid = m.pipelines[LanguageTag("de")]
        update_orchestration(m, "B")
        assert pid not in m.delivery.values()
        # put back under its stale language, it is a pipeline kept for nothing
        m.pipelines[LanguageTag("de")] = pid
        assert "B" not in m.delivery
        assert verify_invariants(m) == [
            "pipelines kept for unrequired languages: de"]

    def test_under_allocation_with_free_slots(self):
        m = self._orchestrated()
        pid = m.pipelines.pop(LanguageTag("de"))
        assert pid not in m.delivery.values()
        assert "B" not in m.delivery
        assert verify_invariants(m) == [
            "1 pipelines for 2 required languages with free slots remaining",
            "languages recorded as unserved: none, expected de",
        ]

    def test_listener_fed_another_language(self):
        # fr failed to allocate, so C is undelivered until C switches to de
        m = make_meeting({"A": "en", "B": "de", "C": "fr"}, 1)
        update_orchestration(m, "A")
        assert verify_invariants(m) == []
        assert m.delivery == {"B": "pl0001"}
        m.participants["C"] = "de"
        assert m.delivery == {"B": "pl0001", "C": "pl0001"}
        # fr is no longer required, but only a pass rewrites the record
        assert verify_invariants(m) == [
            "languages recorded as unserved: fr, expected none"]
        update_orchestration(m, "A")
        assert m.unserved == frozenset()
        assert verify_invariants(m) == []
        # a pipeline map that feeds fr the de pipeline
        m.participants["C"] = "fr"
        m.pipelines[LanguageTag("fr")] = "pl0001"
        assert m.delivery == {"B": "pl0001", "C": "pl0001"}
        assert verify_invariants(m) == [
            "2 live pipelines exceed pool capacity 1",
            "a pipeline id serves more than one language",
        ]

    def test_delivery_to_a_non_member(self):
        # a member who leaves is undelivered at once; their language's
        # pipeline is stale until the next pass
        m = self._orchestrated()
        del m.participants["B"]
        assert set(m.delivery) == {"C"}
        assert verify_invariants(m) == [
            "pipelines kept for unrequired languages: de"]

    def test_listener_moved_onto_the_raw_stream(self):
        m = make_meeting({"A": "en", "B": "de", "C": "de"}, 2)
        update_orchestration(m, "A")
        assert verify_invariants(m) == []
        m.source_language = LanguageTag("de")
        assert m.bypass == {"A", "B", "C"}
        assert verify_invariants(m) == [
            "the pipelines translate from 'de', expected 'en'"]

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
            m.delivery,
            set(m.bypass),
        )
        _, events = update_orchestration(m, speaker)
        assert (
            dict(m.pipelines),
            m.delivery,
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
        m = make_meeting(members, capacity, translate_same_language)
        speaker = None
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
            update_orchestration(m, speaker)
            expected = scratch_delivery(m, speaker, translate_same_language)
            assert m.delivery == expected
            assert verify_invariants(m) == []


def reference_pass(
    meeting: Meeting, new_speaker, *, translate_same_language: bool
) -> tuple[list[OrchestrationEvent], set[str]]:
    """The O(N) pass: the required languages counted over the whole roster.
    Returns its events and the ids that hear the raw stream, found by a
    scan of the roster, and stores the required languages left without a
    pipeline as ``meeting.unserved``."""
    events: list[OrchestrationEvent] = []
    roster = meeting.participants
    required: set[LanguageTag] = set()
    speaker_language = None
    if new_speaker is not None:
        speaker_language = roster[new_speaker]
        required = {lang for pid, lang in roster.items() if pid != new_speaker}
        if not translate_same_language or speaker_language not in required:
            required.discard(speaker_language)
    outgoing = meeting.active_speaker
    meeting.active_speaker = new_speaker
    pipelines = meeting.pipelines
    for language in sorted(set(pipelines) - required):
        events.append(OrchestrationEvent(
            kind=EventKind.PIPELINE_DECOMMISSIONED,
            language=language, pipeline_id=pipelines.pop(language)))
    reinitialized = meeting.source_language != speaker_language
    meeting.source_language = speaker_language
    for language in sorted(required):
        if language in pipelines:
            # a kept pipeline is news only when the floor or the source moves
            if outgoing != new_speaker or reinitialized:
                events.append(OrchestrationEvent(
                    kind=EventKind.PIPELINE_REUSED,
                    language=language, pipeline_id=pipelines[language],
                    reinitialized=reinitialized))
        elif meeting.free_slots <= 0:
            events.append(OrchestrationEvent(
                kind=EventKind.ALLOCATION_FAILED, language=language))
        else:
            pipelines[language] = meeting.new_pipeline_id()
            events.append(OrchestrationEvent(
                kind=EventKind.PIPELINE_ALLOCATED,
                language=language, pipeline_id=pipelines[language]))
    meeting.unserved = frozenset(
        lang for lang in required if lang not in pipelines)
    bypass: set[str] = set()
    if new_speaker is not None:
        bypass.add(new_speaker)
        if not translate_same_language:
            bypass.update(
                pid for pid, lang in roster.items() if lang == speaker_language
            )
    return events, bypass


def scanned_delivery(m: Meeting) -> dict[str, str]:
    """Each listener's pipeline, found by a scan of the roster: every member
    but the speaker whose language has a pipeline."""
    return {pid: m.pipelines[lang] for pid, lang in m.participants.items()
            if pid != m.active_speaker and lang in m.pipelines}


def state_of(m: Meeting) -> tuple:
    return (m.active_speaker, m.pipelines, m.source_language, m.pipeline_seq,
            m.unserved)


class ErrorMessages(logging.Handler):
    """The messages of the error records that reach it, in order."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


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
        # Both meetings read one roster; the reference is told the mode
        # by argument, not by the field under test.
        m = make_meeting(members, capacity, translate_same_language)
        reference = Meeting(participants=m.participants, pool_capacity=capacity)
        ids = [f"p{i}" for i in range(10)]
        speaker = None
        for _ in range(data.draw(st.integers(min_value=1, max_value=16))):
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
            # between passes the derived views follow the edits
            assert m.delivery == scanned_delivery(m)
            # then the floor: kept, released or handed to anyone present
            speaker = data.draw(st.sampled_from(
                [speaker, None, *sorted(m.participants)]))
            handler = ErrorMessages()
            logger.addHandler(handler)
            try:
                _, events = update_orchestration(m, speaker)
            finally:
                logger.removeHandler(handler)
            unserved = reference.unserved
            expected, hears_raw = reference_pass(
                reference, speaker,
                translate_same_language=translate_same_language,
            )
            assert events == expected
            # one record, naming the languages unserved since this pass
            opened = ", ".join(sorted(reference.unserved - unserved))
            assert handler.messages == ([
                f"no free pipeline slot for languages {opened} "
                f"(capacity {capacity})"] if opened else [])
            assert state_of(m) == state_of(reference)
            assert m.bypass == hears_raw
            assert m.delivery == scanned_delivery(reference)
