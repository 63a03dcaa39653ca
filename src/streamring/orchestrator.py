"""Speaker-turn orchestration: per-turn reconciliation of the pipeline set.

On every active-speaker change the meeting reconciles its translation
pipelines against the languages listeners actually need.  Pipelines are
keyed by target language, so the running count is bounded by the number of
distinct listener languages, never by the number of participant pairs.

The transition is deterministic: languages are visited in normalized
lexicographic order, stale pipelines are released before new ones are
allocated (so scarce slots reach newly required languages), and a full pool
produces an allocation-failed event for the affected language instead of
aborting the pass.  Listeners who share the speaker's language receive the
raw stream via bypass unless ``translate_same_language`` forces an identity
pipeline for them.  Decommissioning a pipeline drops its entry from
``Meeting.pipelines``, the one record of live pipelines.

A pass costs O(k + L + edits since the last pass), never a scan of the
roster: the required languages come from the roster's language index in
O(L), and the meeting stores only each listener's pipeline (``delivery``),
which the pass updates in place, and the one language that hears the raw
stream (``raw_language``).  The members of a language it decommissions
or allocates are updated by language; the ids the roster edited since the
last pass and both speakers are re-resolved one by one.  A roster assigned
in place of another makes the next pass re-resolve every id.  The stream
routes and the ids that hear the raw stream are derived on demand and are
never stored, so a pass's cost does not grow with the speaker's language.
"""

from __future__ import annotations

import logging
from enum import Enum
from functools import partial
from typing import NamedTuple, Optional

from .core import (
    SPEAKER_RAW,
    LanguageTag,
    Meeting,
    Route,
    UnknownParticipantError,
)

__all__ = [
    "EventKind",
    "OrchestrationEvent",
    "Route",
    "required_languages",
    "update_orchestration",
    "verify_invariants",
]

logger = logging.getLogger(__name__)

class EventKind(str, Enum):
    PIPELINE_ALLOCATED = "pipeline-allocated"
    PIPELINE_REUSED = "pipeline-reused"
    PIPELINE_DECOMMISSIONED = "pipeline-decommissioned"
    ROUTE_ADDED = "route-added"
    ALLOCATION_FAILED = "allocation-failed"
    SPEAKER_BYPASSED = "speaker-bypassed"


# Module globals: ``EventKind.X`` is an Enum class lookup (about 140 ns on
# Python 3.10 and 3.11), and a pass makes an event per route it adds.
_ALLOCATED = EventKind.PIPELINE_ALLOCATED
_REUSED = EventKind.PIPELINE_REUSED
_DECOMMISSIONED = EventKind.PIPELINE_DECOMMISSIONED
_ROUTE_ADDED = EventKind.ROUTE_ADDED
_ALLOCATION_FAILED = EventKind.ALLOCATION_FAILED
_BYPASSED = EventKind.SPEAKER_BYPASSED


class OrchestrationEvent(NamedTuple):
    """One observable effect of an orchestration pass.

    ``time`` is the caller's virtual timestamp (the simulator clock).
    ``reinitialized`` is meaningful only for pipeline-reused: True when the
    speaker's language differs from the previous pass's, so the pipeline is
    re-pointed at a new source language and restarts cold.
    """

    kind: EventKind
    time: float = 0.0
    language: Optional[LanguageTag] = None
    pipeline_id: Optional[str] = None
    participant: Optional[str] = None
    reinitialized: bool = False


# An event built in C, every field given: a NamedTuple's generated
# ``__new__`` is Python code, and a pass makes an event per route it adds.
_event = partial(tuple.__new__, OrchestrationEvent)


def required_languages(
    meeting: Meeting,
    speaker: Optional[str],
    *,
    translate_same_language: bool = False,
) -> set[LanguageTag]:
    """Distinct languages of the non-speakers; the speaker's own language is
    excluded unless identity translation is requested.  ``speaker=None``
    (no one holds the floor) requires nothing.  Costs O(L) in the number of
    distinct languages: it reads the roster's language index."""
    if speaker is None:
        return set()
    roster = meeting.participants
    if speaker not in roster:
        raise UnknownParticipantError(f"unknown participant id {speaker!r}")
    langs = roster.languages()
    language = roster[speaker]
    if not translate_same_language or len(roster.ids_of(language)) == 1:
        langs.discard(language)
    return langs


def update_orchestration(
    meeting: Meeting,
    new_speaker: Optional[str],
    *,
    time: float = 0.0,
    translate_same_language: bool = False,
) -> tuple[Meeting, list[OrchestrationEvent]]:
    """Atomically hand the floor to ``new_speaker`` and reconcile pipelines.

    Returns the (mutated in place) meeting and the events of this pass.
    ``new_speaker=None`` releases the floor: every pipeline is decommissioned
    and all deliveries dropped.  An unknown speaker id raises before any
    state is touched.
    """
    events: list[OrchestrationEvent] = []
    roster = meeting.participants
    required = required_languages(
        meeting, new_speaker, translate_same_language=translate_same_language
    )
    # ``delivery`` changes only for the members of a language decommissioned
    # or allocated here, updated by language, and for the roster's edits and
    # both speakers, re-resolved one by one.
    delivery = meeting.delivery
    added: set[str] = set()
    resolve = roster.take_edits()
    if meeting._delivered is not roster:
        resolve.update(delivery, roster)
        meeting._delivered = roster
    speakers = {meeting.active_speaker, new_speaker} - {None}
    meeting.active_speaker = new_speaker
    speaker_language = roster[new_speaker] if new_speaker else None
    pipelines = meeting.pipelines

    # Stale first: released slots must be reusable within this same pass.
    for language in sorted(set(pipelines) - required):
        events.append(_event((_DECOMMISSIONED, time, language,
                               pipelines.pop(language), None, False)))
        for participant_id in roster.ids_of(language):
            delivery.pop(participant_id, None)

    reinitialized = meeting.source_language != speaker_language
    meeting.source_language = speaker_language
    unserved: list[LanguageTag] = []
    for language in sorted(required):
        pipeline_id = pipelines.get(language)
        if pipeline_id is not None:
            events.append(_event((
                _REUSED, time, language, pipeline_id, None, reinitialized)))
        elif meeting.free_slots <= 0:
            unserved.append(language)
            events.append(_event((
                _ALLOCATION_FAILED, time, language, None, None, False)))
        else:
            pipelines[language] = meeting.new_pipeline_id()
            events.append(_event((
                _ALLOCATED, time, language, pipelines[language], None, False)))
            listeners = roster.ids_of(language)
            delivery.update(dict.fromkeys(listeners, pipelines[language]))
            added.update(listeners)

    if unserved:
        # one record per pass, not per language: a LogRecord is built for
        # each call even when no handler will emit it
        logger.error(
            "no free pipeline slot for languages %s (capacity %d)",
            ", ".join(unserved),
            meeting.pool_capacity,
        )

    meeting.raw_language = None if translate_same_language else speaker_language
    if new_speaker is not None:
        events.append(_event((
            _BYPASSED, time, speaker_language, None, new_speaker, False)))
    # Every mapped language is required, so every listener of one is
    # outside the bypass set; a listener whose language failed to allocate
    # stays undelivered, and so does an identity pipeline's own speaker.
    resolve -= added  # they hold their language's new pipeline
    for participant_id in resolve | speakers:
        pipeline_id = (
            pipelines.get(roster.get(participant_id))  # None for a non-member
            if participant_id != new_speaker
            else None
        )
        if pipeline_id is None:
            delivery.pop(participant_id, None)
            added.discard(participant_id)
        elif delivery.get(participant_id) != pipeline_id:
            delivery[participant_id] = pipeline_id
            added.add(participant_id)
    for participant_id in sorted(added):
        events.append(_event((
            _ROUTE_ADDED, time, roster[participant_id],
            delivery[participant_id], participant_id, False)))
    return meeting, events


def verify_invariants(
    meeting: Meeting, *, translate_same_language: bool = False
) -> list[str]:
    """Check the structural guarantees of an orchestrated meeting.

    Returns human-readable violation descriptions; an empty list means the
    state is consistent.  Violations are data, not errors: the checker never
    raises on bad state.  Costs O(N + k): it reads ``meeting.delivery``,
    ``meeting.raw_language`` and the roster's language index, never the
    derived routes or ``bypass``.
    """
    violations: list[str] = []
    roster = meeting.participants
    delivery = meeting.delivery
    pipelines = meeting.pipelines
    speaker = meeting.active_speaker
    if speaker is not None and speaker not in roster:
        violations.append(f"active speaker {speaker!r} is not a member")
        speaker = None  # the rest is checked as with no one on the floor

    # 1. Speaker bypass: the speaker is never a pipeline consumer, and the
    #    raw stream reaches only the speaker and, unless identity
    #    translation is on, the members of the speaker's language.
    if speaker in delivery:
        violations.append(
            f"active speaker {speaker!r} consumes route from "
            f"{delivery[speaker]!r}"
        )
    raw_language = (None if translate_same_language or speaker is None
                    else roster.get(speaker))
    if meeting.raw_language != raw_language:
        violations.append(
            f"the raw stream reaches language {meeting.raw_language!r}, "
            f"expected {raw_language!r}"
        )

    # 2. Minimal allocation: one pipeline per required language, short only
    #    when the pool ran dry.
    required = required_languages(
        meeting, speaker, translate_same_language=translate_same_language
    )
    mapped = set(pipelines)
    if not mapped <= required:
        extra = ", ".join(sorted(mapped - required))
        violations.append(f"pipelines kept for unrequired languages: {extra}")
    if len(mapped) < len(required) and meeting.free_slots > 0:
        violations.append(
            f"{len(mapped)} pipelines for {len(required)} required languages "
            "with free slots remaining"
        )
    if meeting.free_slots < 0:
        violations.append(
            f"{len(mapped)} live pipelines exceed pool capacity "
            f"{meeting.pool_capacity}"
        )
    live = set(pipelines.values())
    if len(live) != len(pipelines):
        violations.append("a pipeline id serves more than one language")

    # 3. Every pipeline a route names is live.  The routes are one
    #    SPEAKER_RAW -> pipeline per delivering pipeline and one
    #    pipeline -> listener per delivery.
    feeds = [(SPEAKER_RAW, p, p) for p in dict.fromkeys(delivery.values())]
    outputs = [(p, pid, p) for pid, p in delivery.items()]
    for source, destination, pipeline_id in feeds + outputs:
        if pipeline_id not in live:
            violations.append(
                f"route {source!r}->{destination!r} references "
                f"pipeline {pipeline_id!r}, which is not live"
            )

    # 4. Each delivery feeds a member the pipeline of their own language.
    for participant_id, pipeline_id in delivery.items():
        language = roster.get(participant_id)
        if language is None:
            violations.append(
                f"pipeline {pipeline_id!r} feeds {participant_id!r}, "
                "who is not a member"
            )
        elif pipelines.get(language) != pipeline_id:
            violations.append(
                f"listener {participant_id!r} is fed pipeline {pipeline_id!r}, "
                f"which does not translate into their language {language}"
            )

    # Routing completeness: every listener whose language has a pipeline is
    # fed by exactly one route from it.
    unfed = sorted(
        (participant_id, pipeline_id)
        for language, pipeline_id in pipelines.items()
        for participant_id in roster.ids_of(language)
        if participant_id != speaker
        and delivery.get(participant_id) != pipeline_id
    )
    for participant_id, pipeline_id in unfed:
        violations.append(
            f"listener {participant_id!r} has 0 routes from "
            f"pipeline {pipeline_id!r}, expected exactly 1"
        )
    return violations
