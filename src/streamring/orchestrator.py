"""Speaker-turn orchestration: per-turn reconciliation of the pipeline set.

On every active-speaker change the meeting reconciles its translation
pipelines against the languages listeners actually need.  Pipelines are
keyed by target language, so the running count is bounded by the number of
distinct listener languages, never by the number of participant pairs.

The transition is deterministic: languages are visited in normalized
lexicographic order, stale pipelines are released before new ones are
allocated (so scarce slots reach newly required languages), and a full pool
produces an allocation-failed event for the affected language instead of
aborting the pass; the error is logged once per unserved interval, by the
pass that leaves the language unserved after one that did not.  Listeners
who share the speaker's language receive the raw stream via bypass unless
the meeting's ``translate_same_language`` mode gives them an identity
pipeline.  Decommissioning a pipeline drops its entry from
``Meeting.pipelines``, the one record of live pipelines.

A pass costs O(k + L), never a scan of the roster: the required languages
come from the roster's language index in O(L), and a pass stores only the
speaker, the live pipelines, their source language and the required
languages left without one (``Meeting.unserved``).  The language that
hears the raw stream (``Meeting.raw_language``), each listener's pipeline
(``Meeting.delivery``) and the ids that hear the raw stream are read-only
properties, derived on each read from those, the mode and the roster, so
they reflect the current roster and pipelines even between passes, and a
pass touches no member but the new speaker.

A pass reports only its pipeline decisions: one event per pipeline it
decommissions, allocates or fails to allocate, and ``pipeline-reused`` per
kept pipeline only when the floor or the source language moves.  The
speaker is the caller's own argument and the outgoing speaker's pipeline
is ``Meeting.delivery[outgoing]``, so neither is an event.  It emits
nothing per listener, so its events number O(k + L) whatever the roster's
size; a membership pass, which keeps the floor and the source, visits in
Python only the Δ languages it changes and the u still unserved: O(Δ + u).
"""

from __future__ import annotations

import logging
from enum import Enum
from functools import partial
from typing import NamedTuple, Optional

from .core import (
    LanguageTag,
    Meeting,
    UnknownParticipantError,
)

__all__ = [
    "EventKind",
    "OrchestrationEvent",
    "required_languages",
    "update_orchestration",
    "verify_invariants",
]

logger = logging.getLogger(__name__)

class EventKind(str, Enum):
    PIPELINE_ALLOCATED = "pipeline-allocated"
    PIPELINE_REUSED = "pipeline-reused"
    PIPELINE_DECOMMISSIONED = "pipeline-decommissioned"
    ALLOCATION_FAILED = "allocation-failed"


# Module globals: ``EventKind.X`` is an Enum class lookup (about 140 ns on
# Python 3.10 and 3.11), and a pass makes an event per language.
_ALLOCATED = EventKind.PIPELINE_ALLOCATED
_REUSED = EventKind.PIPELINE_REUSED
_DECOMMISSIONED = EventKind.PIPELINE_DECOMMISSIONED
_ALLOCATION_FAILED = EventKind.ALLOCATION_FAILED


class OrchestrationEvent(NamedTuple):
    """One pipeline decision of an orchestration pass, for ``language``.

    It carries no time, speaker or listener: the time is the caller's own
    step, and the outgoing speaker's pipeline is ``Meeting.delivery``.
    ``pipeline_id`` is None for allocation-failed.  ``reinitialized`` is
    meaningful only for pipeline-reused: True when the speaker's language
    differs from the previous pass's, so the pipeline is re-pointed at a
    new source language and restarts cold.
    """

    kind: EventKind
    language: LanguageTag
    pipeline_id: Optional[str] = None
    reinitialized: bool = False


# An event built in C, every field given: a NamedTuple's generated
# ``__new__`` is Python code, and a pass makes an event per language.
_event = partial(tuple.__new__, OrchestrationEvent)


def required_languages(
    meeting: Meeting, speaker: Optional[str]
) -> set[LanguageTag]:
    """Distinct languages of the non-speakers; the speaker's own language is
    excluded unless the meeting's ``translate_same_language`` is set and
    another member speaks it.  ``speaker=None`` (no one holds the floor)
    requires nothing.  Costs O(L) in the number of distinct languages: it
    reads the roster's language index."""
    if speaker is None:
        return set()
    roster = meeting.participants
    if speaker not in roster:
        raise UnknownParticipantError(f"unknown participant id {speaker!r}")
    langs = roster.languages()
    language = roster[speaker]
    if not meeting.translate_same_language or len(roster.ids_of(language)) == 1:
        langs.discard(language)
    return langs


def update_orchestration(
    meeting: Meeting, new_speaker: Optional[str]
) -> tuple[Meeting, list[OrchestrationEvent]]:
    """Atomically hand the floor to ``new_speaker`` and reconcile pipelines.

    Returns the (mutated in place) meeting and the events of this pass.
    ``new_speaker=None`` releases the floor: every pipeline is decommissioned,
    so no one is delivered.  An unknown speaker id raises before any state
    is touched.
    """
    events: list[OrchestrationEvent] = []
    roster = meeting.participants
    required = required_languages(meeting, new_speaker)
    previous = meeting.active_speaker
    meeting.active_speaker = new_speaker
    speaker_language = roster[new_speaker] if new_speaker else None
    pipelines = meeting.pipelines

    # Stale first: released slots must be reusable within this same pass.
    for language in sorted(set(pipelines) - required):
        events.append(_event((_DECOMMISSIONED, language,
                               pipelines.pop(language), False)))

    reinitialized = meeting.source_language != speaker_language
    meeting.source_language = speaker_language
    # floor and source kept: a kept pipeline is no news, visit the rest
    if previous == new_speaker and not reinitialized:
        required.difference_update(pipelines)
    unserved: list[LanguageTag] = []
    for language in sorted(required):
        pipeline_id = pipelines.get(language)
        if pipeline_id is not None:
            events.append(_event((
                _REUSED, language, pipeline_id, reinitialized)))
        elif meeting.free_slots <= 0:
            unserved.append(language)
            events.append(_event((_ALLOCATION_FAILED, language, None, False)))
        else:
            pipelines[language] = meeting.new_pipeline_id()
            events.append(_event((
                _ALLOCATED, language, pipelines[language], False)))

    # one record per unserved interval, not per pass: a LogRecord is built
    # for each call even when no handler will emit it
    kept = meeting.unserved
    if unserved or kept:
        meeting.unserved = frozenset(unserved)
        opened = [language for language in unserved if language not in kept]
        if opened:
            logger.error("no free pipeline slot for languages %s (capacity %d)",
                         ", ".join(opened), meeting.pool_capacity)
    return meeting, events


def verify_invariants(
    meeting: Meeting, *, translate_same_language: bool = False
) -> list[str]:
    """Check the structural guarantees of an orchestrated meeting.

    Returns human-readable violation descriptions; an empty list means the
    state is consistent.  Violations are data, not errors: the checker never
    raises on bad state.  It checks what a pass stores (the speaker,
    ``source_language``, ``pipelines``, ``unserved`` and the pool) and
    costs O(k + L): ``raw_language`` and each listener's pipeline are
    derived from those, the meeting's mode and the roster, so they have
    nothing to check.
    ``translate_same_language`` is ignored, the meeting holding the mode;
    it is accepted, without a warning, for the benchmark's checked pass.
    """
    violations: list[str] = []
    roster = meeting.participants
    pipelines = meeting.pipelines
    speaker = meeting.active_speaker
    if speaker is not None and speaker not in roster:
        violations.append(f"active speaker {speaker!r} is not a member")
        speaker = None  # the rest is checked as with no one on the floor

    # 1. Source: the pipelines translate from the speaker's language, and
    #    the raw stream's audience (``raw_language``) follows it.
    source = None if speaker is None else roster[speaker]
    if meeting.source_language != source:
        violations.append(
            f"the pipelines translate from {meeting.source_language!r}, "
            f"expected {source!r}"
        )

    # 2. Minimal allocation: one pipeline per required language, short only
    #    when the pool ran dry.
    required = required_languages(meeting, speaker)
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
    if len(set(pipelines.values())) != len(pipelines):
        violations.append("a pipeline id serves more than one language")

    # 3. The unserved record: the required languages without a pipeline.
    unserved = required - mapped
    if meeting.unserved != unserved:
        violations.append(
            f"languages recorded as unserved: "
            f"{', '.join(sorted(meeting.unserved)) or 'none'}, expected "
            f"{', '.join(sorted(unserved)) or 'none'}"
        )
    return violations
