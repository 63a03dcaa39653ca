"""Every small meeting in a fixed space publishes the same report text from
``run_scenario`` as from ``per_session_report``, the reference in
``tests/test_simulator.py`` that schedules every session on its own.

The space, enumerated in full:

- three starting rosters on the languages de, en and fr: two people on two
  languages, and three people on two or on three languages;
- every list of up to 3 events drawn, with repetition, from a speaker
  change, a leave or a language change (to each language) of ``p0`` or
  ``p1``, a speaker change of ``q``, and a join of ``q`` (in each
  language), each at 0, 2 s or 4 s; several events at one instant, and
  events at the run's end (4 s), are included. A join makes four people.
  Events at one instant are listed in the order the simulator applies
  them, so that no two lists differ only in order;
- of those, the scenarios ``validate_scenario`` accepts: 8468 per roster,
  25 404 in all.

Each accepted scenario runs under one of 32 settings, taken in turn: pool
0-3, ``translate_same_language`` off and on, T = 0.5 s (tau = 1.88, so
sessions stall) or T = 3 s (tau = 0.88, so none does), and a cold start
that costs nothing extra or 0.5 s more.

The model, a = 0.6 and b = 0.68, makes stalls that are not all multiples
of one step, so the order in which the sessions closing at the run's end
add to the running stall total shows in its last bits.
"""

from __future__ import annotations

import itertools

import pytest

from streamring.core import dumps_json
from streamring.simulator import (
    _KIND_RANK,
    Scenario,
    ScenarioEvent,
    ScenarioEventKind,
    report_to_json,
    run_scenario,
    validate_scenario,
)
from tests.test_simulator import per_session_report

LANGUAGES = ("de", "en", "fr")
RUN_DURATION = 4.0
INSTANTS = (0.0, 2.0, RUN_DURATION)
PARAMS = {"a": 0.6, "b": 0.68}  # affine: a T-second segment takes a + b T
ROSTERS = {
    "two-languages": (("p0", "de"), ("p1", "en")),
    "shared-listener": (("p0", "de"), ("p1", "en"), ("p2", "en")),
    "three-languages": (("p0", "de"), ("p1", "en"), ("p2", "fr")),
}
SETTINGS = tuple(itertools.product(
    range(4),  # pool capacity
    (False, True),  # translate_same_language
    (0.5, 3.0),  # segment duration
    (0.0, 0.5),  # cold_start_extra
))
CASES_PER_ROSTER = 8468


def timed_events() -> list[ScenarioEvent]:
    """Every event the lists draw from, in the simulator's application
    order."""
    edits = [
        (kind, pid, None)
        for pid in ("p0", "p1")
        for kind in (ScenarioEventKind.SPEAKER_CHANGE, ScenarioEventKind.LEAVE)
    ]
    edits += [(ScenarioEventKind.LANGUAGE_CHANGE, pid, language)
              for pid in ("p0", "p1") for language in LANGUAGES]
    edits += [(ScenarioEventKind.JOIN, "q", language) for language in LANGUAGES]
    edits.append((ScenarioEventKind.SPEAKER_CHANGE, "q", None))
    events = [ScenarioEvent(time, kind, pid, language)
              for time in INSTANTS for kind, pid, language in edits]
    events.sort(key=lambda e: (e.time, _KIND_RANK[e.kind], e.participant,
                               e.language or ""))
    return events


def small_meetings(roster: tuple[tuple[str, str], ...]) -> list[Scenario]:
    """The accepted scenarios of ``roster``, each with its turn of the
    settings."""
    accepted: list[Scenario] = []
    pool = timed_events()
    for count in range(4):
        for events in itertools.combinations_with_replacement(pool, count):
            capacity, same, segment, cold = SETTINGS[len(accepted) % len(SETTINGS)]
            scenario = Scenario(
                participants=list(roster),
                pool_capacity=capacity,
                model_spec={"form": "affine", "params": PARAMS,
                            "cold_start_extra": cold},
                segment_duration=segment,
                run_duration=RUN_DURATION,
                events=list(events),
                translate_same_language=same,
            )
            if not validate_scenario(scenario):
                accepted.append(scenario)
    return accepted


@pytest.mark.parametrize("roster", ROSTERS.values(), ids=ROSTERS.keys())
def test_every_small_meeting_matches_per_session_scheduling(roster):
    scenarios = small_meetings(roster)
    assert len(scenarios) == CASES_PER_ROSTER
    mismatched = [
        scenario for scenario in scenarios
        # the published text, so that 0.0 and -0.0 would differ too
        if dumps_json(report_to_json(run_scenario(scenario)))
        != dumps_json(per_session_report(scenario))
    ]
    assert not mismatched, (
        f"{len(mismatched)} of {len(scenarios)} differ; the first: "
        f"{mismatched[0]}")
