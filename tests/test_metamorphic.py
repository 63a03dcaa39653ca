"""Metamorphic relations over whole runs (ROADMAP item 12): each relation
transforms a scenario and states how the report text,
``dumps_json(report_to_json(run_scenario(scenario)))``, must change.  It
checks the simulator against itself, with no second implementation.

* R1: shuffling the participant list leaves the report unchanged.
* R2: prefixing every normalized language code with ``zz-``, which keeps
  their order, changes only ``turn_startups[*].language`` and the language
  named in each allocation warning.
* R3: a pool of n + 1 or n + 7 gives the report of a pool of n, where n is
  the number of distinct languages in the roster and the events.

The scenario digest hashes the scenario itself, so every relation leaves it
out.  Each runs on the shipped and golden scenarios and on the simulator
tests' hypothesis meetings, skipping draws that ``validate_scenario``
rejects.  The roster's sets and the pool's allocations iterate in string
hash order, so CI runs this module under two string hash seeds as well.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings

from streamring.core import LanguageTag, dumps_json
from streamring.simulator import (
    Scenario,
    load_scenario,
    report_to_json,
    run_scenario,
    validate_scenario,
)
from tests.test_simulator import larger_meetings, meetings

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted([*(ROOT / "scenarios").glob("*.json"),
                    *(ROOT / "tests" / "golden").glob("*.scenario.json")])
ALLOCATION_FAILED = "allocation failed for language "


def report(scenario: Scenario, rename=lambda payload: payload) -> str:
    """The report's JSON text without its digest, after ``rename`` has had
    the payload."""
    payload = report_to_json(run_scenario(scenario))
    return dumps_json(dict(rename(payload), scenario_digest=None))


def shuffled_roster(scenario: Scenario) -> None:
    """R1."""
    expected = report(scenario)
    for seed in range(3):
        participants = list(scenario.participants)
        random.Random(seed).shuffle(participants)
        assert report(replace(scenario, participants=participants)) == expected


def prefixed_languages(scenario: Scenario) -> None:
    """R2."""
    def prefixed(language):
        return None if language is None else "zz-" + LanguageTag(language)

    def rename(payload: dict) -> dict:
        startups = [dict(row, language="zz-" + row["language"])
                    for row in payload["turn_startups"]]
        warnings = [ALLOCATION_FAILED + "zz-" + text[len(ALLOCATION_FAILED):]
                    if text.startswith(ALLOCATION_FAILED) else text
                    for text in payload["warnings"]]
        return dict(payload, turn_startups=startups, warnings=warnings)

    renamed = replace(
        scenario,
        participants=[(pid, prefixed(lang)) for pid, lang in scenario.participants],
        events=[replace(event, language=prefixed(event.language))
                for event in scenario.events])
    assert report(renamed) == report(scenario, rename)


def pool_past_the_languages(scenario: Scenario) -> None:
    """R3."""
    languages = {LanguageTag(lang) for _, lang in scenario.participants}
    languages.update(LanguageTag(event.language) for event in scenario.events
                     if event.language is not None)
    n = len(languages)
    expected = report(replace(scenario, pool_capacity=n))
    for pool in (n + 1, n + 7):
        assert report(replace(scenario, pool_capacity=pool)) == expected


RELATIONS = (shuffled_roster, prefixed_languages, pool_past_the_languages)
_relations = pytest.mark.parametrize(
    "relation", RELATIONS, ids=lambda relation: relation.__name__)


def test_every_scenario_file_is_covered():
    assert len(SCENARIOS) == 6


@_relations
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda path: path.name)
def test_relation_holds_on_scenario_files(relation, path):
    relation(load_scenario(path))


@_relations
@settings(max_examples=300, deadline=None)
@given(scenario=meetings())
def test_relation_holds_on_small_meetings(relation, scenario):
    assume(not validate_scenario(scenario))
    relation(scenario)


@_relations
@settings(max_examples=100, deadline=None)
@given(scenario=larger_meetings())
def test_relation_holds_on_larger_meetings(relation, scenario):
    assume(not validate_scenario(scenario))
    relation(scenario)
