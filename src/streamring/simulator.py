"""Scenario-driven meeting simulation on a deterministic virtual clock.

A scenario declares the initial roster, a slot pool, a latency model, a
chunk duration (or "auto"), and a time-ordered event list (speaker changes,
joins, leaves, language changes).  Every event triggers an orchestration
pass, so the pipeline set always matches the current roster; between
passes, each live pipeline processes the speaker's stream as a chunked
session whose playback timeline comes from the segmented scheduler.

Session boundaries: a speaker hand-off closes and reopens every session
(cold when the pipeline was reallocated or re-pointed at a new source
language, warm otherwise); membership events leave untouched pipelines'
sessions running, so a listener joining mid-turn does not reset anyone
else's stream.  A repeated speaker-change to the current speaker is a
no-op.  Stall seconds accrue to the listeners of a session's language at
the moment the session closes: a close records its stall on its language's
ledger, and each member is charged the ledger's entries since they began
listening when they stop listening or at the end of the run.

The report is written in one loop over the run's steps: its start, each
event and its end.  An event's step runs an orchestration pass; the end
closes the sessions still open, in language order, as if their pipelines
were decommissioned.  Every session closes at one place in the loop, which
adds its startup and its listeners' stalls to the report, and each step
ends with a state point.  The sessions of one turn open and close together,
so they share one schedule: each distinct (open time, warmth) among the
sessions one step closes is scheduled once, and its segment boundaries are
kept once, with the languages of the sessions that closed on it.  After the
loop, each boundary at a time two schedules share is split into one per
language, in language order, and a sort by time orders the boundaries and
the state points.  Then come the rows, where a zero-stall boundary gives
its languages one row.  A state point's ``alloc_failures`` is the count of
the run's allocation warnings so far.

Same-timestamp events apply in a fixed order — leaves, joins, language
changes, speaker changes, each by participant id — which makes reports
byte-reproducible and order-independent for semantically independent
events.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import reduce
from itertools import compress, islice, repeat
from operator import add, eq, itemgetter, not_
from typing import Optional, Union

from .core import (
    _BLOCK_ROWS,
    CostModel,
    LanguageTag,
    Meeting,
    Roster,
    ValidationError,
    _field,
    _number,
    _typed,
    cost_naive,
    dump_json,
    read_json,
)
from .latency import FORM_TABLE, LatencyModel, model_from_json
from .orchestrator import (
    _ALLOCATED,
    _DECOMMISSIONED,
    _REUSED,
    OrchestrationEvent,
    required_languages,
    update_orchestration,
)
from .segproc import MAX_SEGMENTS, StreamSpec, check_viability, schedule_stream

__all__ = [
    "MetricsSeries",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "ScenarioEvent",
    "ScenarioEventKind",
    "load_scenario",
    "report_to_json",
    "run_scenario",
    "save_scenario",
    "scenario_digest",
    "scenario_from_json",
    "scenario_to_json",
    "sweep_cost",
    "validate_scenario",
]

class ScenarioError(ValidationError):
    """The scenario violates its structural invariants; the message lists
    every violation found, not just the first."""


class ScenarioEventKind(str, Enum):
    SPEAKER_CHANGE = "speaker-change"
    JOIN = "join"
    LEAVE = "leave"
    LANGUAGE_CHANGE = "language-change"


# fixed application order for same-timestamp events
_KIND_RANK = {
    ScenarioEventKind.LEAVE: 0,
    ScenarioEventKind.JOIN: 1,
    ScenarioEventKind.LANGUAGE_CHANGE: 2,
    ScenarioEventKind.SPEAKER_CHANGE: 3,
}


@dataclass(frozen=True)
class ScenarioEvent:
    time: float
    kind: ScenarioEventKind
    participant: str
    language: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ScenarioEventKind):
            try:
                object.__setattr__(self, "kind", ScenarioEventKind(self.kind))
            except ValueError:
                raise ValidationError(f"unknown event kind {self.kind!r}") from None
        if not isinstance(self.participant, str):
            raise ValidationError(
                f"event participant must be a string, got {self.participant!r}"
            )
        if self.language is not None and not isinstance(self.language, str):
            raise ValidationError(
                f"event language must be a string, got {self.language!r}"
            )


@dataclass
class Scenario:
    """Declarative simulation input.  ``model_spec`` is either a latency
    model JSON object or ``{"fixture": label, "form": ...}`` referring to the
    bundled hardware measurements; it is kept verbatim so the scenario
    round-trips to disk unchanged."""

    participants: list[tuple[str, str]]
    pool_capacity: int
    model_spec: dict
    segment_duration: Union[float, str]
    run_duration: float
    events: list[ScenarioEvent] = field(default_factory=list)
    unit_cost: float = 1.0
    translate_same_language: bool = False


#: Column order of the metrics CSV, whose rows are ``report_to_json``'s
#: ``samples``.
METRICS_CSV_HEADER = (
    "time_s", "k", "token_cost", "naive_cost", "alloc_failures", "stalls_cum",
)


@dataclass
class MetricsSeries:
    """The report's tables, their rows the dicts ``report_to_json``
    publishes: ``samples`` keyed as ``METRICS_CSV_HEADER``, and per session
    when it opened, for which language, how long its listeners waited and
    whether the pipeline started cold.  Consecutive equal ``samples`` rows
    at one boundary time are one dict, so copy a row before changing it."""

    samples: list[dict] = field(default_factory=list)
    listener_stalls: dict[str, float] = field(default_factory=dict)
    turn_startups: list[dict] = field(default_factory=list)


@dataclass
class RunReport:
    scenario_digest: str
    resolved_segment_duration: float
    series: MetricsSeries
    max_k: int
    mean_k: float
    total_stall_seconds: float
    cost_ratio: float
    warnings: tuple[str, ...]


# ---------------------------------------------------------------------------
# Scenario JSON


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "participants": [
            {"id": pid, "language": lang} for pid, lang in scenario.participants
        ],
        "pool_capacity": scenario.pool_capacity,
        "latency_model": scenario.model_spec,
        "segment_duration": scenario.segment_duration,
        "run_duration": scenario.run_duration,
        "events": [
            {
                "time": e.time,
                "kind": e.kind.value,
                "participant": e.participant,
                **({"language": e.language} if e.language is not None else {}),
            }
            for e in scenario.events
        ],
        "unit_cost": scenario.unit_cost,
        "translate_same_language": scenario.translate_same_language,
    }


def _integer(value: object, name: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    fractional = isinstance(value, float) and math.isfinite(value)
    expected = "an integer" if fractional else "a number"
    raise ValidationError(f"{name} must be {expected}, got {value!r}")


def _objects(value: object, name: str) -> list:
    """``value``, checked to be an array of objects, by name and index."""
    if not set(map(type, _typed(value, list, name))) <= {dict}:
        for i, entry in enumerate(value):
            _typed(entry, dict, f"{name}[{i}]")
    return value


def _participants(entries: list) -> list[tuple[str, str]]:
    """Each entry's (id, language), read and type-checked in bulk; when a
    value is not a ``str`` or the bulk read fails, read again field by
    field, so that the error names the first bad field."""
    try:
        ids = list(map(itemgetter("id"), entries))
        languages = list(map(itemgetter("language"), entries))
        if set(map(type, ids)).union(map(type, languages)) <= {str}:
            return list(zip(ids, languages))
    except (LookupError, TypeError):
        pass
    rows = []
    for i, p in enumerate(entries):
        at = f"participants[{i}]."
        rows.append((_typed(_field(p, "id", at), str, at + "id"),
                     _typed(_field(p, "language", at), str, at + "language")))
    return rows


def _event(entry: dict, at: str) -> ScenarioEvent:
    """The event ``entry``, whose fields are named from the path ``at``."""
    return ScenarioEvent(
        time=_number(_field(entry, "time", at), at + "time"),
        kind=_field(entry, "kind", at),
        participant=_typed(_field(entry, "participant", at), str, at + "participant"),
        language=entry.get("language"),
    )


def scenario_from_json(data: dict) -> Scenario:
    """The scenario a JSON document describes.  A value of the wrong JSON
    type is rejected with the field's name, never coerced, and a missing
    field is named by its path."""
    _typed(data, dict, "the scenario")
    participants = _participants(
        _objects(_field(data, "participants"), "participants"))
    events = [_event(e, f"events[{i}].")
              for i, e in enumerate(_objects(data.get("events", []), "events"))]
    return Scenario(
        participants=participants,
        pool_capacity=_integer(_field(data, "pool_capacity"), "pool_capacity"),
        model_spec=_typed(_field(data, "latency_model"), dict, "latency_model"),
        segment_duration=_field(data, "segment_duration"),
        run_duration=_number(_field(data, "run_duration"), "run_duration"),
        events=events,
        unit_cost=_number(data.get("unit_cost", 1.0), "unit_cost"),
        translate_same_language=_typed(
            data.get("translate_same_language", False), bool,
            "translate_same_language"),
    )


def load_scenario(path) -> Scenario:
    return scenario_from_json(read_json(path))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(scenario_to_json(scenario), fh)
        fh.write("\n")


#: The canonical encoder, and what it makes of a ``str``.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_STRING = json.encoder.encode_basestring_ascii


def scenario_digest(scenario: Scenario) -> str:
    """The SHA-256 of the scenario's canonical JSON, ``json.dumps(
    scenario_to_json(scenario), sort_keys=True, separators=(",", ":"))``,
    fed to the hash a key at a time and the participants ``_BLOCK_ROWS``
    at a time, so that it takes memory that does not grow with them."""
    digest = hashlib.sha256()
    pairs = scenario.participants
    data = scenario_to_json(replace(scenario, participants=[]))
    opener = "{"
    for key, value in sorted(data.items()):
        head = opener + _CANONICAL(key) + ":"
        opener = ","
        if key != "participants":
            digest.update((head + _CANONICAL(value)).encode())
            continue
        digest.update((head + "[").encode())
        separator = ""
        for start in range(0, len(pairs), _BLOCK_ROWS):
            digest.update((separator + _people(
                pairs[start:start + _BLOCK_ROWS])).encode())
            separator = ","
        digest.update(b"]")
    digest.update(b"}")
    return digest.hexdigest()


def _people(pairs: list) -> str:
    """The participants ``pairs`` as canonical JSON, without the brackets:
    each id and language encoded as a JSON string in C, a column at a time,
    and joined into the fixed ``{"id":…,"language":…}`` text; or, when a
    value is not a ``str`` (a subclass is one), encoded as dicts."""
    ids, languages = zip(*pairs)
    try:
        return '{"id":' + '},{"id":'.join(map(
            add, map(add, map(_STRING, ids), repeat(',"language":')),
            map(_STRING, languages))) + "}"
    except TypeError:  # a value that is not a str
        return _CANONICAL([{"id": pid, "language": lang}
                           for pid, lang in pairs])[1:-1]


# ---------------------------------------------------------------------------
# Validation and resolution


def resolve_model(spec: dict) -> LatencyModel:
    """Turn a scenario's model reference into a LatencyModel: either a
    bundled-fixture reference fitted on the fly, or inline model JSON.

    A fit is warm; a fixture reference's ``cold_start_extra`` (0 by default)
    is set on the fitted model here, and checked as inline model JSON's is.
    """
    if "fixture" in spec:
        from .calibration import fit, fit_auto, load_bundled_measurements, table_model

        label = spec["fixture"]
        sets = load_bundled_measurements()
        if not isinstance(label, str) or label not in sets:
            raise ValidationError(
                f"unknown fixture label {label!r}; available: {sorted(sets)}"
            )
        form = spec.get("form", "auto")
        cold = _number(spec.get("cold_start_extra", 0.0), "cold_start_extra")
        mset = sets[label]
        if form == "table":
            model = table_model(mset)
        elif form == "auto":
            model = fit_auto(mset)[0]
        else:
            model = fit(mset, form)[0]
        return replace(model, cold_start_extra=cold)
    return model_from_json(spec)


def resolve_segment_duration(
    model: LatencyModel, requested: Union[float, str]
) -> tuple[float, list[str]]:
    """A numeric request passes through; "auto" picks the smallest real-time
    viable duration (tabulated grid for table models, continuous crossing
    otherwise).  A never-viable model falls back to the largest calibrated
    duration, loudly."""
    if requested != "auto":
        return float(requested), []
    from .calibration import ThroughputPoint, t_opt_continuous, t_opt_discrete

    if model.form == FORM_TABLE:
        points = [ThroughputPoint(t=t, p=p) for t, p in model.points]
        chosen = t_opt_discrete(points)
        if chosen is not None:
            return chosen, []
        fallback = model.points[-1][0]
        return fallback, [
            "model is not real-time viable at any tabulated duration; "
            f"falling back to the largest, {fallback} s"
        ]
    chosen = t_opt_continuous(model)
    if chosen is not None:
        return chosen, []
    if model.valid_range is not None:
        fallback = model.valid_range[1]
        return fallback, [
            "model never reaches real time; falling back to the largest "
            f"calibrated duration, {fallback} s"
        ]
    raise ValidationError(
        "cannot auto-resolve segment duration: model never reaches real time "
        "and has no calibrated range"
    )


def _ordered_events(scenario: Scenario) -> list[ScenarioEvent]:
    return sorted(
        scenario.events,
        key=lambda e: (e.time, _KIND_RANK[e.kind], e.participant),
    )


def validate_scenario(scenario: Scenario) -> list[str]:
    """Collect every structural violation (empty list means valid)."""
    return _check_scenario(scenario)[0]


def _check_scenario(
    scenario: Scenario,
) -> tuple[
    list[str], Optional[LatencyModel], Roster, list[ScenarioEvent], int,
]:
    """The violations, plus what checking built for a run to use: the
    latency model (None when it did not resolve), the starting roster,
    whose members of one language share one tag object, the events in
    application order and the most languages that need a pipeline at
    once."""
    violations: list[str] = []
    model: Optional[LatencyModel] = None
    if not 0 < scenario.run_duration < math.inf:
        violations.append(
            f"run_duration must be finite and > 0, got {scenario.run_duration}"
        )
    if scenario.pool_capacity < 0:
        violations.append(
            f"pool_capacity must be >= 0, got {scenario.pool_capacity}"
        )
    if not 0 < scenario.unit_cost < math.inf:
        violations.append(
            f"unit_cost must be finite and > 0, got {scenario.unit_cost}"
        )
    if scenario.segment_duration != "auto":
        try:
            segment = _number(
                scenario.segment_duration, "segment_duration", "a number or 'auto'"
            )
        except ValidationError as exc:
            violations.append(str(exc))
        else:
            if not 0 < segment < math.inf:
                violations.append(
                    "segment_duration must be finite and positive or 'auto', got "
                    f"{scenario.segment_duration!r}"
                )
    try:
        model = resolve_model(scenario.model_spec)
    except ValidationError as exc:
        violations.append(f"latency model: {exc}")

    roster = Roster()
    listed: set[str] = set()
    # each language's one tag, by the text given and by the code a tag
    # hashes and compares as: "EN" and "en" share one
    tags: dict[str, LanguageTag] = {}
    for i, (pid, lang) in enumerate(scenario.participants):
        if not isinstance(pid, str):  # before ``listed``: a list is unhashable
            violations.append(f"participants[{i}].id must be a string, got {pid!r}")
            continue
        if pid in listed:
            violations.append(f"duplicate participant id {pid!r}")
            continue
        listed.add(pid)
        if not isinstance(lang, str):
            violations.append(f"participant {pid!r}: participants[{i}].language "
                              f"must be a string, got {lang!r}")
            continue
        try:
            tag = tags.get(lang)
            if tag is None:
                tag = LanguageTag(lang)
                tag = tags[lang] = tags.setdefault(tag, tag)
            roster[pid] = tag
        except ValidationError as exc:
            violations.append(f"participant {pid!r}: {exc}")

    members = roster.copy()
    times = [e.time for e in scenario.events]
    if times != sorted(times):
        violations.append("events are not sorted by time")

    events = _ordered_events(scenario)
    largest = len(roster)
    replay = Meeting(participants=roster, pool_capacity=0,
                     translate_same_language=scenario.translate_same_language)
    speaker: Optional[str] = None
    listeners = 0
    for event in events:
        where = f"event at t={event.time} ({event.kind.value} {event.participant!r})"
        if not 0 <= event.time <= scenario.run_duration:
            violations.append(f"{where}: time outside [0, run_duration]")
        try:
            _apply(roster, event)
        except ValidationError as exc:
            violations.append(f"{where}: {exc}")
        if event.kind is ScenarioEventKind.SPEAKER_CHANGE:
            speaker = event.participant
        if speaker not in roster:
            speaker = None  # the speaker left, or was never present
        largest = max(largest, len(roster))
        listeners = max(listeners, len(required_languages(replay, speaker)))

    # A run samples the naive cost at each roster size and integrates it
    # over the run; both are largest at the largest roster.
    run, unit = scenario.run_duration, scenario.unit_cost
    if largest >= 2 and 0 < unit < math.inf and 0 < run < math.inf:
        try:
            naive = cost_naive(largest, CostModel(unit))
        except ValidationError as exc:
            violations.append(str(exc))
        else:
            if naive * run == math.inf:
                violations.append(
                    f"the naive cost of a meeting of {largest} at unit cost "
                    f"{unit:g} over run_duration {run:g} s overflows a float")
    return violations, model, members, events, listeners


def _apply(roster: Roster, event: ScenarioEvent) -> None:
    """Apply ``event``'s roster edit; a speaker change edits nothing.  Raises
    a ValidationError, before any edit, when the event breaks a roster rule."""
    if event.kind in (ScenarioEventKind.JOIN, ScenarioEventKind.LANGUAGE_CHANGE):
        if event.language is None:
            raise ValidationError("missing language")
        language = LanguageTag(event.language)
    joining = event.kind is ScenarioEventKind.JOIN
    if joining and event.participant in roster:
        raise ValidationError("participant already present")
    if not joining and event.participant not in roster:
        raise ValidationError("participant not present")
    if event.kind is ScenarioEventKind.LEAVE:
        del roster[event.participant]
    elif event.kind is not ScenarioEventKind.SPEAKER_CHANGE:
        roster[event.participant] = language


# ---------------------------------------------------------------------------
# The event loop

#: Most ``samples`` rows one run may make, at about 0.40 KB per distinct
#: row and 0.01 KB per repeat of the row before it at the run's peak, while
#: the report is built; writing it adds a bounded amount.
#: A run whose estimate passes it is rejected before it starts, and a
#: session whose boundaries would pass it ends the run: each session counts
#: its own boundaries, though its turn's sessions share them.
MAX_SAMPLE_ROWS = 1_500_000

_SPEAKER_CHANGE = ScenarioEventKind.SPEAKER_CHANGE


def run_scenario(scenario: Scenario) -> RunReport:
    """Execute the scenario deterministically and report the metrics series
    plus aggregates.  Raises ScenarioError listing all structural violations
    when the scenario is malformed.

    The run reads the scenario only before its loop: its numbers, its
    digest, and the roster and ordered events that checking built.  Then it
    drops its reference, so that a scenario no caller holds, as in
    ``run_scenario(load_scenario(path))``, is freed before the report is
    built (from Python 3.11 on, which moves a call's arguments into the
    callee's frame; on 3.10 the caller holds it until the call returns)."""
    violations, model, members, events, listeners = _check_scenario(scenario)
    if violations:
        raise ScenarioError(
            "invalid scenario:\n" + "\n".join(f"  - {v}" for v in violations)
        )
    digest = scenario_digest(scenario)  # before the report holds its rows
    segment_duration, warnings = resolve_segment_duration(
        model, scenario.segment_duration
    )
    run_duration, pool_capacity = scenario.run_duration, scenario.pool_capacity
    cost = CostModel(unit_cost=scenario.unit_cost)
    meeting = Meeting(participants=members, pool_capacity=pool_capacity,
                      translate_same_language=scenario.translate_same_language)
    del scenario  # its last read: one no caller holds is freed here
    viability = check_viability(model, segment_duration)
    if not viability.viable:
        warnings.append(
            f"segment duration {segment_duration:g} s is not real-time viable "
            f"(tau={viability.tau:.3f}); playback will lag behind the stream"
        )

    # a state point at the start, at the end and at each event time, at most
    state_rows = len({0.0, run_duration, *(e.time for e in events)})
    # each language holding a pipeline adds about a row per segment; a
    # longer stream than the segment limit fails on its own when scheduled
    languages = min(pool_capacity, listeners)
    chunks = math.ceil(min(run_duration / segment_duration, MAX_SEGMENTS))
    rows = languages * chunks + state_rows
    if rows > MAX_SAMPLE_ROWS:
        raise ValidationError(
            f"the report would hold about {rows} sample rows ({languages} "
            f"listener languages x {chunks} segments of {segment_duration:g} "
            f"s, plus {state_rows} state rows), past the limit of "
            f"{MAX_SAMPLE_ROWS} (simulator.MAX_SAMPLE_ROWS)")

    series = MetricsSeries()
    open_sessions: dict[LanguageTag, tuple[float, bool]] = {}  # started_at, cold
    # a plain running total in close order, as sum() adds on 3.10 and 3.11:
    # sum() compensates from 3.12 on, which would change the last bits
    total_stall = 0.0
    # (time, stall, the languages of the sessions that share it) per
    # schedule boundary; the state points, (time, None, sample columns),
    # join them after the loop
    entries: list[tuple[float, Optional[float], object]] = []
    points: list[tuple[float, None, tuple[int, float, float, int]]] = []
    boundaries = 0  # of every session closed so far, shared or not
    failed: list[str] = []  # allocation warnings, reported after ``warnings``

    warm_model = (model if model.cold_start_extra == 0.0
                  else replace(model, cold_start_extra=0.0))
    stalls = series.listener_stalls
    roster = meeting.participants
    # Each close appends its stall to its language's ledger.  A listener is
    # charged its entries from ``since[pid]`` (0 with no entry) when they stop
    # listening or at the end, left to right as one charge per close adds:
    # not ``sum()``, which compensates from 3.12 on, nor a difference.
    ledger: dict[LanguageTag, list[float]] = {}
    since: dict[str, int] = {}

    def settle(pid: str) -> None:
        """Charge ``pid``, unless they hold the floor, and stop the reading."""
        if pid != meeting.active_speaker:
            charges = ledger.get(roster[pid], ())[since.pop(pid, 0):]
            if charges:  # a close charged them, if only a zero stall
                stalls[pid] = reduce(add, charges, stalls.get(pid, 0.0))

    # ``+ 0.0`` makes an event at -0.0 report as one at 0.0.  The sessions
    # of one turn open and close together and differ only in language, so
    # each distinct (started_at, cold) among the sessions a step closes is
    # scheduled once.
    for when, event in [(0.0, None), *((e.time + 0.0, e) for e in events),
                        (run_duration, None)]:
        schedules: dict[tuple[float, bool], tuple[float, float, list, list, list]] = {}
        suffix = None  # of this step's allocation warnings, made at the first
        if event is None:  # start or end, without a pass: the end closes all
            # a generator, not a list: the end is at the run's memory peak
            changes = (OrchestrationEvent(_DECOMMISSIONED, language)
                       for language in sorted(open_sessions))
        else:
            turnover = event.kind is _SPEAKER_CHANGE
            pid = event.participant
            if not turnover:
                if pid in roster:  # a leave or a language change
                    settle(pid)
                _apply(roster, event)
                if pid in roster and pid != meeting.active_speaker:
                    since[pid] = len(ledger.get(roster[pid], ()))
            elif pid == meeting.active_speaker:
                continue  # repeated floor grant: nothing changes
            else:
                # settled before this step's closes, the new speaker is not
                # charged for the session they heard (ROADMAP item 6)
                settle(pid)
                previous = meeting.active_speaker
                if previous is not None:
                    since[previous] = len(ledger.get(roster[previous], ()))
            speaker = pid if turnover else meeting.active_speaker
            if speaker not in roster:
                speaker = None  # no speaker yet, or the speaker just left
            _, changes = update_orchestration(meeting, speaker)

        # a pass reports pipeline decisions only, and pipeline-reused only
        # when the floor or the source moved; the rest is allocation-failed
        for change in changes:
            kind = change.kind
            if kind is _DECOMMISSIONED:
                reopen_cold = None
            elif kind is _ALLOCATED:
                reopen_cold = True
            elif kind is _REUSED:
                reopen_cold = change.reinitialized
            else:
                if suffix is None:
                    suffix = (f" at t={when:g} s "
                              f"(pool capacity {meeting.pool_capacity})")
                failed.append(
                    "allocation failed for language " + change.language + suffix)
                continue
            language = change.language
            opened = open_sessions.pop(language, None)
            if reopen_cold is not None:
                open_sessions[language] = (when, reopen_cold)
            if opened is None or when - opened[0] <= 1e-9:
                continue
            # the one place a session closes
            started_at, cold = opened
            schedule = schedules.get(opened)
            if schedule is None:
                jobs, play = schedule_stream(StreamSpec(when - started_at),
                                             model if cold else warm_model,
                                             segment_duration)
                schedule = schedules[opened] = (
                    play.startup_delay, play.stall_total,
                    [started_at + job.available_at for job in jobs],
                    [job.stall for job in jobs], [])
                del jobs, play  # keep only the two float columns
            startup_delay, stall_total, times, _, names = schedule
            boundaries += len(times)
            if boundaries + state_rows > MAX_SAMPLE_ROWS:
                raise ValidationError(
                    f"the report would pass the limit of {MAX_SAMPLE_ROWS} "
                    f"sample rows (simulator.MAX_SAMPLE_ROWS) when the "
                    f"{language} session closes at t={when:g} s")
            series.turn_startups.append({
                "time": started_at, "language": language,
                "startup_delay": startup_delay, "cold": cold,
            })
            total_stall += stall_total
            ledger.setdefault(language, []).append(stall_total)
            names.append(language)
        for _, _, times, boundary_stalls, names in schedules.values():
            names.sort()
            entries.extend(zip(times, boundary_stalls, repeat(names)))

        # the sample columns (k, token_cost, naive_cost, alloc_failures); a
        # later pass at the same time supersedes the earlier state
        k, n = len(meeting.pipelines), meeting.size
        naive = cost_naive(n, cost) if n >= 2 else 0.0
        if points and points[-1][0] == when:
            del points[-1]
        points.append((when, None, (k, cost.unit_cost * k, naive, len(failed))))

    if total_stall == math.inf:  # each listener's share is at most this
        raise ValidationError(
            f"the stalls of {segment_duration:g} s segments under the "
            f"{model.form} model sum past the float range")
    # the members still listening: those with no reading share one value
    # per language, written in C
    for language, charges in ledger.items():
        stalls.update(dict.fromkeys(
            roster.ids_of(language).difference(since, (meeting.active_speaker,)),
            reduce(add, charges, 0.0)))
    for pid in list(since):
        settle(pid)

    series.turn_startups.sort(key=itemgetter("time", "language"))

    # an entry at a time two schedules share becomes one per language, in
    # language order (a stable sort: within one language, in close order)
    entries.sort(key=itemgetter(0))
    times = list(map(itemgetter(0), entries))
    tied = set(compress(times, map(eq, times, islice(times, 1, None))))
    if tied:
        # by masks: reading ``tied`` in a comprehension allocates a cell
        ties = list(map(tied.__contains__, times))
        entries = [*sorted([(when, stall, (name,))
                            for when, stall, names in compress(entries, ties)
                            for name in names], key=itemgetter(2)),
                   *compress(entries, map(not_, ties))]
    del times, tied
    # at equal times a boundary belongs to the interval that is ending, so
    # the stable sort keeps it before the state change
    entries += points
    entries.sort(key=itemgetter(0))
    # Only a state point, which makes a new row, changes k and the costs,
    # and only a stall changes stalls_cum: so a zero-stall boundary at the
    # previous row's own time object (a schedule's other languages) repeats
    # that row.
    k, token, naive, fails = points[0][2]
    stalls_cum = 0.0
    samples = series.samples
    row: dict = {"time_s": None}
    for when, stall, names in entries:
        if stall:  # each language adds the stall and has a row of its own
            for _ in names:
                stalls_cum += stall
                row = {
                    "time_s": when, "k": k, "token_cost": token,
                    "naive_cost": naive, "alloc_failures": fails,
                    "stalls_cum": stalls_cum,
                }
                samples.append(row)
            continue
        if stall is None:  # a state point: ``names`` holds its columns
            k, token, naive, fails = names
            names = ("",)
        elif when is row["time_s"]:  # a zero stall keeps the bits
            samples += repeat(row, len(names))
            continue
        row = {
            "time_s": when, "k": k, "token_cost": token, "naive_cost": naive,
            "alloc_failures": fails, "stalls_cum": stalls_cum,
        }
        samples += repeat(row, len(names))

    k_integral = token_integral = naive_integral = 0.0
    for (when, _, (k, token, naive, _)), nxt in zip(points, points[1:]):
        dt = nxt[0] - when
        k_integral += k * dt
        token_integral += token * dt
        naive_integral += naive * dt

    return RunReport(
        scenario_digest=digest,
        resolved_segment_duration=segment_duration,
        series=series,
        max_k=max(point[2][0] for point in points),
        mean_k=k_integral / run_duration,
        total_stall_seconds=total_stall,
        cost_ratio=token_integral / naive_integral if naive_integral > 0 else 0.0,
        warnings=(*warnings, *failed),
    )


# ---------------------------------------------------------------------------
# Cost sweeps


ASSIGNMENTS = ("uniform", "all-distinct", "all-same")

#: Column order of the sweep CSV, whose rows are ``sweep_cost``'s.
SWEEP_CSV_HEADER = ("n", "mean_k", "token_cost", "naive_cost", "cost_ratio")

#: Most language draws (the sizes' sum times the trials) one uniform sweep
#: makes; a larger request is rejected before any draw.
MAX_SWEEP_DRAWS = 10**7


def sweep_cost(
    n_range: list[int],
    language_pool_size: int,
    assignment: str,
    cost: CostModel = CostModel(),
    trials: int = 1,
    seed: int = 42,
) -> list[dict]:
    """Per-meeting-size pipeline counts under three language assignments,
    a row per size keyed as ``SWEEP_CSV_HEADER``.

    "all-distinct" is the worst case (every listener needs their own
    language, k = N-1); "all-same" the best (one shared listener language
    distinct from the speaker's, k = 1); "uniform" draws every language
    independently from a pool of the given size and averages k over seeded
    trials, with the speaker's own language excluded from the requirement.
    """
    import random

    if language_pool_size < 1:
        raise ValidationError("language_pool_size must be >= 1")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    for n in n_range:
        if n < 2:
            raise ValidationError(f"meeting sizes must be >= 2, got {n}")
    draws = sum(n_range) * trials
    if assignment == "uniform" and draws > MAX_SWEEP_DRAWS:
        raise ValidationError(
            f"a uniform sweep of {draws} language draws (sizes x trials) "
            f"exceeds the limit of {MAX_SWEEP_DRAWS}"
        )

    rng = random.Random(seed)
    rows = []
    for n in n_range:
        naive = cost_naive(n, cost)  # first: it names an overflowing n
        if assignment == "all-distinct":
            mean_k = float(n - 1)
        elif assignment == "all-same":
            mean_k = 1.0
        elif assignment == "uniform":
            total = 0
            for _ in range(trials):
                langs = [rng.randrange(language_pool_size) for _ in range(n)]
                total += len(set(langs[1:]) - {langs[0]})
            mean_k = total / trials
        else:
            raise ValidationError(
                f"assignment must be one of {ASSIGNMENTS}, got {assignment!r}"
            )
        token = cost.unit_cost * mean_k
        rows.append({
            "n": n, "mean_k": mean_k, "token_cost": token, "naive_cost": naive,
            "cost_ratio": token / naive,
        })
    return rows


# ---------------------------------------------------------------------------
# Report serialization


def report_to_json(report: RunReport) -> dict:
    """The report as its JSON document.  ``samples``, ``listener_stalls``
    and ``turn_startups`` are the report's own list and dict objects, not
    copies: changing one changes the other.  Consecutive equal ``samples``
    rows are one dict, which ``dump_json`` encodes once per run, so copy a
    row before changing it."""
    return {
        "scenario_digest": report.scenario_digest,
        "resolved_segment_duration": report.resolved_segment_duration,
        "aggregates": {
            "max_k": report.max_k,
            "mean_k": report.mean_k,
            "total_stall_seconds": report.total_stall_seconds,
            "cost_ratio": report.cost_ratio,
        },
        "warnings": list(report.warnings),
        "samples": report.series.samples,
        "listener_stalls": report.series.listener_stalls,
        "turn_startups": report.series.turn_startups,
    }
