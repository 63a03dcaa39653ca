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
the moment the session closes.

The report is written in one loop over the run's steps: its start, each
event and its end.  An event's step runs an orchestration pass; the end
closes the sessions still open, in language order, as if their pipelines
were decommissioned.  Every session closes at one place in the loop, which
adds its startup, its listeners' stalls and its segment samples to the
report, and each step ends with a state point; after the loop come only two
sorts and the aggregate integrals.  The sessions of one turn open and close
together, so they share one schedule: each distinct (open time, warmth)
among the sessions closing at one instant is scheduled once.

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
from itertools import repeat
from operator import add, itemgetter
from typing import Optional, Union

from .core import (
    CostModel,
    LanguageTag,
    Meeting,
    Roster,
    ValidationError,
    _number,
    _typed,
    cost_naive,
    dump_json,
    read_json,
)
from .latency import FORM_TABLE, LatencyModel, model_from_json
from .orchestrator import (
    EventKind,
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
    whether the pipeline started cold."""

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
    return [
        (_typed(p["id"], str, f"participants[{i}].id"),
         _typed(p["language"], str, f"participants[{i}].language"))
        for i, p in enumerate(entries)
    ]


def scenario_from_json(data: dict) -> Scenario:
    """The scenario a JSON document describes.  A value of the wrong JSON
    type is rejected with the field's name, never coerced."""
    try:
        participants = _participants(data["participants"])
        events = [
            ScenarioEvent(
                time=_number(e["time"], f"events[{i}].time"),
                kind=e["kind"],
                participant=_typed(e["participant"], str, f"events[{i}].participant"),
                language=e.get("language"),
            )
            for i, e in enumerate(data.get("events", []))
        ]
        return Scenario(
            participants=participants,
            pool_capacity=_integer(data["pool_capacity"], "pool_capacity"),
            model_spec=_typed(data["latency_model"], dict, "latency_model"),
            segment_duration=data["segment_duration"],
            run_duration=_number(data["run_duration"], "run_duration"),
            events=events,
            unit_cost=_number(data.get("unit_cost", 1.0), "unit_cost"),
            translate_same_language=_typed(
                data.get("translate_same_language", False), bool,
                "translate_same_language"),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed scenario JSON: {exc}") from None


def load_scenario(path) -> Scenario:
    return scenario_from_json(read_json(path))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(scenario_to_json(scenario), fh)
        fh.write("\n")


def scenario_digest(scenario: Scenario) -> str:
    """The SHA-256 of the scenario's canonical JSON, ``json.dumps(
    scenario_to_json(scenario), sort_keys=True, separators=(",", ":"))``.

    The participants, most of a large scenario, are not built as dicts for
    the encoder to sort: the ids and the languages are each encoded in one
    C call, split on the item separator ``",\\n"`` (the C encoder escapes
    a newline inside a string) and joined into the fixed
    ``{"id":…,"language":…}`` text."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    cells = json.JSONEncoder(sort_keys=True, separators=(",\n", ":")).encode
    pairs = scenario.participants
    ids = cells([pid for pid, _ in pairs])[1:-1].split(",\n")
    languages = cells([lang for _, lang in pairs])[1:-1].split(",\n")
    if len(ids) == len(languages) == len(pairs):
        people = '[{"id":' + '},{"id":'.join(map(
            add, map(add, ids, repeat(',"language":')), languages)) + "}]"
    else:  # no participants, or a value that holds two or more items
        people = encode([{"id": pid, "language": lang} for pid, lang in pairs])
    data = scenario_to_json(replace(scenario, participants=[]))
    canonical = ",".join(
        encode(key) + ":" + (people if key == "participants" else encode(value))
        for key, value in sorted(data.items()))
    return hashlib.sha256(("{" + canonical + "}").encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Validation and resolution


def resolve_model(spec: dict) -> LatencyModel:
    """Turn a scenario's model reference into a LatencyModel: either a
    bundled-fixture reference fitted on the fly, or inline model JSON."""
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
            return table_model(mset, cold)
        if form == "auto":
            return fit_auto(mset, cold)[0]
        return fit(mset, form, cold)[0]
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
    tags: dict[str, LanguageTag] = {}  # by code: "EN" and "en" share one
    shared: dict[LanguageTag, LanguageTag] = {}  # each language's one tag
    for pid, lang in scenario.participants:
        if pid in listed:
            violations.append(f"duplicate participant id {pid!r}")
            continue
        listed.add(pid)
        try:
            tag = tags.get(lang)
            if tag is None:
                tag = LanguageTag(lang)
                tag = tags[lang] = shared.setdefault(tag, tag)
            roster[pid] = tag
        except ValidationError as exc:
            violations.append(f"participant {pid!r}: {exc}")

    members = roster.copy()
    times = [e.time for e in scenario.events]
    if times != sorted(times):
        violations.append("events are not sorted by time")

    events = _ordered_events(scenario)
    largest = len(roster)
    replay = Meeting(participants=roster, pool_capacity=0)
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
        listeners = max(listeners, len(required_languages(
            replay, speaker,
            translate_same_language=scenario.translate_same_language)))

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

#: Most ``samples`` rows one run may make, at about 0.40 KB each at the
#: run's peak, while the report is built; writing it adds a bounded amount.
#: A run whose estimate passes it is rejected before it starts, and a
#: session whose boundaries would pass it ends the run.
MAX_SAMPLE_ROWS = 1_500_000

# bound once, as in the orchestrator (see its note on ``EventKind.X``)
_ALLOCATED = EventKind.PIPELINE_ALLOCATED
_REUSED = EventKind.PIPELINE_REUSED
_DECOMMISSIONED = EventKind.PIPELINE_DECOMMISSIONED
_ALLOCATION_FAILED = EventKind.ALLOCATION_FAILED
_SPEAKER_CHANGE = ScenarioEventKind.SPEAKER_CHANGE


def run_scenario(scenario: Scenario) -> RunReport:
    """Execute the scenario deterministically and report the metrics series
    plus aggregates.  Raises ScenarioError listing all structural violations
    when the scenario is malformed."""
    violations, model, members, events, listeners = _check_scenario(scenario)
    if violations:
        raise ScenarioError(
            "invalid scenario:\n" + "\n".join(f"  - {v}" for v in violations)
        )
    segment_duration, warnings = resolve_segment_duration(
        model, scenario.segment_duration
    )
    viability = check_viability(model, segment_duration)
    if not viability.viable:
        warnings.append(
            f"segment duration {segment_duration:g} s is not real-time viable "
            f"(tau={viability.tau:.3f}); playback will lag behind the stream"
        )

    # a state point at the start, at the end and at each event time, at most
    state_rows = len({0.0, scenario.run_duration, *(e.time for e in events)})
    # each language holding a pipeline adds about a row per segment; a
    # longer stream than the segment limit fails on its own when scheduled
    languages = min(scenario.pool_capacity, listeners)
    chunks = math.ceil(min(scenario.run_duration / segment_duration,
                           MAX_SEGMENTS))
    rows = languages * chunks + state_rows
    if rows > MAX_SAMPLE_ROWS:
        raise ValidationError(
            f"the report would hold about {rows} sample rows ({languages} "
            f"listener languages x {chunks} segments of {segment_duration:g} "
            f"s, plus {state_rows} state rows), past the limit of "
            f"{MAX_SAMPLE_ROWS} (simulator.MAX_SAMPLE_ROWS)")

    cost = CostModel(unit_cost=scenario.unit_cost)
    meeting = Meeting(participants=members, pool_capacity=scenario.pool_capacity)

    series = MetricsSeries()
    open_sessions: dict[LanguageTag, tuple[float, bool]] = {}  # started_at, cold
    # a plain running total in close order, as sum() adds on 3.10 and 3.11:
    # sum() compensates from 3.12 on, which would change the last bits
    total_stall = 0.0
    # (time, 0, language, stall) per segment boundary; the state points,
    # (time, 1, "", sample columns), join them after the loop
    entries: list[tuple[float, int, str, object]] = []
    points: list[tuple[float, int, str, tuple[int, float, float, int]]] = []
    failures = 0

    warm_model = (model if model.cold_start_extra == 0.0
                  else replace(model, cold_start_extra=0.0))
    # The sessions of one turn open and close together and differ only in
    # language, so each distinct (started_at, cold) among the sessions
    # closing at ``closing_at`` is scheduled once.  Time only moves forward,
    # so the cache is dropped when the close time moves on.
    schedules: dict[tuple[float, bool], tuple[float, float, list, list]] = {}
    closing_at: Optional[float] = None
    stalls = series.listener_stalls

    # ``+ 0.0`` makes an event at -0.0 report as one at 0.0
    for when, event in [(0.0, None), *((e.time + 0.0, e) for e in events),
                        (scenario.run_duration, None)]:
        if event is None:  # start or end, without a pass: the end closes all
            turnover = False
            # a generator, not a list: the end is at the run's memory peak
            changes = (OrchestrationEvent(_DECOMMISSIONED, when, language)
                       for language in sorted(open_sessions))
        else:
            turnover = event.kind is _SPEAKER_CHANGE
            if not turnover:
                _apply(meeting.participants, event)
            elif event.participant == meeting.active_speaker:
                continue  # repeated floor grant: nothing changes
            speaker = event.participant if turnover else meeting.active_speaker
            if speaker not in meeting.participants:
                speaker = None  # no speaker yet, or the speaker just left
            _, changes = update_orchestration(
                meeting, speaker, time=when,
                translate_same_language=scenario.translate_same_language)

        # most changes are route-added: they fall through every test
        for change in changes:
            kind = change.kind
            if kind is _DECOMMISSIONED:
                reopen_cold = None
            elif kind is _ALLOCATED:
                reopen_cold = True
            elif kind is _REUSED and (change.reinitialized or turnover):
                reopen_cold = change.reinitialized
            else:
                if kind is _ALLOCATION_FAILED:
                    failures += 1
                    warnings.append(
                        f"allocation failed for language {change.language} at "
                        f"t={when:g} s (pool capacity {meeting.pool_capacity})")
                continue
            language = change.language
            opened = open_sessions.pop(language, None)
            if reopen_cold is not None:
                open_sessions[language] = (when, reopen_cold)
            if opened is None or when - opened[0] <= 1e-9:
                continue
            # the one place a session closes
            started_at, cold = opened
            if closing_at != when:
                closing_at = when
                schedules.clear()
            schedule = schedules.get(opened)
            if schedule is None:
                jobs, play = schedule_stream(StreamSpec(when - started_at),
                                             model if cold else warm_model,
                                             segment_duration)
                schedule = schedules[opened] = (
                    play.startup_delay, play.stall_total,
                    [started_at + job.available_at for job in jobs],
                    [timing.stall for timing in play.per_segment])
                del jobs, play  # keep only the two float columns
            startup_delay, stall_total, times, boundary_stalls = schedule
            if len(entries) + len(times) + state_rows > MAX_SAMPLE_ROWS:
                raise ValidationError(
                    f"the report would pass the limit of {MAX_SAMPLE_ROWS} "
                    f"sample rows (simulator.MAX_SAMPLE_ROWS) when the "
                    f"{language} session closes at t={when:g} s")
            series.turn_startups.append({
                "time": started_at, "language": language,
                "startup_delay": startup_delay, "cold": cold,
            })
            total_stall += stall_total
            for pid in meeting.participants.ids_of(language):
                if pid != meeting.active_speaker:
                    stalls[pid] = stalls.get(pid, 0.0) + stall_total
            entries.extend(
                zip(times, repeat(0), repeat(language), boundary_stalls))

        # the sample columns (k, token_cost, naive_cost, alloc_failures); a
        # later pass at the same time supersedes the earlier state
        k, n = len(meeting.pipelines), meeting.size
        naive = cost_naive(n, cost) if n >= 2 else 0.0
        if points and points[-1][0] == when:
            del points[-1]
        points.append((when, 1, "", (k, cost.unit_cost * k, naive, failures)))

    schedules.clear()  # no close follows; free them before the samples
    if total_stall == math.inf:  # each listener's share is at most this
        raise ValidationError(
            f"the stalls of {segment_duration:g} s segments under the "
            f"{model.form} model sum past the float range")

    series.turn_startups.sort(key=itemgetter("time", "language"))

    # at equal times a boundary belongs to the interval that is ending, so it
    # sorts before the state change.  (time, priority, language) order as
    # stable sorts by one key each, least significant first: no key tuples.
    entries.extend(points)
    entries.sort(key=itemgetter(2))
    entries.sort(key=itemgetter(1))
    entries.sort(key=itemgetter(0))
    k, token, naive, fails = points[0][3]
    stalls_cum = 0.0
    for when, priority, _, payload in entries:
        if priority == 1:
            k, token, naive, fails = payload  # type: ignore[misc]
        elif payload:  # a zero stall keeps the bits, so rows share the float
            stalls_cum += payload  # type: ignore[operator]
        series.samples.append({
            "time_s": when, "k": k, "token_cost": token, "naive_cost": naive,
            "alloc_failures": fails, "stalls_cum": stalls_cum,
        })

    k_integral = token_integral = naive_integral = 0.0
    for (when, _, _, (k, token, naive, _)), nxt in zip(points, points[1:]):
        dt = nxt[0] - when
        k_integral += k * dt
        token_integral += token * dt
        naive_integral += naive * dt

    return RunReport(
        scenario_digest=scenario_digest(scenario),
        resolved_segment_duration=segment_duration,
        series=series,
        max_k=max(point[3][0] for point in points),
        mean_k=k_integral / scenario.run_duration,
        total_stall_seconds=total_stall,
        cost_ratio=token_integral / naive_integral if naive_integral > 0 else 0.0,
        warnings=tuple(warnings),
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
    copies: changing one changes the other."""
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
