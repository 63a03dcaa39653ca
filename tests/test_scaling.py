"""Scaling gates by counted work: one orchestration step costs the same at N
and 10*N members, a membership pass the same at L and 10*L languages, and
each scenario event the same in ``run_scenario`` and ``_check_scenario`` at
N and 10*N members, each segment boundary of a turn the same in
``run_scenario`` whether 4 or 32 listener languages share it, and a table
block the same to write whether each of its distinct rows is repeated 4 or
30 times.  Three gates are by memory, not counted work:
``scenario_digest`` takes the same ``tracemalloc`` transient at 2000 and
20 000 members, ``dump_json`` the same for a map of 2000 scalars as for
one of 20 000, short of what sorting the extra keys takes, and it passes
a table block to ``write`` in pieces no longer than half the block plus
one run of one row object.

Each step is a roster edit, if any, and the ``update_orchestration`` pass
after it, as ``run_scenario`` makes them, on a meeting of 40 languages and
a pool of 32.  A membership pass (a join, a leave or a language change that
keeps the floor) visits only the languages it changes and those still
unserved, so it is also counted at 40 and 400 languages, with eight
languages left without a pipeline; at both counts, such a pass that opens
no unserved interval builds no ``LogRecord``.  A run's per-event work is
the count of a run with a stretch of events less the count of the same run
without it, so the checks and settlement that walk the roster once cancel
out.

The count is every ``sys.setprofile`` event (Python calls and returns, C
calls and returns) plus every ``sys.settrace`` line event, so a Python loop
counts once per iteration even when its body calls nothing.  Counts are
compared within one interpreter run, never with stored numbers, so the gate
holds on every Python version.

Blind spot: work done inside one C call counts once, however much it does:
``dict.fromkeys`` over a language's members, or ``set.copy`` of them, is
one event at any roster size, and the JSON writer's C calls over a block's
rows count the same for 32 rows as for 240.  So the writer's gate holds
against per-row Python work, not against C work per repeated row.
Wall-clock time would see it, but is too noisy to gate on here.
"""

from __future__ import annotations

import gc
import json
import logging
import struct
import sys
import tracemalloc
from typing import Callable

import pytest

from streamring.core import _BLOCK_ROWS, Meeting, Roster, dump_json, dumps_json
from streamring.orchestrator import update_orchestration
from streamring.simulator import (
    _check_scenario, run_scenario, scenario_digest, scenario_from_json)

LANGUAGES = [f"l{i:02d}" for i in range(40)]
POOL = 32
SIZES = (500, 5000)  # N and 10*N


def member(i: int) -> str:
    """The id of member ``i``, who speaks ``LANGUAGES[i % 40]``."""
    return f"p{i:06d}"


SPEAKER = member(0)  # speaks l00


def meeting_of(n: int, speaker: str | None = SPEAKER) -> Meeting:
    """``n`` members spread evenly over the 40 languages, after a first pass
    that gives ``speaker`` the floor: with l00 on the floor, l01-l32 hold
    the 32 slots and l33-l39 fail to allocate."""
    roster = Roster({member(i): LANGUAGES[i % 40] for i in range(n)})
    meeting = Meeting(participants=roster, pool_capacity=POOL)
    if speaker is not None:
        update_orchestration(meeting, speaker)
    return meeting


def counted(step: Callable[[], object]) -> tuple[int, object]:
    """The profile and line events of ``step()``, and what it returned."""
    events = 0

    def profile(frame, event, arg):
        nonlocal events
        events += 1

    def trace(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return trace

    gc.collect()
    gc.disable()  # a collection could run finalizers inside the count
    try:
        sys.setprofile(profile)
        sys.settrace(trace)
        try:
            result = step()
        finally:
            sys.settrace(None)
            sys.setprofile(None)
    finally:
        gc.enable()
    return events, result


def join(m: Meeting):
    m.participants["joiner"] = "l05"  # a served language
    return update_orchestration(m, SPEAKER)[1]


def leave(m: Meeting):
    del m.participants[member(5)]
    return update_orchestration(m, SPEAKER)[1]


def language_change(m: Meeting):
    m.participants[member(5)] = "l06"
    return update_orchestration(m, SPEAKER)[1]


def floor_taken(m: Meeting):
    # 32 pipelines allocated on an empty pool, 7 languages failed
    return update_orchestration(m, SPEAKER)[1]


def hand_off_reusing(m: Meeting):
    # to another l00 member: every pipeline is reused, none allocated
    return update_orchestration(m, member(40))[1]


def hand_off_allocating(m: Meeting):
    # to an l01 member: l01's slot is released and l00, sorted first, takes it
    return update_orchestration(m, member(1))[1]


def hand_off_onto_a_full_pool(m: Meeting):
    # to an l39 member, whose language held no slot: l00 fails to allocate
    return update_orchestration(m, member(39))[1]


def speaker_leaves(m: Meeting):
    # the floor is released and every pipeline decommissioned
    del m.participants[SPEAKER]
    return update_orchestration(m, None)[1]


STEPS = {
    "join": (join, SPEAKER),
    "leave": (leave, SPEAKER),
    "language-change": (language_change, SPEAKER),
    "floor-taken": (floor_taken, None),
    "hand-off-reusing": (hand_off_reusing, SPEAKER),
    "hand-off-allocating": (hand_off_allocating, SPEAKER),
    "hand-off-onto-a-full-pool": (hand_off_onto_a_full_pool, SPEAKER),
    "speaker-leaves": (speaker_leaves, SPEAKER),
}


@pytest.mark.parametrize("name", list(STEPS))
def test_a_step_costs_the_same_at_n_and_ten_n(name):
    step, speaker = STEPS[name]
    counts, kinds = [], []
    for n in SIZES:
        m = meeting_of(n, speaker)
        step(m)  # once on another meeting first, to fill the logging cache
        m = meeting_of(n, speaker)
        count, events = counted(lambda: step(m))
        counts.append(count)
        kinds.append(sorted(e.kind.value for e in events))
    assert counts[0] == counts[1], f"{name}: {counts} events at N = {SIZES}"
    assert kinds[0] == kinds[1]
    assert len(kinds[0]) <= 2 * len(LANGUAGES)  # O(k + L), not O(N)


def test_the_allocating_hand_off_routes_the_outgoing_speaker():
    m = meeting_of(SIZES[0])
    events = hand_off_allocating(m)
    kinds = [e.kind.value for e in events]
    assert kinds.count("pipeline-decommissioned") == 1
    # l00's new pipeline, which the outgoing speaker now hears
    assert [(e.language, e.pipeline_id) for e in events
            if e.kind.value == "pipeline-allocated"] == [
        ("l00", m.delivery[SPEAKER])]


#: Language counts L and 10*L for the membership passes, each with a pool
#: of L - 8: the speaker's language and seven listener languages have no
#: pipeline.
LANGUAGE_COUNTS = (40, 400)


def one_member_per_language(languages: int) -> Meeting:
    """Member ``i`` speaks language ``i`` of ``languages``, and member 0
    holds the floor: languages 1 to L - 8 hold the pool, the last seven
    fail to allocate."""
    roster = Roster({member(i): f"m{i:03d}" for i in range(languages)})
    meeting = Meeting(participants=roster, pool_capacity=languages - 8)
    update_orchestration(meeting, SPEAKER)
    return meeting


def join_a_served_language(m: Meeting):
    m.participants["joiner"] = "m005"
    return update_orchestration(m, SPEAKER)[1]


def last_member_leaves(m: Meeting):
    # m005 is released and the first unserved language takes its slot
    del m.participants[member(5)]
    return update_orchestration(m, SPEAKER)[1]


def listener_language_change(m: Meeting):
    # m005 loses its one member to m006, and its slot goes as on a leave
    m.participants[member(5)] = "m006"
    return update_orchestration(m, SPEAKER)[1]


MEMBERSHIP_PASSES = {
    "join": join_a_served_language,
    "leave": last_member_leaves,
    "language-change": listener_language_change,
}


@pytest.mark.parametrize("name", list(MEMBERSHIP_PASSES))
def test_a_membership_pass_costs_the_same_at_l_and_ten_l(name):
    step = MEMBERSHIP_PASSES[name]
    counts, kinds = [], []
    for languages in LANGUAGE_COUNTS:
        step(one_member_per_language(languages))  # fills the logging cache
        m = one_member_per_language(languages)
        count, events = counted(lambda: step(m))
        counts.append(count)
        kinds.append(sorted(e.kind.value for e in events))
    assert counts[0] == counts[1], (
        f"{name}: {counts} events at L = {LANGUAGE_COUNTS}")
    assert kinds[0] == kinds[1]
    assert "pipeline-reused" not in kinds[0]


@pytest.mark.parametrize("name", list(MEMBERSHIP_PASSES))
@pytest.mark.parametrize("languages", LANGUAGE_COUNTS)
def test_a_membership_pass_that_opens_no_interval_builds_no_log_record(
        languages, name, monkeypatch):
    # the first pass opens seven unserved intervals in one record; a
    # membership pass that keeps them, or serves one, builds none
    messages = []
    make_record = logging.Logger.makeRecord

    def counting(self, *args, **kwargs):
        record = make_record(self, *args, **kwargs)
        messages.append(record.getMessage())
        return record

    monkeypatch.setattr(logging.Logger, "makeRecord", counting)
    m = one_member_per_language(languages)
    unserved = ", ".join(f"m{i:03d}" for i in range(languages - 7, languages))
    assert messages == [f"no free pipeline slot for languages {unserved} "
                        f"(capacity {languages - 8})"]
    MEMBERSHIP_PASSES[name](m)
    assert len(messages) == 1


def scenario(n: int, stretch: bool) -> dict:
    """``n`` members over the 40 languages, pool 32, member 0 taking the
    floor at t = 0; with ``stretch``, a hand-off of each kind, a join, a
    leave and language changes follow, each at its own time."""
    events = [{"time": 0.0, "kind": "speaker-change", "participant": SPEAKER}]
    if stretch:
        events += [
            {"time": 1.0, "kind": "join", "participant": "joiner",
             "language": "l05"},
            {"time": 2.0, "kind": "language-change", "participant": member(5),
             "language": "l39"},
            {"time": 3.0, "kind": "speaker-change", "participant": member(40)},
            {"time": 4.0, "kind": "speaker-change", "participant": member(1)},
            {"time": 5.0, "kind": "leave", "participant": member(7)},
            {"time": 6.0, "kind": "speaker-change", "participant": member(39)},
            {"time": 7.0, "kind": "language-change", "participant": member(39),
             "language": "l02"},
            {"time": 8.0, "kind": "speaker-change", "participant": SPEAKER},
        ]
    return {
        "participants": [{"id": member(i), "language": LANGUAGES[i % 40]}
                         for i in range(n)],
        "pool_capacity": POOL,
        "latency_model": {"form": "affine", "params": {"a": 0.2, "b": 0.5}},
        "segment_duration": 1.0,
        "run_duration": 12.0,
        "events": events,
    }


def per_stretch(call: Callable[[object], object]) -> list[int]:
    """At each roster size, the count of ``call`` on the scenario with the
    stretch of events less its count on the scenario without it."""
    costs = []
    for n in SIZES:
        without = scenario_from_json(scenario(n, stretch=False))
        with_stretch = scenario_from_json(scenario(n, stretch=True))
        call(with_stretch)  # fills the caches a first call fills
        costs.append(counted(lambda: call(with_stretch))[0]
                     - counted(lambda: call(without))[0])
    return costs


def test_run_scenario_costs_the_same_per_event_at_n_and_ten_n():
    costs = per_stretch(run_scenario)
    assert costs[0] == costs[1], f"{costs} events at N = {SIZES}"


def test_check_scenario_costs_the_same_per_event_at_n_and_ten_n():
    # the stretch is valid: every one of its events is checked in full
    assert _check_scenario(scenario_from_json(scenario(SIZES[0], True)))[0] == []
    costs = per_stretch(_check_scenario)
    assert costs[0] == costs[1], f"{costs} events at N = {SIZES}"


def one_turn(languages: int, seconds: float) -> dict:
    """A speaker and one listener in each of ``languages`` other languages,
    a pool for all of them, and one turn of ``seconds`` at T = 1 s and tau =
    0.7: every session shares the turn's schedule of ``seconds`` boundaries,
    and none stalls."""
    return {
        "participants": [{"id": member(i), "language": f"m{i:03d}"}
                         for i in range(languages + 1)],
        "pool_capacity": languages,
        "latency_model": {"form": "affine", "params": {"a": 0.2, "b": 0.5}},
        "segment_duration": 1.0,
        "run_duration": seconds,
        "events": [{"time": 0.0, "kind": "speaker-change",
                    "participant": SPEAKER}],
    }


def test_a_shared_boundary_costs_the_same_at_4_and_32_languages():
    # per-boundary work: the count at 2M boundaries less the count at M
    costs = []
    for languages in (4, 32):
        short, long = (scenario_from_json(one_turn(languages, seconds))
                       for seconds in (40.0, 80.0))
        run_scenario(long)  # fills the caches a first call fills
        costs.append(counted(lambda: run_scenario(long))[0]
                     - counted(lambda: run_scenario(short))[0])
    assert costs[0] == costs[1], f"{costs} events at 4 and 32 languages"


def test_a_run_of_one_row_object_is_written_once():
    # 8 distinct rows, each repeated 4 or 30 times, in one block
    rows = [{"time_s": i / 7, "k": i % 3, "token_cost": float(i % 3),
             "naive_cost": 132.0, "alloc_failures": 0, "stalls_cum": i / 9}
            for i in range(8)]
    counts = []
    for repeats in (4, 30):
        table = [row for row in rows for _ in range(repeats)]
        assert len(table) <= _BLOCK_ROWS
        dumps_json(table)  # fills the writer's encoders
        counts.append(counted(lambda: dumps_json(table))[0])
    assert counts[0] == counts[1], f"{counts} events at 4 and 30 repeats"


def digest_transient(n: int) -> int:
    """The bytes ``scenario_digest`` allocates beyond what is held when it
    starts, on the scenario of ``n`` members with its stretch of events."""
    digested = scenario_from_json(scenario(n, stretch=True))
    scenario_digest(digested)  # fills the caches a first call fills
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        scenario_digest(digested)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_the_digest_takes_the_same_memory_at_2000_and_20000_members():
    # The participants are hashed a block at a time, so the transient
    # differs by less than one block's worth: the transient at one block
    # less that at none.  Measured on Python 3.11: 69 322 bytes at both
    # sizes, a margin of the whole block's worth, 59 755 bytes (69 258 less
    # 9 503).  With the whole text built first they were 535 276 and
    # 5 313 436 bytes, 4.8 MB apart.
    sizes = (2000, 20_000)
    transients = [digest_transient(n) for n in sizes]
    block = digest_transient(_BLOCK_ROWS) - digest_transient(0)
    assert abs(transients[1] - transients[0]) < block, (transients, block)


class Sink:
    """A stream that keeps only the text of each ``write``, if asked to."""

    def __init__(self, keep: bool = False) -> None:
        self.pieces: list[str] = []
        self.keep = keep

    def write(self, text: str) -> int:
        if self.keep:
            self.pieces.append(text)
        return len(text)


def map_transient(n: int) -> int:
    """The bytes ``dump_json`` allocates beyond what is held when it starts,
    writing a map of ``n`` scalars, keyed in no sorted order, to a stream
    that keeps nothing."""
    stalls = {member((i * 7919) % max(n, 1)): i / 7 for i in range(n)}
    sink = Sink()
    dump_json(stalls, sink)  # fills the writer's encoders
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        dump_json(stalls, sink)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_a_map_takes_the_same_memory_at_2000_and_20000_keys():
    # A map of scalars is encoded a block of sorted keys at a time, so the
    # transients differ by less than one block's worth (the transient at
    # one block less that at none) plus what sorting the extra keys takes:
    # the sorted key list, a pointer per key, and the sort's merge buffer,
    # at most half as many.  Measured: 89 014 and 240 393 bytes on Python
    # 3.11, 151 379 apart, against a bound of 73 714 + 216 000; 52 632 and
    # 240 377 on 3.12 and 3.13, 187 745 apart, against 36 855 + 216 000.
    # Encoded whole they were 488 097 and 4 450 454 bytes on 3.11.
    sizes = (2000, 20_000)
    transients = [map_transient(n) for n in sizes]
    block = map_transient(_BLOCK_ROWS) - map_transient(0)
    sorting = 3 * struct.calcsize("P") * (sizes[1] - sizes[0]) // 2
    assert transients[1] - transients[0] < block + sorting, (
        transients, block, sorting)


@pytest.mark.parametrize("repeats", [1, 32, 256])
def test_a_table_block_is_written_in_pieces(repeats):
    # 256 rows, 256 distinct, 8 repeated 32 times or one repeated 256 times:
    # no piece passed to ``write`` is longer than half the block's text plus
    # one run, and none is empty
    rows = [{"time_s": i / 7, "k": i % 3, "token_cost": float(i % 3),
             "naive_cost": 132.0, "alloc_failures": 0, "stalls_cum": i / 9}
            for i in range(_BLOCK_ROWS // repeats)]
    table = [row for row in rows for _ in range(repeats)]
    assert len(table) == _BLOCK_ROWS
    sink = Sink(keep=True)
    dump_json(table, sink)
    text = json.dumps(table, sort_keys=True, indent=2)
    assert "".join(sink.pieces) == text
    run = max(len(json.dumps([row] * repeats, sort_keys=True, indent=2))
              for row in rows)  # with its brackets, as long as a separator
    assert max(map(len, sink.pieces)) <= len(text) / 2 + run, (
        list(map(len, sink.pieces)), len(text), run)
    assert "" not in sink.pieces
    sink = Sink(keep=True)
    dump_json(table[:1], sink)  # a block of one row
    assert "" not in sink.pieces
    assert "".join(sink.pieces) == json.dumps(table[:1], sort_keys=True,
                                              indent=2)
