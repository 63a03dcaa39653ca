"""Fuzzing of the CLI boundary: generated scenario JSON, model JSON and
measurement CSV go through ``cli.main``.

Each input starts from a small valid document, then some of its fields get
wrong types, non-finite, huge or tiny numbers, or go missing, and some files
get bytes that are not UTF-8.  Whatever the input, ``main`` must return 0,
with strict JSON (no ``NaN`` or ``Infinity``) on stdout, or 1, 2 or 3 with a
``streamring: error:`` message; it must never raise.  Valid
draws stay small (runs of at most 60 s cut into segments of at least about
0.5 s), so each call is fast.  The long-run draws (up to 2e5 s in segments
of down to about 0.1 s) run under a small row budget instead, so that each
either makes few rows or exits 2 at the row limit.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from streamring import simulator
from streamring.cli import main

# generated table models are often evaluated outside their points on purpose
pytestmark = pytest.mark.filterwarnings(
    "ignore::streamring.latency.ExtrapolationWarning"
)

DELETE = object()

#: Wrong types, non-finite and huge numbers; each value replaces one field.
ODD_VALUES = st.sampled_from(
    [None, True, "x", "", [], [1], {}, {"a": 1}, -1, 0, 1e-300, 1e308,
     10**400, math.nan, math.inf, -math.inf, DELETE]
)

LANGUAGES = ["en", "de", "fr", "ja"]
KINDS = ["speaker-change", "join", "leave", "language-change"]

FUZZ = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def models() -> st.SearchStrategy[dict]:
    coefficient = st.floats(0.5, 2.0)
    cold = st.floats(0.0, 1.0)
    return st.one_of(
        st.builds(
            lambda form, a, b, c: {"form": form, "params": {"a": a, "b": b},
                                   "valid_range": [1.0, 8.0], "cold_start_extra": c},
            st.sampled_from(["affine", "log"]), coefficient, st.floats(0.0, 2.0), cold,
        ),
        st.builds(
            lambda c: {"form": "table", "params": {"points": [[1.0, 0.8], [2.0, 1.2],
                                                              [4.0, 2.0]]},
                       "cold_start_extra": c},
            cold,
        ),
        st.builds(
            lambda label, form: {"fixture": label, "form": form},
            st.sampled_from(["A100", "RTX4060", "T4"]),
            st.sampled_from(["affine", "log", "table", "auto"]),
        ),
    )


@st.composite
def scenarios(draw) -> dict:
    n = draw(st.integers(2, 5))
    run_duration = draw(st.floats(1.0, 60.0))
    events = draw(st.lists(
        st.tuples(st.floats(0.0, run_duration), st.sampled_from(KINDS),
                  st.integers(0, n), st.sampled_from(LANGUAGES)),
        max_size=6,
    ))
    return {
        "participants": [
            {"id": f"p{i}", "language": draw(st.sampled_from(LANGUAGES))}
            for i in range(n)
        ],
        "pool_capacity": draw(st.integers(0, 4)),
        "latency_model": draw(models()),
        "segment_duration": draw(st.one_of(st.just("auto"), st.floats(0.5, 10.0))),
        "run_duration": run_duration,
        "events": [
            {"time": t, "kind": kind, "participant": f"p{who}", "language": lang}
            for t, kind, who, lang in sorted(events)
        ],
        "unit_cost": 1.0,
    }


SCENARIO_PATHS = [
    ("participants",), ("participants", 0), ("participants", 0, "id"),
    ("participants", 0, "language"), ("pool_capacity",), ("latency_model",),
    ("latency_model", "form"), ("latency_model", "params"),
    ("latency_model", "params", "a"), ("latency_model", "params", "b"),
    ("latency_model", "params", "points"), ("latency_model", "valid_range"),
    ("latency_model", "cold_start_extra"), ("latency_model", "fixture"),
    ("segment_duration",), ("run_duration",), ("events",), ("events", 0),
    ("events", 0, "time"), ("events", 0, "kind"), ("events", 0, "participant"),
    ("events", 0, "language"), ("unit_cost",), ("translate_same_language",),
]

MODEL_PATHS = [
    path[1:] for path in SCENARIO_PATHS if path[0] == "latency_model" and path[1:]
]


def mutate(doc: object, path: tuple, value: object) -> None:
    """Set (or, for DELETE, remove) the field at ``path`` when its parent
    exists."""
    *parents, last = path
    with contextlib.suppress(KeyError, IndexError, TypeError):
        node = doc
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = copy.deepcopy(value)  # ODD_VALUES hands out shared objects


@st.composite
def documents(draw, base: st.SearchStrategy, paths: list[tuple]) -> bytes:
    """A base document with up to three fields replaced or removed, encoded
    as JSON; sometimes with a non-UTF-8 byte, or raw bytes instead."""
    doc = draw(base)
    for _ in range(draw(st.integers(0, 3))):
        mutate(doc, draw(st.sampled_from(paths)), draw(ODD_VALUES))
    data = json.dumps(doc).encode("utf-8")
    corruption = draw(st.sampled_from(["none"] * 6 + ["byte", "raw"]))
    if corruption == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    elif corruption == "raw":
        data = draw(st.binary(max_size=64))
    return data


#: Malformed, non-finite and huge cells; each replaces (or, for DELETE,
#: removes) one cell of a valid table.
ODD_CELLS = st.sampled_from(
    ["nan", "inf", "-inf", "1e308", "1.7e308", "1e999", "9" * 400, "-1", "0",
     "1e-320", "5e-324", "abc", "", "M", DELETE]
)


@st.composite
def measurement_csvs(draw) -> bytes:
    """A valid one-label measurement table of at least two distinct
    durations whose latencies grow with the duration, so that both forms
    can fit it, with up to three cells replaced or removed, mostly data
    cells; sometimes with a non-UTF-8 byte."""
    durations = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0]),
                              min_size=2, max_size=5, unique=True))
    a, b = draw(st.floats(0.05, 1.0)), draw(st.floats(0.1, 2.0))
    rows = [["label", "t_seconds", "run", "p_seconds"]]
    for t in durations:
        for run in range(draw(st.integers(1, 2))):
            p = a + b * t + draw(st.floats(0.0, 0.01))
            rows.append(["L", repr(t), str(run), repr(p)])
    for _ in range(draw(st.integers(0, 3))):
        # sampled_from, unlike integers(), does not favour the rare choices
        target = draw(st.sampled_from(["data"] * 14 + ["header", "label"]))
        if target == "header":
            row, column = rows[0], draw(st.integers(0, 3))
        else:
            row = draw(st.sampled_from(rows[1:]))
            column = 0 if target == "label" else draw(st.integers(1, 3))
        cell = draw(ODD_CELLS)
        row[column:column + 1] = [] if cell is DELETE else [cell]
    data = "".join(",".join(row) + "\n" for row in rows).encode("utf-8")
    if draw(st.sampled_from([False] * 7 + [True])):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _no_constant(name: str) -> None:
    raise AssertionError(f"machine JSON holds {name}")


def assert_clean_exit(argv: list[str]) -> None:
    """``main(argv)`` exits 0, 1, 2 or 3, with a message unless 0; a JSON
    result is strict JSON, without ``NaN`` or ``Infinity``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code != 0:
        assert "streamring: error:" in err.getvalue()
    elif "--format" in argv and argv[argv.index("--format") + 1] == "json":
        json.loads(out.getvalue(), parse_constant=_no_constant)


def _json(doc: dict) -> bytes:
    return json.dumps(doc).encode("utf-8")


#: Valid inputs whose results pass the float range: p(T) of the first, and
#: the finish times of the second.
HUGE_MODEL = {"form": "affine", "params": {"a": 1e308, "b": 1e308}}
OVERFLOWING_RUN = {
    "participants": [{"id": "A", "language": "en"}, {"id": "B", "language": "de"}],
    "pool_capacity": 2,
    "latency_model": {"form": "affine", "params": {"a": 3e307, "b": 0}},
    "segment_duration": 1.0,
    "run_duration": 20.0,
    "events": [{"time": 0.0, "kind": "speaker-change", "participant": "A"}],
}


@FUZZ
@example(data=_json({**OVERFLOWING_RUN, "latency_model": HUGE_MODEL,
                     "segment_duration": 8.0}))
@example(data=_json(OVERFLOWING_RUN))
@given(data=documents(scenarios(), SCENARIO_PATHS))
def test_scenario_json(work, data):
    path = work / "scenario.json"
    path.write_bytes(data)
    assert_clean_exit(["simulate", "--scenario", str(path), "--format", "json"])


#: The row budget the long-run fuzz patches in, so that a run the estimate
#: lets through makes few rows and each call stays fast.
FUZZ_ROW_BUDGET = 2000


@st.composite
def long_runs(draw) -> dict:
    """A valid scenario of up to 12 listener languages, a run of up to
    2e5 s (log-uniform) in segments of down to about 0.1 s, and up to eight
    hand-offs, language changes and joins, which break its sessions into
    shorter ones than the row estimate counts."""
    listeners = draw(st.integers(1, 12))
    run_duration = 10 ** draw(st.floats(0.0, math.log10(2e5)))
    ids = ["S"] + [f"L{i}" for i in range(listeners)]
    events = [{"time": 0.0, "kind": "speaker-change", "participant": "S"}]
    for time, kind, who, language in sorted(draw(st.lists(
            st.tuples(st.floats(0.0, run_duration),
                      st.sampled_from(["speaker-change", "language-change", "join"]),
                      st.integers(0, listeners), st.integers(0, 12)),
            max_size=8))):
        event = {"time": time, "kind": kind, "participant": ids[who],
                 "language": f"x{language}"}
        if kind == "join":
            event["participant"] = f"J{len(events)}"
        events.append(event)
    return {
        "participants": [{"id": "S", "language": "en"}] + [
            {"id": f"L{i}", "language": f"x{i}"} for i in range(listeners)],
        "pool_capacity": draw(st.integers(0, 12)),
        "latency_model": {
            "form": "affine",
            "params": {"a": draw(st.floats(0.05, 0.5)), "b": draw(st.floats(0.1, 1.2))},
            "valid_range": [0.1, 8.0], "cold_start_extra": draw(st.floats(0.0, 1.0))},
        "segment_duration": draw(st.one_of(st.just("auto"), st.floats(0.1, 5.0))),
        "run_duration": run_duration,
        "events": events,
    }


#: Two listener languages for 993 s in 1 s segments, broken by eight
#: hand-offs: the estimate, 1996 rows, is within the budget of 2000, and
#: the run stops at a session close.
BROKEN_RUN = {
    "participants": [{"id": "S", "language": "en"}, {"id": "L0", "language": "x0"},
                     {"id": "L1", "language": "x1"}],
    "pool_capacity": 12,
    "latency_model": {"form": "affine", "params": {"a": 0.2, "b": 0.5}},
    "segment_duration": 1.0,
    "run_duration": 993.0,
    "events": [{"time": 100.5 * i, "kind": "speaker-change",
                "participant": "L0" if i % 2 else "S"} for i in range(9)],
}


@FUZZ
@example(scenario=BROKEN_RUN)
@given(scenario=long_runs())
def test_long_runs_end_in_rows_or_the_row_limit(work, scenario):
    """Many languages over long runs either make at most the row budget or
    exit 2 naming it, before the run or at the session that would pass it."""
    path = work / "long.json"
    path.write_bytes(_json(scenario))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "MAX_SAMPLE_ROWS", FUZZ_ROW_BUDGET)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["simulate", "--scenario", str(path), "--format", "json"])
    if code == 0:
        samples = json.loads(out.getvalue(), parse_constant=_no_constant)["samples"]
        assert len(samples) <= FUZZ_ROW_BUDGET
    else:
        assert code == 2
        assert "(simulator.MAX_SAMPLE_ROWS)" in err.getvalue()


@FUZZ
@example(data=_json(HUGE_MODEL))
@given(data=documents(models().filter(lambda m: "form" in m and "params" in m),
                      MODEL_PATHS))
def test_model_json(work, data):
    path = work / "model.json"
    path.write_bytes(data)
    assert_clean_exit(["topt", "--model", str(path), "--continuous",
                       "--format", "json"])


@FUZZ
@example(data=b"label,t_seconds,run,p_seconds\nx,1e-320,0,1.0\nx,1,0,1.0\n",
         form="affine")
@given(data=measurement_csvs(), form=st.sampled_from(["auto", "affine", "log"]))
def test_measurement_csv(work, data, form):
    path = work / "measurements.csv"
    path.write_bytes(data)
    assert_clean_exit(["calibrate", "--input", str(path), "--form", form,
                       "--format", "json"])
