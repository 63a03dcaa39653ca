"""Cost-model and domain-type tests."""

from __future__ import annotations

import enum
import gc
import io
import json
import math
import operator
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from streamring.core import (
    _BLOCK_ROWS,
    CostModel,
    LanguageTag,
    Meeting,
    MeetingSizeError,
    Roster,
    ValidationError,
    cost_naive,
    dump_json,
    dumps_json,
)
from streamring.orchestrator import update_orchestration, verify_invariants


def brute_force_pair_count(n: int) -> int:
    """Independent oracle: enumerate ordered (viewer, speaker) pairs."""
    return sum(
        1 for viewer in range(n) for speaker in range(n) if viewer != speaker
    )


class TestLanguageTag:
    def test_normalizes_case(self):
        assert LanguageTag("EN") == LanguageTag("en")
        assert hash(LanguageTag("De")) == hash(LanguageTag("de"))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            LanguageTag("")
        with pytest.raises(ValidationError):
            LanguageTag("   ")

    def test_orders_lexicographically(self):
        tags = [LanguageTag(c) for c in ("tr", "DE", "en")]
        assert sorted(tags) == ["de", "en", "tr"]

    def test_is_its_normalized_code(self):
        tag = LanguageTag(" ZH-Hant ")
        assert isinstance(tag, str)
        assert tag == "zh-hant" and str(tag) == "zh-hant"
        assert hash(tag) == hash("zh-hant")
        assert {tag: 1}["zh-hant"] == 1
        assert LanguageTag(tag) == tag
        assert json.dumps([tag]) == '["zh-hant"]'

    def test_compares_and_hashes_in_str_own_slots(self):
        assert vars(LanguageTag)["__eq__"] is str.__eq__
        assert vars(LanguageTag)["__hash__"] is str.__hash__
        assert not hasattr(LanguageTag("en"), "__dict__")


class TestCostNaive:
    def test_smallest_legal_meeting(self):
        assert cost_naive(2, CostModel(1.0)) == 2.0

    def test_matches_pair_enumeration(self):
        assert cost_naive(5, CostModel(1.0)) == brute_force_pair_count(5) == 20

    def test_scales_with_unit_cost(self):
        assert cost_naive(10, CostModel(2.5)) == 2.5 * brute_force_pair_count(10)
        assert cost_naive(10, CostModel(2.5)) == 225.0

    def test_rejects_small_meetings(self):
        for n in (1, 0, -3):
            with pytest.raises(MeetingSizeError):
                cost_naive(n)

    @given(st.integers(min_value=3, max_value=500))
    def test_discrete_derivative_grows_linearly(self, n):
        c = CostModel(1.0)
        assert cost_naive(n, c) - cost_naive(n - 1, c) == 2 * (n - 1)


class TestPoolAndPipelines:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            Meeting(participants={"a": "en"}, pool_capacity=-1)

    def test_routes_total_when_a_listener_id_is_a_pipeline_id(self):
        m = Meeting(participants={"A": "en", "pl0001": "de"}, pool_capacity=2)
        update_orchestration(m, "A")
        assert m.pipelines == {LanguageTag("de"): "pl0001"}
        assert verify_invariants(m) == []
        assert m.delivery == {"pl0001": "pl0001"}


class TestMeeting:
    def test_plain_mapping_becomes_a_roster(self):
        m = Meeting(participants={"a": " EN"}, pool_capacity=1)
        assert isinstance(m.participants, Roster)
        assert type(m.participants["a"]) is LanguageTag
        assert m.participants.ids_of(LanguageTag("en")) == {"a"}

    def test_roster_keeps_a_tag_and_rejects_an_empty_id_or_language(self):
        roster = Roster()
        tag = LanguageTag("de")
        roster["a"] = tag
        assert roster["a"] is tag
        with pytest.raises(ValidationError, match="participant id must be non-empty"):
            roster[""] = "en"
        with pytest.raises(ValidationError, match="language tag must be non-empty"):
            roster["b"] = " "
        assert dict(roster) == {"a": "de"}
        assert roster.languages() == {"de"}

    def test_roster_copy_is_independent_both_ways(self):
        roster = Roster({"a": "en", "b": "EN", "c": "de"})
        copy = roster.copy()
        assert dict(copy) == dict(roster) and copy["a"] is roster["a"]
        assert copy.ids_of(LanguageTag("en")) == {"a", "b"}

        copy["a"] = "fr"
        del copy["c"]
        assert dict(roster) == {"a": "en", "b": "en", "c": "de"}
        assert roster.ids_of(LanguageTag("en")) == {"a", "b"}
        assert roster.ids_of(LanguageTag("de")) == {"c"}

        roster["d"] = "fr"
        del roster["b"]
        assert dict(copy) == {"a": "fr", "b": "en"}
        assert copy.ids_of(LanguageTag("fr")) == {"a"}
        assert copy.ids_of(LanguageTag("en")) == {"b"}
        assert copy.languages() == {"en", "fr"}
        assert roster.languages() == {"en", "de", "fr"}
        assert roster.ids_of(LanguageTag("en")) == {"a"}

    def test_roster_repr_shows_its_members_by_normalized_tag(self):
        assert repr(Roster({"a": " EN", "b": "de"})) == "Roster({'a': 'en', 'b': 'de'})"

    def test_pipeline_ids_are_sequential(self):
        m = Meeting(participants={"a": "en"}, pool_capacity=1)
        assert m.new_pipeline_id() == "pl0001"
        assert m.new_pipeline_id() == "pl0002"

    def test_unit_cost_must_be_positive(self):
        with pytest.raises(ValidationError):
            CostModel(0.0)

    @pytest.mark.parametrize("unit_cost", [math.inf, math.nan])
    def test_unit_cost_must_be_finite(self, unit_cost):
        with pytest.raises(ValidationError, match="finite and > 0"):
            CostModel(unit_cost)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 10


class _Seconds(float):
    pass


#: Strings that look like the writer's own structure or templates, or need
#: escaping.
_AWKWARD = ["", "},\n  {", "},\n      {", ",\n", "%", "%s", 'say "hi"',
            "back\\slash", "line\nbreak", "na\u00efve \u2603 \U0001f600"]
_keys = st.text(max_size=6) | st.sampled_from(_AWKWARD)
_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
            | st.sampled_from([LanguageTag("en"), LanguageTag("zh-hant")])
            | st.text(max_size=8) | st.sampled_from(_AWKWARD))
#: Lists of flat dicts, empty or not, with differing key sets.
_rows = st.lists(st.dictionaries(_keys, _scalars, max_size=4), max_size=4)
#: Groups of equal numbers that are written differently (NaNs count as
#: equal here); a text stands for a float made anew for each cell.
_EQUAL_NUMBERS = [(0, False, "0.0", "-0.0"), (1, True, "1.0"), ("nan", "-nan")]


def _fresh(value):
    return float(value) if type(value) is str else value


@st.composite
def _tables(draw, cells=_scalars):
    """Tables: up to 40 dicts on one key set (a single key included), each
    column mixing value types, and cells that often share one object or
    are equal to their neighbours without being the same object."""
    keys = draw(st.lists(_keys, min_size=1, max_size=4, unique=True))
    shared = st.sampled_from(draw(st.lists(cells, min_size=1, max_size=4)))
    row = st.fixed_dictionaries({
        key: shared | cells
        | st.sampled_from(draw(st.sampled_from(_EQUAL_NUMBERS))).map(_fresh)
        for key in keys})
    return draw(st.lists(row, min_size=1, max_size=40))


_exact_payloads = st.recursive(
    _scalars | _rows | _tables(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=20,
)
_not_json = st.sampled_from([_Level.LOW, _Level.HIGH, _Seconds(0.5)])
_any_payloads = st.recursive(
    _scalars | _rows | _tables(_scalars | _not_json) | _not_json,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(_keys, inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.integers(), inner, max_size=3)
    ),
    max_leaves=20,
)


def _assert_renders(payload) -> None:
    """``dumps_json`` and ``dump_json`` both give the oracle's text."""
    expected = json.dumps(payload, sort_keys=True, indent=2)
    assert dumps_json(payload) == expected
    buf = io.StringIO()
    dump_json(payload, buf)
    assert buf.getvalue() == expected


def _samples(rows: int) -> dict:
    """A report-shaped payload: a ``samples`` table of ``rows`` rows."""
    return {"samples": [
        {"time_s": i * 0.27, "k": i % 6, "token_cost": float(i % 6),
         "naive_cost": 132.0, "alloc_failures": 0, "stalls_cum": i / 7}
        for i in range(rows)]}


#: Rows equal to each other but each written differently, then rows that
#: differ in ``t``.
_ZERO_ROWS = [{"t": 0.5, "z": z, "k": 3} for z in (0, 0.0, -0.0, False)]
_ROWS = _ZERO_ROWS + [{"t": i / 7, "z": 1, "k": 3} for i in range(4)]
#: Rows that send their block row by row: another key set, a list cell.
_ODD_ROWS = [{"t": 0.5, "k": 3}, {"t": 0.5, "z": [0, -0.0], "k": 3}]


@st.composite
def _runs_of(draw, rows, odd=None):
    """A table of runs of one row object each, drawn from ``rows``, the
    runs short or about a block long; with ``odd``, one run of it at a
    drawn place."""
    length = st.integers(1, 3) | st.integers(_BLOCK_ROWS - 8, _BLOCK_ROWS + 8)
    runs = draw(st.lists(st.tuples(st.sampled_from(rows), length),
                         min_size=1, max_size=8))
    if odd is not None:
        runs.insert(draw(st.integers(0, len(runs))), (odd, draw(length)))
    return [row for row, size in runs for _ in range(size)]


class TestDumpsJson:
    """``dumps_json`` and ``dump_json`` against their oracle,
    ``json.dumps(sort_keys=True, indent=2)``: exact JSON types take the
    C-encoder path, anything else is rendered by the oracle itself."""

    @example({"samples": [{"t": 0.5, "s": "},\n      {"}, {"t": math.nan, "u": True}],
              "deep": {"a": {"b": [[], {}, [{}, {}], [-math.inf, math.inf, None]]}}})
    @example([{"a": 1}, {"b": 2}])
    @example([{"a": 1}, {"a": 2, "b": 3}, {"a": 4}])
    @example({"t": [{"a": 1.5, "b": "%s"}, {"a": -0.0, "b": [{"%": math.nan}]}]})
    @given(_exact_payloads)
    def test_exact_json_types(self, payload):
        _assert_renders(payload)

    def test_tables_of_several_blocks(self):
        rows = [{"t": i / 7, "s": "%s" * (i % 3), "n": None}
                for i in range(2 * _BLOCK_ROWS + 5)]
        middle = _BLOCK_ROWS + 7
        for table in (rows, rows + [{"t": 1, "s": [], "n": None}],
                      rows + [{"t": 1, "x": 2, "n": None}],
                      rows[:middle] + [{"t": 1, "s": ({"u": 2},), "n": None}]
                      + rows[middle:],
                      rows[:middle] + [{"t": 1, "n": None}] + rows[middle:]):
            _assert_renders({"samples": table})
        # keys that a template or a row separator could mistake for its own,
        # written as they are, in a uniform table of more than two blocks
        odd = [{"%": i, "%s": i / 3, '"': '"},\n      {"', "\n": "%d", "k": True}
               for i in range(3 * _BLOCK_ROWS + 1)]
        _assert_renders({"samples": odd})
        # a list of scalars of more than two blocks, one C call per block
        scalars = [(f'",\n    "{i}', i / 7, None, i % 2 == 0, LanguageTag("en"),
                    -0.0, math.nan)[i % 7] for i in range(2 * _BLOCK_ROWS + 5)]
        _assert_renders({"warnings": scalars, "samples": rows[:3]})

    def test_runs_are_cut_by_identity_not_equality(self):
        # each cell equals the one before it but is another object
        cells = [0, 0.0, False, -0.0, float("0.0"), 1, 1.0, True,
                 float("nan"), float("nan")]
        assert not any(map(operator.is_, cells, cells[1:]))
        for table in ([{"v": c} for c in cells],
                      [{"v": c, "i": i, "s": "x"} for i, c in enumerate(cells)],
                      [{"v": c, "w": c} for c in cells for _ in "ab"]):
            _assert_renders({"samples": table})

    def test_a_run_across_a_block_boundary(self):
        zero = float("0.0")
        column = ([i / 7 for i in range(_BLOCK_ROWS - 6)] + [zero] * 12
                  + [0, False, -0.0, 0.0] * 3 + [zero] * 4)
        _assert_renders({"samples": [{"t": c, "k": 3} for c in column]})

    def test_a_block_in_which_every_column_is_one_object(self):
        row = {"a": 0, "b": -0.0, "c": "x", "d": None, "e": False}
        same = [dict(row) for _ in range(_BLOCK_ROWS)]
        twins = [{"a": False, "b": 0.0, "c": "x", "d": None, "e": 0}] * 3
        for table in (same, same + twins, [row] * (_BLOCK_ROWS + 3)):
            _assert_renders({"samples": table})

    def test_a_block_of_one_row(self):
        rows = [{"t": i / 7, "z": (0, 0.0)[i % 2]}
                for i in range(_BLOCK_ROWS + 1)]
        for table in (rows, [{"a": -0.0, "b": 0}]):
            _assert_renders({"samples": table})

    def test_a_block_in_which_every_row_differs(self):
        zeros = [0, 0.0, False, -0.0] * 80
        _assert_renders({"samples": [
            {"i": i, "t": i / 7, "z": z} for i, z in enumerate(zeros)]})

    @example([_ROWS[0]] * 5 + _ROWS[1:])  # a run at the start
    @example(_ROWS[:3] + [_ROWS[3]] * 5 + _ROWS[4:])  # in the middle
    @example(_ROWS[:-1] + [_ROWS[-1]] * 5)  # at the end
    @example(_ROWS[4:] * 63 + [_ROWS[0]] * 9 + _ROWS)  # across a block's end
    @example([row for row in _ZERO_ROWS for _ in "abc"])  # equal, not merged
    @given(_runs_of(_ROWS))
    def test_runs_of_one_row_object(self, table):
        _assert_renders({"samples": table})

    @example([*_ROWS[:2], _ODD_ROWS[0], _ODD_ROWS[0], *[_ROWS[2]] * 4])
    @example([*[_ROWS[5]] * 300, _ODD_ROWS[1], *[_ROWS[-1]] * 3])
    @given(st.sampled_from(_ODD_ROWS).flatmap(
        lambda odd: _runs_of(_ROWS, odd)))
    def test_repeated_rows_in_a_block_written_row_by_row(self, table):
        _assert_renders({"samples": table})

    @example({10: 1, 9: 2})
    @example({"rows": [{"level": _Level.HIGH}, {"level": 2}], "pair": (1, [2.5])})
    @given(_any_payloads)
    def test_any_json_types(self, payload):
        _assert_renders(payload)

    def test_empty_containers_leave_no_cycle(self):
        # the pure-Python encoder's closures left a reference cycle for the
        # collector on every call with an empty list or dict
        payload = {"warnings": [], "stalls": {}, "deep": [[], {}, {"a": []}]}
        _assert_renders(payload)
        gc.collect()
        dumps_json(payload)
        assert gc.collect() == 0

    @pytest.mark.parametrize("size", [255, 256, 257, 600])
    def test_maps_of_scalars_across_block_seams(self, size):
        # a block of sorted keys per C call; keys that need escaping or
        # sort among the seams, and every scalar type
        values = [None, True, False, 0, -3, 2**70, 0.1, -0.0, math.nan,
                  math.inf, -math.inf, "x", "line\nbreak", LanguageTag("en")]
        keys = [f"p{i:04d}" for i in range(size - len(_AWKWARD))] + _AWKWARD
        stalls = {key: values[i % len(values)] for i, key in enumerate(keys)}
        assert len(stalls) == size
        _assert_renders({"listener_stalls": stalls, "samples": [{"t": 1}]})
        _assert_renders(dict(reversed(list(stalls.items()))))

    def test_writing_a_table_takes_memory_that_does_not_grow_with_it(
            self, tmp_path):
        # Past the payload itself, the peak is one block's strings: 119 and
        # 120 KiB on Python 3.11 (128 KiB with each table block written in
        # one piece), where the whole text of the table and as many warnings
        # is 2.3 and 9.4 MiB.  With the warnings encoded whole, it was 2.1
        # MiB at 10**4 rows.
        for rows in (10**4, 4 * 10**4):
            payload = _samples(rows)
            payload["warnings"] = [f"allocation failed for language l{i % 40}"
                                   f" at t={i} s (pool capacity 32)"
                                   for i in range(rows)]
            tracemalloc.start()
            try:
                with open(tmp_path / "out.json", "w", encoding="utf-8") as fh:
                    dump_json(payload, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 512 * 1024, (rows, peak)
