"""Cost-model and domain-type tests."""

from __future__ import annotations

import enum
import io
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from streamring.core import (
    _BLOCK_ROWS,
    SPEAKER_RAW,
    CostModel,
    DegenerateMeetingWarning,
    LanguageTag,
    Meeting,
    MeetingSizeError,
    Roster,
    Route,
    ValidationError,
    cost_naive,
    cost_token,
    dump_json,
    dumps_json,
)
from streamring.orchestrator import update_orchestration, verify_invariants


def brute_force_pair_count(n: int) -> int:
    """Independent oracle: enumerate ordered (viewer, speaker) pairs."""
    return sum(
        1 for viewer in range(n) for speaker in range(n) if viewer != speaker
    )


def brute_force_unique_tags(tags: list[str]) -> int:
    """Independent oracle: build the set of normalized tags and count it."""
    return len({t.strip().lower() for t in tags})


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


class TestCostToken:
    def test_single_language_best_case(self):
        assert cost_token(["en"]) == (1, 1.0)

    def test_duplicates_collapse(self):
        tags = ["en", "de", "tr", "en"]
        k, total = cost_token(tags)
        assert k == brute_force_unique_tags(tags) == 3
        assert total == 3.0

    def test_all_distinct_worst_case(self):
        tags = [f"l{i}" for i in range(9)]
        assert cost_token(tags) == (9, 9.0)

    def test_empty_listener_set_warns(self):
        with pytest.warns(DegenerateMeetingWarning):
            k, total = cost_token([])
        assert (k, total) == (0, 0.0)

    def test_accepts_raw_strings_and_tags(self):
        k, _ = cost_token([LanguageTag("EN"), "en", "de"])
        assert k == 2

    @given(
        st.lists(st.sampled_from(["en", "de", "tr", "fr"]), min_size=1, max_size=20)
    )
    def test_permutation_and_case_invariant(self, tags):
        rng = random.Random(0)
        shuffled = list(tags)
        rng.shuffle(shuffled)
        cased = [t.upper() if i % 2 else t for i, t in enumerate(shuffled)]
        assert cost_token(tags) == cost_token(cased)

    @given(
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=1, max_value=8),
        st.randoms(use_true_random=False),
    )
    def test_never_exceeds_reciprocal_of_n(self, n, n_langs, rng):
        langs = [f"l{rng.randrange(n_langs)}" for _ in range(n - 1)]
        c = CostModel(1.0)
        _, token = cost_token(langs, c)
        naive = cost_naive(n, c)
        assert token <= c.unit_cost * (n - 1)
        assert token / naive <= 1.0 / n + 1e-12


class TestPoolAndPipelines:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            Meeting(participants={"a": "en"}, pool_capacity=-1)

    def test_routes_total_when_a_listener_id_is_a_pipeline_id(self):
        m = Meeting(participants={"A": "en", "pl0001": "de"}, pool_capacity=2)
        update_orchestration(m, "A")
        assert m.pipelines == {LanguageTag("de"): "pl0001"}
        assert verify_invariants(m) == []
        assert m.routes == {Route(SPEAKER_RAW, "pl0001"), Route("pl0001", "pl0001")}


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


@st.composite
def _tables(draw, cells=_scalars):
    """Tables: up to 40 dicts on one key set (a single key included), each
    column mixing value types, and cells that often share one object."""
    keys = draw(st.lists(_keys, min_size=1, max_size=4, unique=True))
    shared = st.sampled_from(draw(st.lists(cells, min_size=1, max_size=4)))
    row = st.fixed_dictionaries({key: shared | cells for key in keys})
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

    @example({10: 1, 9: 2})
    @example({"rows": [{"level": _Level.HIGH}, {"level": 2}], "pair": (1, [2.5])})
    @given(_any_payloads)
    def test_any_json_types(self, payload):
        _assert_renders(payload)

    def test_writing_a_table_takes_memory_that_does_not_grow_with_it(
            self, tmp_path):
        # Past the payload itself, the peak is one block's strings: 228 KiB
        # at both sizes on Python 3.11, where the whole text is 1.7 and
        # 6.6 MiB.
        for rows in (10**4, 4 * 10**4):
            payload = _samples(rows)
            tracemalloc.start()
            try:
                with open(tmp_path / "out.json", "w", encoding="utf-8") as fh:
                    dump_json(payload, fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 512 * 1024, (rows, peak)
