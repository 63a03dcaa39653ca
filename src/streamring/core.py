"""Shared domain types and the closed-form pipeline cost model.

A meeting has one active speaker and N-1 passive listeners.  Translating the
speaker's stream needs one pipeline instance per *distinct* listener target
language (cost C*k), not one per (viewer, speaker) pair (cost C*N*(N-1)).
``cost_naive`` gives the latter; the remaining types are the state the
orchestrator transforms.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections.abc import Iterator, Mapping, MutableMapping
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from operator import is_not, itemgetter, sub
from typing import AbstractSet, Callable, Iterable, Optional, TextIO


class ValidationError(ValueError):
    """User-supplied input failed structural validation."""


class MeetingSizeError(ValidationError):
    """Cost query on a meeting with fewer than two participants."""


class UnknownParticipantError(ValidationError):
    """An operation referenced a participant id not present in the meeting."""


class LanguageTag(str):
    """Case-insensitive language identifier such as "en", "de", "tr".

    A tag is its code: a ``str`` stripped and lowercased on construction,
    so two tags with the same letters in different case compare, hash and
    sort as one string.  ``__eq__`` and ``__hash__`` are ``str``'s own C
    slots, named here so that code patching them on the class (such as the
    benchmark's equality counter) finds an original to restore.
    """

    __slots__ = ()
    __eq__ = str.__eq__
    __hash__ = str.__hash__

    def __new__(cls, code: str) -> "LanguageTag":
        normalized = code.strip().lower()
        if not normalized:
            raise ValidationError("language tag must be non-empty")
        return super().__new__(cls, normalized)


def read_json(path) -> object:
    """The JSON document in the file at ``path``, or a ValidationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # also non-UTF-8, deep nesting
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None


_SCALARS = frozenset({str, LanguageTag, int, float, bool, type(None)})


#: Items of a list, such as a table's rows, or keys of a dict of scalars,
#: encoded together.  A block's per-value strings are freed before its text
#: is written, and that text before the next block is encoded, so rendering
#: a list or a map takes memory that does not grow with its length.
_BLOCK_ROWS = 256

def dump_json(payload: object, fh: TextIO) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2)`` to ``fh``,
    byte for byte, each piece as soon as it is made, like ``json.dump``.

    Any ``indent`` makes ``json.dumps`` use its pure-Python encoder, so this
    encodes a dict of scalars in C calls whose item separator is the
    newline and indent, one per block of ``_BLOCK_ROWS`` sorted keys (such
    as a report's ``listener_stalls``), then pads the braces.  The C
    encoder escapes ``\\n`` inside strings, so a literal newline can only be
    a separator.  An empty list or dict is written by the C encoder too.  A
    list is written in blocks of ``_BLOCK_ROWS`` items: a block of scalars
    (such as a report's ``warnings``) in one such C call, and a block of
    dicts (such as a report's ``samples``) cut into runs of one row object (a
    report's consecutive equal ``samples`` rows are one dict), each run's
    head encoded once.  If the heads share one non-empty set of
    ``str`` keys and hold only scalars, they are encoded by columns, one C
    call per column for the heads of its runs of one object (see
    ``_table``), interleaved with the key prefixes row by row, and the
    block is written in two pieces, cut at its middle run (see ``_rows``);
    any other block is written row by row.  Both encoders write a
    ``LanguageTag`` as its string.  A value that is not exactly a JSON type
    or a tag (a tuple, an ``int`` subclass), or a dict with a key that is
    not a ``str``, is rendered by ``json.dumps`` where it stands, its
    newlines replaced by the current newline and indent.
    """
    _write(payload, "\n", fh.write)


def dumps_json(payload: object) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)``, byte for byte: the
    pieces ``dump_json`` writes, joined."""
    pieces: list[str] = []
    _write(payload, "\n", pieces.append)
    return "".join(pieces)


#: Each item separator's encoder, built on its first use.  An encoder
#: keeps no state between calls, so one serves every caller.
_ENCODERS: dict[str, Callable[[object], str]] = {}


def _flat(container: object, nl: str) -> str:
    """``container`` in the C encoder, items separated by ``,`` + ``nl``."""
    encode = _ENCODERS.get(nl)
    if encode is None:
        encode = _ENCODERS[nl] = json.JSONEncoder(
            sort_keys=True, separators=("," + nl, ": ")).encode
    return encode(container)


def _types(values: Iterable[object]) -> set[type]:
    return set(map(type, values))


def _write(value: object, nl: str, write: Callable[[str], object]) -> None:
    """Pass ``value``, at the depth whose newline and indent are ``nl``, to
    ``write`` in pieces: a dict of scalars and a list each a block of
    ``_BLOCK_ROWS`` sorted keys or items at a time, a table block in
    ``_rows``' pieces, each freed before the next is made."""
    kind = type(value)
    if kind in _SCALARS or not value and (kind is list or kind is dict):
        write(_flat(value, nl))  # an empty list or dict is "[]" or "{}"
        return
    if not (kind is list or kind is dict and _types(value) == {str}):
        # a tuple, an int subclass or a key that is not a str
        write(json.dumps(value, sort_keys=True, indent=2).replace("\n", nl))
        return
    inner = nl + "  "
    if kind is dict:
        opener = "{" + inner
        keys = sorted(value)
        if _types(value.values()) <= _SCALARS:  # one C call per block of keys
            for start in range(0, len(keys), _BLOCK_ROWS):
                block = keys[start:start + _BLOCK_ROWS]
                write(opener)
                write(_flat(dict(zip(block, map(value.__getitem__, block))),
                            inner)[1:-1])
                opener = "," + inner
        else:
            for key in keys:
                write(opener + _flat(key, inner) + ": ")
                _write(value[key], inner, write)
                opener = "," + inner
        write(nl + "}")
        return
    opener = "[" + inner
    items = _types(value)
    for start in range(0, len(value), _BLOCK_ROWS):
        block = value[start:start + _BLOCK_ROWS]
        if items <= _SCALARS:  # one C call per block
            write(opener)
            write(_flat(block, inner)[1:-1])
        elif not (items == {dict} and _rows(block, inner, opener, write)):
            for item in block:
                write(opener)
                _write(item, inner, write)
                opener = "," + inner
        opener = "," + inner
    write(nl + "]")


def _rows(block: list, nl: str, opener: str,
          write: Callable[[str], object]) -> bool:
    """Write ``opener``, then the dicts ``block`` in ``_table``'s texts,
    joined by ``,`` + ``nl``; or write nothing and return False when
    ``_table`` declines them.

    The texts are written in two pieces, one ``write`` each and none
    empty, cut at the first run of one row object that starts at or after
    the middle row: a piece holds half the rows plus at most one run, and
    its texts, their join and what ``write`` makes of it are freed before
    the next piece is made."""
    edges, heads = _runs(block)
    texts = _table(heads, nl)
    if texts is None:
        return False
    middle = bisect_left(edges, len(block) // 2)
    edges.append(len(block))
    write(opener)
    if middle:  # the runs that start before the middle row
        write(("," + nl).join(_repeated(islice(texts, middle),
                                        edges[:middle + 1])))
    if middle < len(heads):  # the rest, after a separator if rows came first
        write(("," + nl).join(chain(("",) if middle else (), _repeated(
            texts, edges[middle:]))))
    return True


def _runs(items: list) -> tuple[list[int], list]:
    """Where each run of one object in ``items`` starts, and its first
    item, found by identity in C: ``0``, ``0.0``, ``False`` and ``-0.0``
    are equal but write differently, so values are never compared."""
    starts = [0, *compress(count(1), map(is_not, items[1:], items))]
    if len(starts) == len(items):  # every run is one item
        return starts, items
    return starts, list(map(items.__getitem__, starts))


def _repeated(texts: Iterable[str], edges: list[int]) -> Iterable[str]:
    """Each text of ``texts`` once per item of its run, the runs bounded by
    consecutive ``edges``."""
    if edges[-1] - edges[0] == len(edges) - 1:  # every run is one item
        return texts
    return chain.from_iterable(map(repeat, texts, map(sub, edges[1:], edges)))


def _table(rows: list, nl: str) -> Optional[Iterator[str]]:
    """The text of each of the dicts ``rows`` at the depth whose newline
    and indent are ``nl``, in order, or None unless they share the first
    row's non-empty set of ``str`` keys and hold only scalars.

    A column is cut into runs of one object and each run's text is made
    once.  A column that is one object in every row joins the fixed key
    text around it; any other column encodes its run heads in one C call
    and repeats each head's text over its run.  The columns are encoded
    here, but a row's text is joined from them only when the iterator
    reaches it, so the rows' texts never exist all at once."""
    keys = rows[0].keys()
    if _types(keys) != {str} or set(map(len, rows)) != {len(keys)}:
        return None
    field = nl + "  "
    opener = "{" + field
    fixed = ""  # the text since the last column that varies
    parts: list[Iterable[str]] = []  # per varying column: its prefix, its texts
    for name in sorted(keys):
        try:  # rows of one size that hold every key share the key set
            column = list(map(itemgetter(name), rows))
        except KeyError:
            return None
        starts, heads = _runs(column)
        if not _types(heads) <= _SCALARS:  # a run's cells are its head
            return None
        fixed += opener + _flat(name, field) + ": "
        opener = "," + field
        if len(heads) == 1:
            fixed += _flat(heads[0], "\n")
            continue
        parts.append(repeat(fixed))
        starts.append(len(rows))
        parts.append(_repeated(_flat(heads, "\n")[1:-1].split(",\n"), starts))
        fixed = ""
    parts.append(repeat(fixed + nl + "}", len(rows)))
    return map("".join, zip(*parts))


def _number(value: object, name: str, expected: str = "a number") -> float:
    """A JSON number (not a bool) as a float, or a ValidationError that names
    the field."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise ValidationError(f"{name} must be {expected}, got {value!r}")


_EXPECTED = {str: "a string", dict: "an object", list: "an array",
             bool: "true or false"}


def _typed(value: object, kind: type, name: str):
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be {_EXPECTED[kind]}, got {value!r}")
    return value


def _field(entry: dict, key: str, at: str = "") -> object:
    """``entry[key]``, or a ValidationError that names the missing field by
    its path, ``at`` (such as ``"events[1]."``) then ``key``."""
    try:
        return entry[key]
    except KeyError:
        raise ValidationError(f"{at}{key} is missing") from None


class Roster(MutableMapping[str, LanguageTag]):
    """Each member's language by id, plus the ids of each language's
    members.

    Setting a member's language normalizes a plain ``str`` to a
    ``LanguageTag`` (a tag is stored as given, so members set with one tag
    object share it) and rejects an empty id.  Every set and delete updates
    both, so the language index cannot drift from the members.  Only
    members are indexed: a language whose last member leaves or changes
    language is dropped from the index.
    """

    def __init__(self, members: Optional[Mapping[str, str]] = None) -> None:
        self._members: dict[str, LanguageTag] = {}
        self._index: dict[LanguageTag, set[str]] = {}
        if members:
            self.update(members)

    def __getitem__(self, pid: str) -> LanguageTag:
        return self._members[pid]

    def __contains__(self, pid: object) -> bool:
        return pid in self._members

    def __iter__(self) -> Iterator[str]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __setitem__(self, pid: str, language: str) -> None:
        if type(language) is not LanguageTag:
            language = LanguageTag(language)
        if not pid:
            raise ValidationError("participant id must be non-empty")
        if pid in self._members:
            self._unindex(pid)
        self._members[pid] = language
        self._index.setdefault(language, set()).add(pid)

    def __delitem__(self, pid: str) -> None:
        self._unindex(pid)
        del self._members[pid]

    def _unindex(self, pid: str) -> None:
        language = self._members[pid]
        ids = self._index[language]
        ids.discard(pid)
        if not ids:
            del self._index[language]

    def __repr__(self) -> str:
        return f"Roster({self._members!r})"

    def ids_of(self, language: LanguageTag) -> AbstractSet[str]:
        """The ids of the members who speak ``language`` (do not mutate)."""
        return self._index.get(language, frozenset())

    def languages(self) -> set[LanguageTag]:
        """The distinct languages of the members, as a new set."""
        return set(self._index)  # reuses the index's hashes

    def copy(self) -> "Roster":
        """A roster of the same members, sharing their tags.  The member
        dict and each language's id set are copied in C, not set member by
        member, and neither roster's later edits reach the other."""
        other = Roster()
        index = self._index
        other._members = self._members.copy()
        other._index = dict(zip(index, map(set.copy, index.values())))
        return other


@dataclass
class Meeting:
    """Participants, the pool size and mode, the speaker, and routing.

    ``participants`` is a ``Roster`` of each member's language by id: a plain
    mapping passed at construction (``{"A": "en", "B": "de"}``) is copied
    into one, so the per-language index always matches the members.
    ``translate_same_language`` is the meeting's translation mode: when set,
    listeners who share the speaker's language get an identity pipeline
    instead of the raw stream.  ``pipelines`` (language -> pipeline id) is
    the only record of live pipelines: a pipeline is live exactly while the
    map names it, and pool occupancy is derived from the map's size.  Every
    live pipeline translates from ``source_language``, the speaker's
    language at the last pass (None with no one on the floor), and
    ``unserved`` holds the required languages that pass left without a
    pipeline; only ``update_orchestration`` writes either, and ``unserved``
    is no constructor argument.
    ``raw_language``, each listener's pipeline (``delivery``) and the
    ``bypass`` ids are read-only properties, derived from these on each
    read, never stored, so they reflect the current roster and pipelines
    even between passes: ``Meeting(delivery=...)`` raises a ``TypeError``.
    A pass's events name pipelines, not listeners (see ``orchestrator``).
    """

    participants: Roster
    pool_capacity: int
    translate_same_language: bool = False
    active_speaker: Optional[str] = None
    pipelines: dict[LanguageTag, str] = field(default_factory=dict)
    source_language: Optional[LanguageTag] = None
    pipeline_seq: int = 0
    unserved: frozenset[LanguageTag] = field(default=frozenset(), init=False)

    def __post_init__(self) -> None:
        if self.pool_capacity < 0:
            raise ValidationError("pool capacity must be non-negative")
        if not isinstance(self.participants, Roster):
            self.participants = Roster(self.participants)

    def new_pipeline_id(self) -> str:
        self.pipeline_seq += 1
        return f"pl{self.pipeline_seq:04d}"

    @property
    def delivery(self) -> dict[str, str]:
        """Each listener's pipeline, as a new dict: every member of a
        language that has a pipeline maps to it, except the active speaker."""
        ids_of = self.participants.ids_of
        delivery = {pid: pipeline
                    for language, pipeline in self.pipelines.items()
                    for pid in ids_of(language)}
        delivery.pop(self.active_speaker, None)
        return delivery

    @property
    def raw_language(self) -> Optional[LanguageTag]:
        """The language that hears the raw stream; None under identity."""
        return None if self.translate_same_language else self.source_language

    @property
    def bypass(self) -> set[str]:
        """The ids that hear the raw stream, as a new set: the speaker and
        the current members of ``raw_language``."""
        if self.active_speaker is None:
            return set()
        return {self.active_speaker, *self.participants.ids_of(self.raw_language)}

    @property
    def free_slots(self) -> int:
        return self.pool_capacity - len(self.pipelines)

    @property
    def size(self) -> int:
        return len(self.participants)


@dataclass(frozen=True)
class CostModel:
    """Cost of one pipeline instance; dimensionless by default so totals read
    as "number of pipeline instances"."""

    unit_cost: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.unit_cost < math.inf:  # also rejects NaN
            raise ValidationError(
                f"unit_cost must be finite and > 0, got {self.unit_cost}")


def cost_naive(n: int, cost: CostModel = CostModel()) -> float:
    """Total cost of the brute-force design where each of ``n`` participants
    processes every other participant's stream: C * n * (n - 1).  A total
    past the float range is a ValidationError that names ``n`` and C."""
    if n < 2:
        raise MeetingSizeError(f"meeting size must be >= 2, got {n}")
    try:
        total = cost.unit_cost * n * (n - 1)
    except OverflowError:  # an n past the float range
        total = math.inf
    if total == math.inf:
        raise ValidationError(
            f"the naive cost of a meeting of {n} at unit cost "
            f"{cost.unit_cost:g} overflows a float")
    return total
