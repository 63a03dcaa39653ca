"""Shared domain types and the closed-form pipeline cost model.

A meeting has one active speaker and N-1 passive listeners.  Translating the
speaker's stream needs one pipeline instance per *distinct* listener target
language (cost C*k), not one per (viewer, speaker) pair (cost C*N*(N-1)).
The two cost functions below quantify that collapse; the remaining types are
the state the orchestrator transforms.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Iterator, Mapping, MutableMapping
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import AbstractSet, Callable, Iterable, Optional, TextIO


class ValidationError(ValueError):
    """User-supplied input failed structural validation."""


class MeetingSizeError(ValidationError):
    """Cost query on a meeting with fewer than two participants."""


class UnknownParticipantError(ValidationError):
    """An operation referenced a participant id not present in the meeting."""


class DegenerateMeetingWarning(UserWarning):
    """Cost query over an empty listener set (meeting of one)."""


SPEAKER_RAW = "speaker-raw"


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


#: Rows of a table encoded together.  A block's per-value and per-row
#: strings are freed once the block is written, so rendering a table takes
#: memory that does not grow with its length.
_BLOCK_ROWS = 256


def dump_json(payload: object, fh: TextIO) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2)`` to ``fh``,
    byte for byte, each piece as soon as it is made, like ``json.dump``.

    Any ``indent`` makes ``json.dumps`` use its pure-Python encoder, so this
    encodes each container of scalars in one C call whose item separator is
    the newline and indent, then pads the brackets.  The C encoder escapes
    ``\\n`` inside strings, so a literal newline can only be a separator.  A
    list of dicts (such as a report's ``samples``) is written in blocks of
    ``_BLOCK_ROWS`` rows.  A block whose rows share one non-empty set of
    ``str`` keys and hold only scalars is encoded one column per C call,
    the columns interleaved with the key prefixes row by row; any other
    block is written row by row.  Both encoders write a ``LanguageTag`` as
    its string.  A value that is not exactly a JSON type or a tag (a tuple,
    an ``int`` subclass), or a dict with a key that is not a ``str``, is
    rendered by ``json.dumps`` where it stands, its newlines replaced by
    the current newline and indent.
    """
    _write(payload, "\n", fh.write)


def dumps_json(payload: object) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)``, byte for byte: the
    pieces ``dump_json`` writes, joined."""
    pieces: list[str] = []
    _write(payload, "\n", pieces.append)
    return "".join(pieces)


def _flat(container: object, nl: str) -> str:
    """``container`` in the C encoder, items separated by ``,`` + ``nl``."""
    encoder = json.JSONEncoder(sort_keys=True, separators=("," + nl, ": "))
    return encoder.encode(container)


def _types(values: Iterable[object]) -> set[type]:
    return set(map(type, values))


def _write(value: object, nl: str, write: Callable[[str], object]) -> None:
    """Pass ``value``, at the depth whose newline and indent are ``nl``, to
    ``write`` in pieces."""
    kind = type(value)
    if kind in _SCALARS:
        write(_flat(value, nl))
        return
    # a tuple, an int subclass, a key that is not a str, or an empty container
    if not (kind is list or kind is dict and _types(value) == {str}) or not value:
        write(json.dumps(value, sort_keys=True, indent=2).replace("\n", nl))
        return
    inner = nl + "  "
    items = _types(value.values() if kind is dict else value)
    if items <= _SCALARS:
        text = _flat(value, inner)
        write(text[0] + inner + text[1:-1] + nl + text[-1])
        return
    if kind is dict:
        opener = "{" + inner
        for key in sorted(value):
            write(opener + _flat(key, inner) + ": ")
            _write(value[key], inner, write)
            opener = "," + inner
        write(nl + "}")
        return
    opener = "[" + inner
    for start in range(0, len(value), _BLOCK_ROWS):
        block = value[start:start + _BLOCK_ROWS]
        text = _table(block, inner) if items == {dict} else None
        if text is not None:
            write(opener + text)
            opener = "," + inner
        else:
            for item in block:
                write(opener)
                _write(item, inner, write)
                opener = "," + inner
    write(nl + "]")


def _table(rows: list, nl: str) -> Optional[str]:
    """The dicts ``rows`` at the depth whose newline and indent are ``nl``,
    separated by ``,`` + ``nl``, or None unless they share the first row's
    non-empty set of ``str`` keys and hold only scalars."""
    keys = rows[0].keys()
    if _types(keys) != {str} or set(map(len, rows)) != {len(keys)}:
        return None
    field = nl + "  "
    opener = "{" + field
    parts: list[Iterable[str]] = []  # per key: its prefix, its value texts
    for name in sorted(keys):
        try:  # rows of one size that hold every key share the key set
            column = list(map(itemgetter(name), rows))
        except KeyError:
            return None
        if not _types(column) <= _SCALARS:
            return None
        parts.append(repeat(opener + _flat(name, field) + ": "))
        parts.append(_flat(column, "\n")[1:-1].split(",\n"))
        opener = "," + field
    parts.append(repeat(nl + "}"))
    return ("," + nl).join(map("".join, zip(*parts)))


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


@dataclass(frozen=True)
class Route:
    """A media route: ``source`` is SPEAKER_RAW or a pipeline id (its output);
    ``destination`` is a participant id or a pipeline id (its input).  The
    two kinds of id are separate namespaces, so a participant may share a
    pipeline's id and ``Route(p, p)`` can be a pipeline's output to them."""

    source: str
    destination: str


class Roster(MutableMapping[str, LanguageTag]):
    """Each member's language by id, plus the ids of each language's
    members, plus the ids edited since the last ``take_edits``.

    Setting a member's language normalizes a plain ``str`` to a
    ``LanguageTag`` and rejects an empty id.  Every set and delete updates
    all three, so the language index cannot drift from the members.  Only
    members are indexed: a language whose last member leaves or changes
    language is dropped from the index.
    """

    def __init__(self, members: Optional[Mapping[str, str]] = None) -> None:
        self._members: dict[str, LanguageTag] = {}
        self._index: dict[LanguageTag, set[str]] = {}
        self._edited: set[str] = set()
        if members:
            self.update(members)

    def __getitem__(self, pid: str) -> LanguageTag:
        return self._members[pid]

    def get(
        self, pid: str, default: Optional[LanguageTag] = None
    ) -> Optional[LanguageTag]:
        return self._members.get(pid, default)  # no KeyError on a miss

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
        self._edited.add(pid)

    def __delitem__(self, pid: str) -> None:
        self._unindex(pid)
        del self._members[pid]
        self._edited.add(pid)

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

    def take_edits(self) -> set[str]:
        """The ids set or deleted since the last call (all of them, for a
        new roster), and a fresh start."""
        edited, self._edited = self._edited, set()
        return edited


@dataclass
class Meeting:
    """Participants, the active speaker, the pool size, and current routing.

    ``participants`` is a ``Roster`` of each member's language by id: a plain
    mapping passed at construction (``{"A": "en", "B": "de"}``) is copied
    into one, so the per-language index always matches the members.
    ``pipelines`` (language -> pipeline id) is the only record of live
    pipelines: a pipeline is live exactly while the map names it, and pool
    occupancy is derived from the map's size.  Every live pipeline translates
    from ``source_language``, the speaker's language at the last pass.
    ``delivery`` names each listener's pipeline and ``bypass`` the ids that
    hear the raw stream; the stream routes are derived from ``delivery``,
    not stored.  A pass updates ``delivery`` from the roster's edits, so it
    also notes which roster it last read: assigning another one makes the
    next pass re-resolve every id.
    """

    participants: Roster
    pool_capacity: int
    active_speaker: Optional[str] = None
    pipelines: dict[LanguageTag, str] = field(default_factory=dict)
    delivery: dict[str, str] = field(default_factory=dict)  # listener -> pipeline
    bypass: set[str] = field(default_factory=set)
    source_language: Optional[LanguageTag] = None
    pipeline_seq: int = 0
    _delivered: Optional[Roster] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.pool_capacity < 0:
            raise ValidationError("pool capacity must be non-negative")
        if not isinstance(self.participants, Roster):
            self.participants = Roster(self.participants)

    def new_pipeline_id(self) -> str:
        self.pipeline_seq += 1
        return f"pl{self.pipeline_seq:04d}"

    @property
    def routes(self) -> frozenset[Route]:
        """``SPEAKER_RAW -> pipeline`` for each pipeline that feeds a
        listener, and ``pipeline -> listener`` for each delivery."""
        feeds = {Route(SPEAKER_RAW, p) for p in set(self.delivery.values())}
        return frozenset(feeds).union(
            Route(p, pid) for pid, p in self.delivery.items()
        )

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


def cost_token(
    listener_languages: Iterable[str],
    cost: CostModel = CostModel(),
) -> tuple[int, float]:
    """Cost under shared per-language pipelines: (k, C * k) with k the number
    of distinct listener target languages.

    An empty listener set is a degenerate meeting of one: returns (0, 0.0)
    and emits a DegenerateMeetingWarning rather than failing, so simulations
    can pass through single-participant states.
    """
    unique = set(map(LanguageTag, listener_languages))
    k = len(unique)
    if k == 0:
        warnings.warn(
            "cost_token over an empty listener set (meeting of one)",
            DegenerateMeetingWarning,
            stacklevel=2,
        )
    return k, cost.unit_cost * k
