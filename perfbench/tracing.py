"""Spans and counters recorded around the program's entry points, from outside.

The program has no tracing of its own, so the benchmark replaces the names
that callers look up at call time (module globals and class attributes) with
wrappers that record a span per call.  Spans are kept in flat arrays, one
entry per field, so that tens of thousands of ``evaluate`` spans per call fit
in a few hundred kilobytes; they are written out only when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

_MISSING = object()


class Patches:
    """Attribute replacements that can all be undone.  Each original is taken
    from the owner's own ``__dict__``, so restoring puts back the very object
    that was there, and an inherited name is deleted again."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable) -> None:
        saved = vars(owner).get(attr, _MISSING)
        self._saved.append((owner, attr, saved))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """Spans (name, start, end, parent span, call id) plus per-call counters.

    ``call`` opens a root span for one top-level call and gives it a new call
    id; ``wrap`` makes a replacement that records a child span of whatever
    span is open when it runs.  ``after`` hooks see the arguments and result
    once the span has closed, and add to the current call's counters.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.call_of = array("l")
        self.counters: list[dict[str, float]] = []
        self._stack: list[int] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, counter: str, value: float = 1) -> None:
        counters = self.counters[-1]
        counters[counter] = counters.get(counter, 0) + value

    def wrap(self, name: str, after: Optional[Callable] = None) -> Callable:
        """A factory for ``Patches.replace``: wraps the original in a span."""
        index = self._name_index(name)
        stack = self._stack
        clock = time.perf_counter

        def make(original: Callable) -> Callable:
            def traced(*args, **kwargs):
                sid = len(self.start)
                self.name.append(index)
                self.parent.append(stack[-1] if stack else -1)
                self.call_of.append(len(self.counters) - 1)
                self.end.append(0.0)
                stack.append(sid)
                self.start.append(clock())
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end[sid] = clock()
                    stack.pop()
                if after is not None:
                    after(self, args, result)
                return result

            return traced

        return make

    def call(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as the root span of a new call."""
        if self._stack:
            raise RuntimeError("a call is already open")
        self.counters.append({})
        return self.wrap(name)(fn)(*args)

    def self_times(self) -> list[dict[str, float]]:
        """Per call: each span name's summed self time (duration minus the
        durations of its direct child spans)."""
        child = [0.0] * len(self.start)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        out: list[dict[str, float]] = [defaultdict(float) for _ in self.counters]
        for sid, index in enumerate(self.name):
            own = self.end[sid] - self.start[sid] - child[sid]
            out[self.call_of[sid]][self.names[index]] += own
        return [dict(d) for d in out]

    def spans(self, name: str) -> list[tuple[int, float]]:
        """(call id, inclusive duration) of every span with this name."""
        index = self._name_index(name)
        return [
            (self.call_of[sid], self.end[sid] - self.start[sid])
            for sid, n in enumerate(self.name)
            if n == index
        ]

    def write(self, path: Path) -> None:
        """Write every span as CSV: call, span, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("call,span,parent,name,start_s,end_s\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{self.call_of[sid]},{sid},{self.parent[sid]},"
                    f"{self.names[self.name[sid]]},{self.start[sid]!r},"
                    f"{self.end[sid]!r}\n"
                )
