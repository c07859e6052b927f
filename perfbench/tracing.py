"""In-memory span tracer that wraps the package's public functions.

Functions are wrapped at the names their callers look up: a module that did
``from .constraints import sector_membership`` calls its own global, so the
wrapper is installed on that module's attribute, not on ``constraints``.
Nothing under ``src/`` is edited; :meth:`Tracer.installed` puts the wrappers
in place for the traced passes only and restores the originals afterwards.

Each call records a span ``[name, start, end, parent, child_s, note]``:
``parent`` is the index of the enclosing span (``-1`` at the top level),
``child_s`` the summed duration of its direct children, so the span's self
time is ``end - start - child_s`` (calls are single-threaded and nested, so
children never overlap). ``note`` holds a value a target extracts from the
call, such as the spec a sector check was asked about, or ``RAISED`` when the
call ended with an exception.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

RAISED = "raised"

NAME, START, END, PARENT, CHILD, NOTE = range(6)


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``owner.attr`` is the name callers look up (a
    module or a class), ``name`` the span name, and ``note`` an optional
    ``(args, kwargs, result) -> value`` stored on the span."""

    owner: Any
    attr: str
    name: str
    note: Callable[[tuple, dict, Any], Any] | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []

    def _wrap(self, fn: Callable, name: str, note) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            span = [name, perf_counter(), 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[NOTE] = RAISED
                raise
            else:
                if note is not None:
                    span[NOTE] = note(args, kwargs, result)
                return result
            finally:
                span[END] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += span[END] - span[START]

        return traced

    @contextlib.contextmanager
    def installed(self, targets: list[Target]):
        """Install a wrapper on every target; restore the originals on exit.

        A function reached under several names (``app.attach_channels`` and
        ``dynamics.attach_channels``) gets one wrapper per name, all
        recording the same span name.
        """
        saved = []
        try:
            for t in targets:
                original = getattr(t.owner, t.attr)
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(original, t.name, t.note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the recorded spans as JSON, times relative to the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            {
                "name": s[NAME],
                "start": s[START] - t0,
                "end": s[END] - t0,
                "parent": s[PARENT],
                "self": s[END] - s[START] - s[CHILD],
                "note": s[NOTE] if isinstance(s[NOTE], (int, float, str, bool)) else None,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def span_stats(spans: list[list]) -> dict[str, SpanStats]:
    """Calls, total time and self time per span name."""
    out: dict[str, SpanStats] = {}
    for s in spans:
        st = out.setdefault(s[NAME], SpanStats())
        dur = s[END] - s[START]
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - s[CHILD]
    return out


def nearest_ancestor(spans: list[list], index: int, name: str) -> int:
    """Index of the closest enclosing span called ``name``, or ``-1``."""
    p = spans[index][PARENT]
    while p >= 0 and spans[p][NAME] != name:
        p = spans[p][PARENT]
    return p
