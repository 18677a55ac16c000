"""Outside-in span recorder for the traced run.

The benchmark wraps public functions and methods of the `insitu` modules
from its own code; nothing inside `src/` knows it is traced. Each call of a
wrapped function becomes one span: name, start, end, thread, parent span and
the task ID current when it started. The parent is the innermost open span
of the same thread, so a span on the monitor's sampler thread never becomes
a child of, and is never subtracted from, a span on the main thread.

Spans are kept in memory and written once, when the traced run ends.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: str
    parent: int | None
    task: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.task: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, annotate=None, before=None):
        """`fn` recorded as span `name`.

        `before(args, kwargs)` returns the span's first attributes and runs
        before the span starts; `annotate(span, args, kwargs, result)` runs
        after it has ended. Neither one's cost is inside the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else {}
            stack = self._stack()
            span = Span(
                id=next(self._ids), name=name, start=self.clock(), end=0.0,
                thread=threading.current_thread().name,
                parent=stack[-1].id if stack else None, task=self.task, attrs=attrs,
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
                self.spans.append(span)
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return wrapper


def children_index(spans) -> dict[int, list[Span]]:
    """Direct children of each span, restricted to the parent's own thread."""
    by_id = {s.id: s for s in spans}
    out: dict[int, list[Span]] = {}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            out.setdefault(parent.id, []).append(s)
    return out


def self_ms(spans) -> dict[int, float]:
    """Span time minus the time of its direct children on the same thread."""
    kids = children_index(spans)
    return {s.id: s.ms - sum(c.ms for c in kids.get(s.id, ())) for s in spans}


def has_descendant(span: Span, kids: dict[int, list[Span]], name: str) -> bool:
    todo = list(kids.get(span.id, ()))
    while todo:
        s = todo.pop()
        if s.name == name:
            return True
        todo.extend(kids.get(s.id, ()))
    return False
