"""In-memory spans recorded by the benchmark around calls into each layer.

The traced run (``--trace 1``) patches the public entry points of every
layer with timing wrappers (:meth:`Recorder.patch`), runs the workload,
and restores the originals. Spans carry a name, start, end, parent span,
trace id and thread, stay in memory, and are written out once the run
ends (:meth:`Recorder.dump`). Nothing here runs in an untraced run, so
end-to-end numbers never pay for it.

A span's self time is its duration minus the part of its interval that its
child spans cover (:meth:`Recorder.self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "span_id", "parent", "trace", "thread", "attrs")

    def __init__(self, name, start, span_id, parent, trace, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.span_id = span_id
        self.parent = parent
        self.trace = trace
        self.thread = threading.current_thread().name
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "span": self.span_id,
            "parent": self.parent,
            "trace": self.trace,
            "thread": self.thread,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class Recorder:
    """Collects spans from every thread; times use ``time.monotonic``.

    The library stamps request starts with ``time.monotonic`` too, so
    queue waits can be taken straight from the timestamps it passes on.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent: Optional[Span] = None, **attrs) -> Span:
        """Start a span; children opened on this thread nest under it."""
        parent = parent if parent is not None else self.current()
        span_id = next(self._ids)
        span = Span(
            name,
            time.monotonic(),
            span_id,
            parent.span_id if parent is not None else None,
            parent.trace if parent is not None else span_id,
            attrs or None,
        )
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def detached(self, name: str, start: float, end: float, parent=None, **attrs) -> Span:
        """Record a span whose ends were observed on different threads."""
        span_id = next(self._ids)
        span = Span(
            name,
            start,
            span_id,
            parent.span_id if parent is not None else None,
            parent.trace if parent is not None else span_id,
            attrs or None,
        )
        span.end = end
        with self._lock:
            self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    def patch(self, owner, attribute: str, name: str, annotate=None) -> None:
        """Wrap ``owner.attribute`` so each call records a span ``name``.

        ``annotate(span, args, kwargs, result)`` may add attributes after
        the call.
        """
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                recorder.close(span)
                if annotate is not None:
                    annotate(span, args, kwargs, result)

        self.replace(owner, attribute, wrapper)

    def patch_generator(self, owner, attribute: str, name: str) -> None:
        """Like :meth:`patch` for a function returning an iterator.

        Each ``next`` is one span, so a lazy batch source is charged for
        the work it does, not for its creation.
        """
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                span = recorder.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    recorder.close(span)
                    return
                recorder.close(span)
                yield item

        self.replace(owner, attribute, wrapper)

    def replace(self, owner, attribute: str, wrapper) -> None:
        """Set ``owner.attribute = wrapper`` until :meth:`restore`.

        An inherited method is shadowed on ``owner`` and later deleted,
        which leaves the class dictionaries exactly as they were.
        """
        own = attribute in vars(owner)
        self._patches.append((owner, attribute, vars(owner)[attribute] if own else None))
        setattr(owner, attribute, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> Dict[int, float]:
        """Span id → duration minus the union of its children's intervals."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            intervals = sorted(
                (max(child.start, span.start), min(child.end, span.end))
                for child in children.get(span.span_id, ())
            )
            covered, reach = 0.0, span.start
            for start, end in intervals:
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            result[span.span_id] = span.duration - covered
        return result

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span.as_dict(), default=str) + "\n")
