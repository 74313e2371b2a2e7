"""Span recorder for the benchmark's traced runs.

The program is not instrumented: the traced runs patch the public
functions of each layer from the outside (:meth:`Tracer.wrap`), and where
a caller imported a name directly, the name is patched in the calling
module too.  A span is ``(id, name, start, end, parent, request)``; spans
stay in memory and are written once, at the end (:meth:`Tracer.dump`).

A layer's self time is the duration of its spans minus the part their
child spans cover.  Children are found through a per-thread stack, so a
span opened on one thread never parents a span on another; spans that
cross threads (a server-side query stream) are recorded whole with
:meth:`Tracer.record` and have no children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans and counts of one traced run, and the patches that make them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_request(self):
        return getattr(self._local, "request", None)

    @contextmanager
    def request(self, request_id):
        """Tag every span this thread opens inside the block."""
        previous = self.current_request()
        self._local.request = request_id
        try:
            yield
        finally:
            self._local.request = previous

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, self.current_request())
            )

    def record(self, name: str, start: float, end: float, request=None) -> None:
        """A span measured by the caller (no parent, no children)."""
        self.spans.append((next(self._ids), name, start, end, None, request))

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owners, attr: str, name: str, before=None, after=None) -> None:
        """Time every call of ``owner.attr`` as a ``name`` span, for each
        owner (a class, or every module that bound the name).

        ``before(args, kwargs)`` and ``after(result)`` run outside the
        span and record counts.
        """
        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                with self.span(name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(result)
                return result

            return traced

        for owner in owners:
            self.patch(owner, attr, make(getattr(owner, attr)))

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Time each step of a generator method as a ``name`` span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                yield item

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered: dict[int, float] = defaultdict(float)
        for _id, _name, start, end, parent, _request in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _parent, _request in self.spans:
            totals[name] += (end - start) - covered.get(span_id, 0.0)
        return dict(totals)

    def totals(self) -> dict[str, float]:
        """Total duration per span name (children included)."""
        totals: dict[str, float] = defaultdict(float)
        for _id, name, start, end, _parent, _request in self.spans:
            totals[name] += end - start
        return dict(totals)

    def dump(self, path: str) -> None:
        fields = ("id", "name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [dict(zip(fields, span)) for span in self.spans],
                    "counts": dict(self.counts),
                },
                handle,
            )


def load(path: str) -> Tracer:
    """Read a :meth:`Tracer.dump` file back (for a traced child process)."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    tracer = Tracer()
    tracer.spans = [
        (s["id"], s["name"], s["start"], s["end"], s["parent"], s["request"])
        for s in data["spans"]
    ]
    tracer.counts.update(data["counts"])
    return tracer
