"""In-memory spans around calls into ghztp, installed from outside the program.

A :class:`Tracer` replaces a function in every module namespace that binds it
(``protocol.measure_bell`` as well as ``qsim.measure_bell``, since callers bind
kernel names at import) with a wrapper that records one span per call. Spans
are plain tuples kept in a list and written out once, at the end of a run.

A span records its id, the id of the enclosing span on the same thread (0 at
the top of a thread), the benchmark operation it belongs to, the thread, its
name, its start and end in ``perf_counter_ns`` and an optional size. Threads
have their own stacks, so a coordinator handler thread's kernel calls nest
under that thread's ``op_request`` span, not under the benchmark's operation.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple

_now = time.perf_counter_ns


class Span(NamedTuple):
    id: int
    parent: int
    op: int
    thread: int
    name: str
    start: int
    end: int
    size: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0  # the benchmark operation in flight (one at a time)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            stack.pop()
            self.spans.append(Span(span_id, parent, self.op, threading.get_ident(),
                                   name, start, end, 0))

    def wrap(self, name: str, fn: Callable, size: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``size(result)`` fills the span's size."""
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                stack.pop()
                spans.append(Span(span_id, parent, self.op, get_ident(), name, start, end,
                                  size(result) if size is not None and result is not None else 0))

        return traced

    def install(self, name: str, modules: list, attr: str, size: Callable | None = None) -> None:
        """Wrap ``attr`` once and bind the wrapper in every module of ``modules``."""
        original = getattr(modules[0], attr)
        traced = self.wrap(name, original, size)
        for module in modules:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not {name}'s function")
            self._installed.append((module, attr, original))
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump({"fields": list(Span._fields), "spans": self.spans}, out,
                      separators=(",", ":"))


class NullTracer:
    """Stands in for a Tracer in untraced runs: spans cost one no-op context."""

    op = 0

    def span(self, name: str):
        return contextlib.nullcontext()


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    result = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s.id] = s.end - s.start - covered
    return result
