"""Outside-in span tracer for the confine benchmark.

The tracer patches public names where their callers look them up (for
example ``confine.miner.decrypt_segment`` rather than
``confine.wire.decrypt_segment``), records one span per call with the span
that was open on the same thread as its parent, and restores every name on
``uninstall``. Nothing inside the package is edited: a later change that
adds spans to the program itself can be compared against these.

Spans recorded on other threads (the HTTP handler threads of the networked
workload) have no parent; they still count towards their own name's total.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from collections import defaultdict
from typing import Callable


class Span:
    """One call of a traced name: wall-clock interval and causing span."""

    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


# Called after the traced function returned, outside the span's interval,
# with (tracer, args, kwargs, result).
OnCall = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Records spans and counters for patched names; one session at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_started = 0.0

    # -- patching -------------------------------------------------------------

    def patch(self, owner: object, attr: str, name: str, on_call: OnCall | None = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper named ``name``.

        ``owner`` is a module or a class; plain functions, methods and
        classmethods are wrapped in place so that the lookup the caller
        makes finds the wrapper.
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, on_call))
        else:
            wrapped = self._wrap(raw, name, on_call)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _wrap(self, fn: Callable, name: str, on_call: OnCall | None) -> Callable:
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    # -- cyclic GC ---------------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- reading ----------------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self.gc_pause_s = 0.0
        self.gc_collections = 0

    def totals(self) -> dict[str, float]:
        """Inclusive wall time per span name, summed over its calls."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.duration
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[id(span.parent)] += span.duration
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.duration - covered[id(span)]
        return out

    def child_time(self, parent_name: str, child_names: set[str]) -> float:
        """Time of ``child_names`` spans directly under ``parent_name`` spans."""
        return sum(
            span.duration
            for span in self.spans
            if span.name in child_names and span.parent is not None and span.parent.name == parent_name
        )
