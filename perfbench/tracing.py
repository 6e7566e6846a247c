"""In-memory spans recorded from outside the program.

The benchmark never edits ``src/``.  It times a layer by swapping a
timing wrapper in for that layer's public entry point -- a pipeline
stage's ``run`` (through a spliced stage list), a ``SubspaceTransforms``
or ``BBForest`` method, ``BrePartitionIndex.search_batch`` / ``insert``
/ ``merge`` / ``build`` -- and restores the original when the traced run
ends.

A span has a name, a start and an end (``time.perf_counter`` seconds),
the span that caused it and the request id it serves.  Spans nest per
thread: each thread keeps its own stack of open spans, so the batch
worker, the merge worker and the event loop of the serving workload
never parent each other's work.  A layer's number is its *self* time:
its span minus the part of that interval its child spans cover.

Root calls alternate between traced and untraced (:meth:`Tracer.root`).
Inner wrappers record only under a traced root, so one run yields both
the per-layer spans and an untraced twin of every root call, and the
tracing overhead is the ratio of their medians.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = ["Span", "Call", "Tracer", "self_times", "write_trace_events"]

_MISSING = object()


@dataclass
class Span:
    """One timed interval at a layer boundary."""

    sid: int
    name: str
    start: float
    end: float
    #: ``sid`` of the enclosing span on the same thread (``None`` for roots).
    parent: Optional[int]
    #: id shared by every span of one request (or batch call).
    request: Any
    tid: int
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Call:
    """One root call, traced or not (the overhead comparison's samples)."""

    name: str
    start: float
    end: float
    traced: bool
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and root calls; patches entry points reversibly."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: List[Call] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root_counts: Dict[str, itertools.count] = {}
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # span recording
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, request: Any = None):
        """Record ``name`` around the body; yields the span's ``args``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            sid = next(self._ids)
        span = Span(
            sid=sid,
            name=name,
            start=0.0,
            end=0.0,
            parent=parent.sid if parent is not None else None,
            request=request,
            tid=threading.get_ident(),
        )
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span.args
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def root(
        self,
        name: str,
        fn: Callable,
        counts: Callable[[Any, tuple], Dict[str, Any]],
    ) -> Callable:
        """Wrap a root entry point; every other call is traced.

        Untraced calls open no span, so the inner wrappers stay silent
        and the call costs what it costs without tracing.  Every call,
        traced or not, lands in :attr:`calls` with its ``counts``
        (computed from the call's result and arguments after the clock
        stopped).
        """
        counter = self._root_counts.setdefault(name, itertools.count())
        tracer = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            with tracer._lock:
                number = next(counter)
            traced = number % 2 == 1
            if traced:
                with tracer.span(name, request=f"{name}-{number}") as span_args:
                    start = time.perf_counter()
                    result = fn(*args, **kwargs)
                    end = time.perf_counter()
            else:
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                end = time.perf_counter()
            extra = counts(result, args)
            if traced:
                span_args.update(extra)
            with tracer._lock:
                tracer.calls.append(Call(name, start, end, traced, extra))
            return result

        return call

    def nested(
        self, name: str, fn: Callable, under: Optional[Iterable[str]]
    ) -> Callable:
        """Wrap ``fn`` to record ``name`` only when called inside a span
        named in ``under`` (so e.g. the calibration's internal forest
        builds are not mistaken for the build's own); ``None`` records
        every call."""
        parents = frozenset(under) if under is not None else None
        tracer = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            if parents is not None:
                top = tracer.current()
                if top is None or top.name not in parents:
                    return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return call

    # ------------------------------------------------------------------
    # reversible patching
    # ------------------------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr``; :meth:`restore` puts the original back.

        The original is read from ``owner.__dict__`` so the restored
        attribute is exactly what was there (a class's function, a
        module's global, an instance's own attribute).  A patch that
        shadows an inherited attribute is undone by deleting it.
        """
        own = vars(owner)
        self._patches.append((owner, attr, own.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.sid] = span.seconds - covered
    return result


def write_trace_events(spans: List[Span], path: str) -> None:
    """Write ``spans`` as Chrome trace-event JSON (complete events)."""
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "cat": "perfbench",
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": s.seconds * 1e6,
            "pid": 1,
            "tid": s.tid,
            "args": {
                "span": s.sid,
                "parent": s.parent,
                "request": s.request,
                **s.args,
            },
        }
        for s in sorted(spans, key=lambda s: s.start)
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)

