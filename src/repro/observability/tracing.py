"""Request-scoped tracing: where did this request's time go?

A :class:`Trace` is one request's timeline, made of named
:class:`Span`\\ s (the taxonomy the proxy uses is ``session``,
``detect``, ``filter``, ``adapt``, ``render``, ``cache``,
``serialize``, plus ``retry`` for backoff waits and ``degrade`` for
degradation-ladder fallbacks; see ``docs/OBSERVABILITY.md``).  The hot path threads the
active trace through a thread-local, so deep pipeline code opens spans
with the module-level :func:`span` without any plumbing — and pays
nothing when no trace is active (library use outside the proxy).

Spans may nest (``depth``/``parent`` record the structure) but the
proxy's instrumentation keeps the main phases sequential, so the sum of
span durations never exceeds the request's wall time.  A span closed by
an exception is still closed — with ``status="error"`` and the exception
type recorded — so a failing adaptation leaves a complete timeline.

A :class:`TraceRecorder` keeps a bounded ring of recent traces plus
every trace slower than a configurable threshold (the slow-request
capture), and dumps both as stable JSON for ``proxy.php``'s ``/traces``
endpoint and ``msite trace``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class Span:
    """One named, timed section of a trace."""

    __slots__ = ("name", "start_s", "end_s", "depth", "parent", "status",
                 "error", "attrs")

    def __init__(
        self, name: str, start_s: float, depth: int, parent: Optional[int]
    ) -> None:
        self.name = name
        self.start_s = start_s  # relative to the trace start
        self.end_s: Optional[float] = None
        self.depth = depth
        self.parent = parent  # index of the enclosing span, or None
        self.status = "ok"
        self.error: Optional[str] = None
        #: Facts about what the span did (``revalidated=True`` on a
        #: ``detect`` span answered by an origin 304); absent from the
        #: dump when nothing was noted.
        self.attrs: Optional[dict] = None

    def annotate(self, **attrs) -> None:
        self.attrs = {**(self.attrs or {}), **attrs}

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        payload = {
            "depth": self.depth,
            "duration_s": self.duration_s,
            "error": self.error,
            "name": self.name,
            "parent": self.parent,
            "start_s": self.start_s,
            "status": self.status,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload


class Trace:
    """One request's timeline of named spans.

    ``clock`` is any zero-argument monotonic-seconds callable
    (``time.perf_counter`` by default; tests inject a fake).  When a
    ``metrics`` registry is given, every closed span is also observed
    into the ``msite_span_duration_seconds{span=...}`` histogram, which
    is how the per-phase Figure 7 breakdown is populated.
    """

    SPAN_HISTOGRAM = "msite_span_duration_seconds"

    def __init__(
        self,
        name: str = "request",
        clock: Optional[Callable[[], float]] = None,
        metrics=None,
    ) -> None:
        self.name = name
        self._clock = clock or time.perf_counter
        self._metrics = metrics
        self._t0 = self._clock()
        self._stack: list[int] = []
        self.spans: list[Span] = []
        self.duration_s: Optional[float] = None
        self.status = "ok"

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(
            name=name,
            start_s=self._clock() - self._t0,
            depth=len(self._stack),
            parent=parent,
        )
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException as exc:
            record.status = "error"
            record.error = type(exc).__name__
            self.status = "error"
            raise
        finally:
            record.end_s = self._clock() - self._t0
            self._stack.pop()
            if self._metrics is not None:
                self._metrics.histogram(
                    self.SPAN_HISTOGRAM,
                    "Time spent in each adaptation phase, per span name.",
                    labels={"span": name},
                ).observe(record.duration_s)

    def finish(self) -> "Trace":
        if self.duration_s is None:
            self.duration_s = self._clock() - self._t0
        return self

    # -- reading ---------------------------------------------------------

    def span_names(self) -> list[str]:
        return [record.name for record in self.spans]

    def spans_named(self, name: str) -> list[Span]:
        return [record for record in self.spans if record.name == name]

    def top_level_duration_s(self) -> float:
        """Sum of depth-0 span durations (never double-counts nesting)."""
        return sum(
            record.duration_s for record in self.spans if record.depth == 0
        )

    def to_dict(self) -> dict:
        return {
            "duration_s": self.duration_s,
            "name": self.name,
            "spans": [record.to_dict() for record in self.spans],
            "status": self.status,
        }


class TraceRecorder:
    """Bounded capture of finished traces, with slow-request retention.

    ``recent`` is a ring of the last ``capacity`` traces; ``slow`` keeps
    (up to ``slow_capacity``) every trace whose total duration crossed
    ``slow_threshold_s``, so one slow request among thousands is not
    pushed out of the ring before anyone looks.
    """

    def __init__(
        self,
        capacity: int = 128,
        slow_threshold_s: float = 1.0,
        slow_capacity: int = 32,
    ) -> None:
        if capacity < 1:
            raise ValueError("recorder needs capacity >= 1")
        self.slow_threshold_s = slow_threshold_s
        self._lock = threading.Lock()
        self._recent: deque[Trace] = deque(maxlen=capacity)
        self._slow: deque[Trace] = deque(maxlen=slow_capacity)
        self.recorded = 0
        self.slow_recorded = 0

    def record(self, trace: Trace) -> Trace:
        trace.finish()
        with self._lock:
            self.recorded += 1
            self._recent.append(trace)
            if (trace.duration_s or 0.0) >= self.slow_threshold_s:
                self.slow_recorded += 1
                self._slow.append(trace)
        return trace

    def recent(self) -> list[Trace]:
        with self._lock:
            return list(self._recent)

    def slow(self) -> list[Trace]:
        with self._lock:
            return list(self._slow)

    def last(self) -> Optional[Trace]:
        with self._lock:
            return self._recent[-1] if self._recent else None

    def dump(self) -> dict:
        with self._lock:
            return {
                "recent": [trace.to_dict() for trace in self._recent],
                "slow": [trace.to_dict() for trace in self._slow],
                "slow_threshold_s": self.slow_threshold_s,
            }

    def dump_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.dump(), sort_keys=True, indent=indent)


# ---------------------------------------------------------------------------
# the ambient (thread-local) trace


_ACTIVE = threading.local()


def current_trace() -> Optional[Trace]:
    return getattr(_ACTIVE, "trace", None)


@contextmanager
def activate(trace: Trace) -> Iterator[Trace]:
    """Make ``trace`` the thread's ambient trace for the duration."""
    previous = current_trace()
    _ACTIVE.trace = trace
    try:
        yield trace
    finally:
        _ACTIVE.trace = previous


@contextmanager
def span(name: str) -> Iterator[Optional[Span]]:
    """Open a span on the ambient trace; a no-op when none is active."""
    trace = current_trace()
    if trace is None:
        yield None
        return
    with trace.span(name) as record:
        yield record
