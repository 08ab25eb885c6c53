"""The benchmark's own spans: recorder, boundary wrappers, invariants.

Spans are recorded from the benchmark's side of each layer boundary —
the client's call into the cluster, ``MSiteProxy.handle`` (wrapped
through ``make_app=``) and the origin ``Application`` (wrapped through
``origins=``).  The program's own ``/traces`` spans are not used for
times.  A span is ``(id, parent, request, layer, name, start_ns,
end_ns)``; the spans of one request share its trace index, which travels
to the worker thread in an ``X-Bench-Request`` header and on to the
origin wrapper through a thread-local.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Iterable, NamedTuple, Optional

from repro.core.proxy import MSiteProxy
from repro.net.messages import Request, Response
from repro.net.server import Application

BENCH_HEADER = "X-Bench-Request"


class Span(NamedTuple):
    id: int
    parent: int  # 0 = root
    request: int  # trace index; negative for stage-replay samples
    layer: str
    name: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder; appends and id draws are GIL-atomic."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def next_id(self) -> int:
        return next(self._ids)

    def record(
        self,
        span_id: int,
        parent: int,
        request: int,
        layer: str,
        name: str,
        start_ns: int,
        end_ns: int,
    ) -> None:
        self.spans.append(
            Span(span_id, parent, request, layer, name, start_ns, end_ns)
        )

    # The (request, span) a nested wrapper on this thread should parent
    # its span under; ``None`` outside a traced request.

    def current(self) -> Optional[tuple[int, int]]:
        return getattr(self._local, "context", None)

    def enter(self, request: int, span_id: int) -> Optional[tuple[int, int]]:
        previous = self.current()
        self._local.context = (request, span_id)
        return previous

    def leave(self, previous: Optional[tuple[int, int]]) -> None:
        self._local.context = previous

    def write_ndjson(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


class TracedCluster(Application):
    """The client's own call into ``ClusterDeployment.handle``."""

    def __init__(self, tracer: Tracer, cluster: Application) -> None:
        self.tracer = tracer
        self.cluster = cluster

    def handle(self, request: Request) -> Response:
        context = self.tracer.current()
        if context is None:
            return self.cluster.handle(request)
        index, parent = context
        span_id = self.tracer.next_id()
        request.headers.set(BENCH_HEADER, f"{index}:{span_id}")
        start = time.perf_counter_ns()
        try:
            return self.cluster.handle(request)
        finally:
            self.tracer.record(
                span_id, parent, index, "cluster", "cluster.handle",
                start, time.perf_counter_ns(),
            )


def trace_proxy(tracer: Tracer, proxy: MSiteProxy) -> MSiteProxy:
    """Record ``core.proxy.handle`` around one worker's proxy."""
    inner = proxy.handle

    def handle(request: Request) -> Response:
        tag = request.headers.get(BENCH_HEADER)
        if tag is None:
            return inner(request)
        index, _, parent = tag.partition(":")
        span_id = tracer.next_id()
        previous = tracer.enter(int(index), span_id)
        start = time.perf_counter_ns()
        try:
            return inner(request)
        finally:
            tracer.record(
                span_id, int(parent), int(index), "core.proxy",
                "core.proxy.handle", start, time.perf_counter_ns(),
            )
            tracer.leave(previous)

    proxy.handle = handle
    return proxy


class TracedOrigin(Application):
    """Record ``sites.origin_handle`` and count what the proxy fetched."""

    def __init__(
        self, tracer: Tracer, origin: Application, page_path: str
    ) -> None:
        self.tracer = tracer
        self.origin = origin
        self.page_path = page_path
        #: (request index, was the spec's page, response body bytes)
        self.fetches: list[tuple[int, bool, int]] = []

    def handle(self, request: Request) -> Response:
        context = self.tracer.current()
        if context is None:
            return self.origin.handle(request)
        index, parent = context
        start = time.perf_counter_ns()
        response = self.origin.handle(request)
        self.tracer.record(
            self.tracer.next_id(), parent, index, "sites",
            "sites.origin_handle", start, time.perf_counter_ns(),
        )
        self.fetches.append(
            (index, request.url.path == self.page_path, len(response.body))
        )
        return response


# -- analysis ----------------------------------------------------------------


def covered_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the interval its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start_ns, span.end_ns))
    return {
        span.id: span.duration_ns - covered_ns(children.get(span.id, ()))
        for span in spans
    }


def invariant_failures(spans: list[Span]) -> list[str]:
    """Violations of the span-tree invariants (empty when sound).

    Every child lies inside its parent, and the children of one span
    never add up to more than the span itself.
    """
    by_id = {span.id: span for span in spans}
    child_sum: dict[int, int] = defaultdict(int)
    failures = []
    for span in spans:
        if span.end_ns < span.start_ns:
            failures.append(f"span {span.id} ({span.name}) ends before it starts")
        if span.parent == 0:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            failures.append(f"span {span.id} ({span.name}) has no parent")
            continue
        if span.start_ns < parent.start_ns or span.end_ns > parent.end_ns:
            failures.append(
                f"span {span.id} ({span.name}) of request {span.request} "
                f"lies outside its parent {parent.name}"
            )
        child_sum[span.parent] += span.duration_ns
    for parent_id, total in child_sum.items():
        parent = by_id.get(parent_id)
        if parent is not None and total > parent.duration_ns:
            failures.append(
                f"children of span {parent_id} ({parent.name}) of request "
                f"{parent.request} sum past its duration"
            )
    return failures
