"""A bounded-admission thread pool over any :class:`Application`.

The generated proxy is a plain ``Request -> Response`` object; in a real
deployment something has to pump requests from many mobile devices into
it at once.  :class:`ConcurrentProxy` is that something: a fixed pool of
worker threads fed by a bounded queue.  Admission control (reject with
503 when the queue is full) and per-request timeouts (504 when the
deadline passes) bound both memory and client-visible latency — the
overload behaviour the Figure 7 scalability story depends on, since an
unbounded queue hides saturation instead of reporting it.

Queue-wait time is accounted per request so the scalability bench can
report how long requests sat waiting for a worker, separately from how
long the proxy spent serving them.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Optional

from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    DegradedServeError,
    RetryExhaustedError,
)
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.observability.metrics import CounterView, MetricsRegistry


@dataclass(frozen=True)
class RuntimeStatsSnapshot:
    """A consistent point-in-time copy of :class:`RuntimeStats`."""

    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failures: int = 0
    timeouts: int = 0
    queue_wait_total_s: float = 0.0
    queue_wait_max_s: float = 0.0
    queue_depth_peak: int = 0

    @property
    def mean_queue_wait_s(self) -> float:
        started = self.submitted - self.rejected
        return self.queue_wait_total_s / started if started else 0.0


class RuntimeStats(CounterView):
    """Executor counters: a :class:`CounterView` table.

    The queue wait is a full latency histogram
    (``msite_executor_queue_wait_seconds``) so the ``/metrics`` endpoint
    and the Figure 7 bench can report queue-wait percentiles, and the
    peak queue depth is a high-watermark gauge; :meth:`snapshot` reads
    all of them into one :class:`RuntimeStatsSnapshot`.
    """

    FIELDS = {
        "submitted": ("msite_executor_submitted_total",
                      "Requests offered to the admission queue."),
        "rejected": ("msite_executor_rejected_total",
                     "Requests rejected because the queue was full."),
        "completed": ("msite_executor_completed_total",
                      "Requests answered successfully."),
        "failures": ("msite_executor_failures_total",
                     "Requests whose handler raised (mapped to 500)."),
        "timeouts": ("msite_executor_timeouts_total",
                     "Requests that missed their deadline (504)."),
    }

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        registry = registry or MetricsRegistry()
        super().__init__(registry)
        self._queue_wait = self._own(registry.histogram(
            "msite_executor_queue_wait_seconds",
            "Time requests sat in the admission queue before a worker "
            "picked them up.",
        ))
        self._queue_depth_peak = self._own(registry.gauge(
            "msite_executor_queue_depth_peak",
            "High watermark of the admission queue depth.",
        ))

    def observe_queue_wait(self, waited_s: float) -> None:
        self._queue_wait.observe(waited_s)

    def observe_queue_depth(self, depth: int) -> None:
        self._queue_depth_peak.track_max(depth)

    def snapshot(self) -> RuntimeStatsSnapshot:
        return RuntimeStatsSnapshot(
            **self.values(),
            queue_wait_total_s=self._queue_wait.sum,
            queue_wait_max_s=self._queue_wait.max,
            queue_depth_peak=int(self._queue_depth_peak.value),
        )


_SENTINEL = object()


class ConcurrentProxy(Application):
    """Drive an :class:`Application` from a bounded thread pool.

    * ``workers`` threads pull requests off one queue and call
      ``app.handle``.
    * The queue holds at most ``queue_limit`` waiting requests; beyond
      that :meth:`submit` raises :class:`AdmissionError` and
      :meth:`handle` answers **503**.
    * :meth:`handle` waits at most ``request_timeout_s`` for the
      response and answers **504** when the deadline passes (the request
      is cancelled if still queued).
    * A handler exception becomes a **500** (and is counted in
      :attr:`RuntimeStats.failures`) rather than killing the worker.

    Use as a context manager, or call :meth:`close` when done.
    """

    def __init__(
        self,
        app: Application,
        workers: int = 8,
        queue_limit: int = 64,
        request_timeout_s: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker thread")
        if queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        self.app = app
        self.workers = workers
        self.queue_limit = queue_limit
        self.request_timeout_s = request_timeout_s
        self.stats = RuntimeStats(registry=metrics)
        self._queue: queue.Queue = queue.Queue(maxsize=queue_limit)
        self._closed = False
        self._draining = False
        self._close_lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"msite-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ------------------------------------------------------

    def submit(self, request: Request) -> "Future[Response]":
        """Enqueue a request; returns a future resolving to the response.

        Raises :class:`AdmissionError` when the queue is full or the
        executor is closed.
        """
        if self._closed:
            raise AdmissionError("executor is closed")
        if self._draining:
            raise AdmissionError("executor is draining")
        future: "Future[Response]" = Future()
        item = (future, request, time.perf_counter())
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self.stats.add(submitted=1, rejected=1)
            raise AdmissionError(
                f"admission queue full ({self.queue_limit} waiting)"
            ) from None
        self.stats.add(submitted=1)
        self.stats.observe_queue_depth(self._queue.qsize())
        return future

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a worker (approximate)."""
        return self._queue.qsize()

    @property
    def saturated(self) -> bool:
        """Whether the next :meth:`submit` is likely to be rejected.

        Advisory (the queue may drain between the check and the submit);
        the cluster router uses it to spill a request to a peer worker
        before paying an admission rejection.
        """
        return self._queue.qsize() >= self.queue_limit

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> None:
        """Stop admitting new requests; in-flight/queued work continues.

        The first step of a graceful scale-down: once admission is off,
        :meth:`close` finishes the queued work and joins the threads.
        """
        self._draining = True

    def handle(self, request: Request) -> Response:
        """Synchronous facade: submit, wait, map failures to statuses."""
        try:
            future = self.submit(request)
        except AdmissionError as exc:
            return Response.text(f"proxy overloaded: {exc}", status=503)
        return self.resolve(future)

    def resolve(self, future: "Future[Response]") -> Response:
        """Wait for a submitted request and map failures to statuses.

        Split out of :meth:`handle` so callers that need to distinguish
        admission rejection (the cluster's spill-over router) can call
        :meth:`submit` themselves and still share the status mapping.
        """
        try:
            response = future.result(timeout=self.request_timeout_s)
        except FutureTimeoutError:
            future.cancel()
            self.stats.add(timeouts=1)
            return Response.text(
                f"proxy timeout after {self.request_timeout_s}s", status=504
            )
        except CancelledError:
            self.stats.add(timeouts=1)
            return Response.text("request cancelled", status=504)
        except CircuitOpenError as exc:
            # A breaker that tripped below the wrapped app is load
            # shedding, not an internal error: answer 503 + Retry-After.
            self.stats.add(failures=1)
            response = Response.text(
                f"proxy temporarily refusing calls: {exc}", status=503
            )
            if exc.retry_after_s is not None:
                response.headers.set(
                    "Retry-After", str(max(1, round(exc.retry_after_s)))
                )
            return response
        except DegradedServeError as exc:
            self.stats.add(failures=1)
            return Response.text(f"proxy degraded: {exc}", status=503)
        except RetryExhaustedError as exc:
            self.stats.add(timeouts=1)
            return Response.text(f"origin timed out: {exc}", status=504)
        except Exception as exc:
            self.stats.add(failures=1)
            return Response.text(f"proxy error: {exc}", status=500)
        self.stats.add(completed=1)
        return response

    # -- worker side -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                self._queue.task_done()
                return
            future, request, enqueued_at = item
            self.stats.observe_queue_wait(time.perf_counter() - enqueued_at)
            if not future.set_running_or_notify_cancel():
                self._queue.task_done()
                continue  # timed out while queued; caller is gone
            try:
                future.set_result(self.app.handle(request))
            except BaseException as exc:  # keep the worker alive
                future.set_exception(exc)
            finally:
                self._queue.task_done()

    # -- lifecycle -------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) join the workers.

        Requests already queued are still served before workers exit.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(_SENTINEL)  # blocks if full; drains first
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "ConcurrentProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
