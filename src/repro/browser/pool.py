"""Browser instance pooling — implemented for the ablation.

The paper explicitly declines pooling: "Using a browser pool can
potentially violate security assumptions if shared by multiple clients"
(§4.6), because a pooled instance may leak one user's cookies/session
state to the next.  We implement the pool anyway so the ablation bench can
quantify what the security decision costs: a pooled instance skips the
launch portion of the service time but must be *scrubbed* between users,
and the scrub is where the security risk lives.

Two faces:

* :meth:`BrowserPool.acquire` / :meth:`~BrowserPool.release` — the
  cost/accounting model the discrete-event Figure 7 experiment runs on
  (service seconds, no real blocking).
* :meth:`BrowserPool.instance` — a real bounded-semaphore acquire for
  the concurrent runtime: at most ``max_instances`` threads hold a
  browser at once, the rest queue, and the time they spend queueing is
  accounted in :class:`PoolStats`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from repro.browser.costs import BrowserCostModel, DEFAULT_COST_MODEL
from repro.errors import PoolTimeoutError
from repro.observability.metrics import CounterView, MetricsRegistry


class PoolStats(CounterView):
    """Counters for pool behaviour: a :class:`CounterView` table.

    The queue wait is a full latency histogram
    (``msite_pool_queue_wait_seconds``) rather than just a sum, so the
    Figure 7 bench can report pool-wait percentiles; the
    ``queue_wait_total_s`` / ``queue_wait_max_s`` fields read through to
    it.
    """

    FIELDS = {
        "hits": ("msite_pool_hits_total",
                 "Requests that reused an idle browser instance."),
        "misses": ("msite_pool_misses_total",
                   "Requests that had to launch a new browser."),
        "scrubs": ("msite_pool_scrubs_total",
                   "State scrubs between distinct users."),
        "leaks_risked": ("msite_pool_leaks_risked_total",
                         "Instance reuses across different users."),
        "acquires": ("msite_pool_acquires_total",
                     "Completed browser-slot acquisitions."),
        "queue_waits": ("msite_pool_queue_waits_total",
                        "Acquisitions that had to block for a slot."),
    }

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        registry = registry or MetricsRegistry()
        super().__init__(registry)
        self._queue_wait = self._own(registry.histogram(
            "msite_pool_queue_wait_seconds",
            "Time spent blocked waiting for a browser slot.",
        ))

    def observe_queue_wait(self, waited_s: float) -> None:
        self._queue_wait.observe(waited_s)

    @property
    def queue_wait_total_s(self) -> float:
        return self._queue_wait.sum

    @property
    def queue_wait_max_s(self) -> float:
        return self._queue_wait.max

    @property
    def mean_queue_wait_s(self) -> float:
        acquires = self.acquires
        return self.queue_wait_total_s / acquires if acquires else 0.0


@dataclass
class BrowserPool:
    """A bounded pool of reusable browser instances.

    ``acquire`` is the cost/accounting model (the Figure 7 experiment
    runs on service times, not real processes): it returns the core
    seconds the request's browser work costs given pool state.
    ``instance`` is the real concurrency bound.  Both are thread-safe.
    """

    max_instances: int = 4
    scrub_cost_s: float = 0.040
    costs: BrowserCostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    stats: PoolStats = field(default_factory=PoolStats)
    #: Optional :class:`repro.resilience.CircuitBreaker` guarding the
    #: renderer: an open breaker rejects :meth:`instance` *before* the
    #: semaphore, so shed load never queues behind a sick renderer.
    breaker: Optional[object] = None
    _idle: list[str] = field(default_factory=list)  # last user per instance
    _live_count: int = 0

    def __post_init__(self) -> None:
        if self.max_instances < 1:
            raise ValueError("pool needs at least one instance")
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(self.max_instances)

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Expose this pool's instruments through a shared registry."""
        self.stats.bind(registry)

    def acquire(self, user_id: str) -> float:
        """Core seconds of browser work for this request; updates stats."""
        with self._lock:
            if self._idle:
                last_user = self._idle.pop()
                self.stats.record("hits")
                cost = self.costs.browser_render_s
                if last_user != user_id:
                    self.stats.record("scrubs")
                    self.stats.record("leaks_risked")
                    cost += self.scrub_cost_s
                return cost
            self.stats.record("misses")
            if self._live_count < self.max_instances:
                self._live_count += 1
            return self.costs.browser_request_s

    def release(self, user_id: str) -> None:
        """Return the instance to the idle set, remembering its user."""
        with self._lock:
            if len(self._idle) < self._live_count:
                self._idle.append(user_id)

    @contextmanager
    def instance(self, user_id: str, timeout: Optional[float] = None):
        """Hold one of the ``max_instances`` browser slots for real.

        Blocks (up to ``timeout`` seconds, or forever when ``None``)
        until a slot frees, accounting the wait in
        :attr:`PoolStats.queue_wait_total_s`.  Yields the service-time
        cost from :meth:`acquire` so callers can keep the ablation's
        core-seconds accounting.  Raises :class:`PoolTimeoutError` when
        the wait exceeds ``timeout``, or
        :class:`~repro.errors.CircuitOpenError` immediately — without
        ever touching the semaphore — when the attached breaker is open.
        """
        if self.breaker is not None:
            self.breaker.check()  # raises CircuitOpenError when open
        waited = 0.0
        if not self._slots.acquire(blocking=False):
            start = time.perf_counter()
            if not self._slots.acquire(timeout=timeout):
                raise PoolTimeoutError(
                    f"no browser instance within {timeout}s "
                    f"({self.max_instances} slots busy)"
                )
            waited = time.perf_counter() - start
        with self._lock:
            self.stats.record("acquires")
            if waited > 0.0:
                self.stats.record("queue_waits")
            self.stats.observe_queue_wait(waited)
        try:
            yield self.acquire(user_id)
        finally:
            self.release(user_id)
            self._slots.release()

    @property
    def hit_rate(self) -> float:
        total = self.stats.hits + self.stats.misses
        return self.stats.hits / total if total else 0.0
