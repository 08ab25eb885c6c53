"""One member of the proxy fleet.

A :class:`ClusterWorker` bundles what the router needs to know about a
worker — can it take another request right now? — with what the worker
owns privately: its generated proxy app, its :class:`ConcurrentProxy`
thread pool, its :class:`ProxyServices` (whose *cache is the fleet-shared
object*), and its own metrics registry, rolled up
fleet-wide by :mod:`repro.cluster.rollup`.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.cluster.sharedcache import DERIVED_STATE_KINDS, InvalidationEvent
from repro.core.pipeline import ProxyServices
from repro.net.server import Application
from repro.observability.metrics import MetricsRegistry
from repro.resilience.breaker import OPEN
from repro.runtime.executor import ConcurrentProxy


class ClusterWorker:
    """A routable ``ConcurrentProxy`` plus its health/admission state."""

    def __init__(
        self,
        worker_id: str,
        app: Application,
        services: ProxyServices,
        registry: MetricsRegistry,
        threads: int = 4,
        queue_limit: int = 64,
        request_timeout_s: Optional[float] = None,
        spill_depth: Optional[int] = None,
    ) -> None:
        self.worker_id = worker_id
        self.app = app
        self.services = services
        self.registry = registry
        # Spill earlier than hard saturation when configured: a backlog
        # of ``spill_depth`` queued requests means a peer could serve
        # immediately while this worker could not.
        self.spill_depth = spill_depth
        self.executor = ConcurrentProxy(
            app,
            workers=threads,
            queue_limit=queue_limit,
            request_timeout_s=request_timeout_s,
            metrics=registry,
        )
        self._healthy = True
        self._lock = threading.Lock()

    # -- health -----------------------------------------------------------

    @property
    def healthy(self) -> bool:
        with self._lock:
            return (
                self._healthy
                and not self.executor.closed
                and not self.executor.draining
            )

    def mark_down(self) -> None:
        """Take the worker out of rotation (crash / drain simulation)."""
        with self._lock:
            self._healthy = False

    def mark_up(self) -> None:
        with self._lock:
            self._healthy = True

    # -- admission signals the router reads -------------------------------

    @property
    def saturated(self) -> bool:
        """Admission queue at its limit (advisory; see executor)."""
        return self.executor.saturated

    @property
    def busy(self) -> bool:
        """Backlogged past ``spill_depth`` (always False when unset).

        A softer signal than :attr:`saturated`: the queue still has
        room, but requests sent here would wait while an idle peer could
        serve them now.  The router treats busy like saturated — skip in
        preference order — but a fleet where *every* worker is busy
        still lands the request on the shard owner.
        """
        if self.spill_depth is None:
            return False
        return self.executor.queue_depth >= self.spill_depth

    @property
    def render_breaker_open(self) -> bool:
        """Whether this worker's renderer breaker is refusing work.

        Non-consuming: reads the breaker state without spending a
        half-open probe, so the router can steer cold renders to a
        healthy peer while this worker's probe budget recovers.
        """
        return self.services.resilience.render_breaker.state == OPEN

    def admissible(self) -> bool:
        """Should the router hand this worker a request right now?"""
        return (
            self.healthy
            and not self.saturated
            and not self.busy
            and not self.render_breaker_open
        )

    # -- invalidation bus -------------------------------------------------

    def on_invalidation(self, event: InvalidationEvent) -> None:
        """Drop derived state when the fleet invalidates the cache.

        The shared snapshot/fastpath entries vanish from the shared
        cache itself; what each worker must drop locally is its proxies'
        per-session adapted-page memos, or a peer would keep serving a
        page another worker just re-adapted.  TTL ``expire`` events keep
        the memo (matching single-proxy semantics, where an expired
        snapshot does not un-adapt a session's page).
        """
        if event.kind not in DERIVED_STATE_KINDS:
            return
        forget = getattr(self.app, "forget_adapted", None)
        if forget is not None:
            forget()

    # -- lifecycle --------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self.executor.draining

    def drain(self) -> None:
        """Stop admission; queued and in-flight requests still finish."""
        self.executor.drain()

    def close(self, wait: bool = True) -> None:
        self.executor.close(wait=wait)

    def __repr__(self) -> str:
        state = "up" if self.healthy else "down"
        return f"ClusterWorker({self.worker_id!r}, {state})"
