"""One prerender/fastpath cache shared by every worker in the fleet.

m.Site's economics rest on "render once, serve many" (§3.3, §5).  A
cluster of workers each holding a private :class:`PrerenderCache` would
re-render every snapshot once *per worker*; sharing one cache object —
single-flight semantics included — keeps the fleet-wide render count at
one per key no matter which worker fields the cold request.

Two pieces live here:

* :class:`InvalidationBus` — the fan-out the shared cache announces
  every invalidation (explicit, ``clear``, or TTL expiry) on, so workers
  holding derived state (the per-session adapted-page memo in
  :class:`MSiteProxy <repro.core.proxy.MSiteProxy>`) can drop it
  fleet-wide.  The cache publishes only *after* its locks are released;
  a subscriber may freely call back into the cache or take its own
  locks.
* :class:`InProcessSharedCache` — the fleet's cache backend: the bus
  plus one :class:`PrerenderCache` every worker attaches to.  Given a
  ``root`` directory the cache gains a disk tier (a
  :class:`SnapshotStore`) below memory, so a full fleet restart
  warm-starts from disk instead of stampeding the origin.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.cluster.snapshotstore import SnapshotStore
from repro.core.cache import (  # noqa: F401  (the event vocabulary)
    CLEAR,
    EXPIRE,
    INVALIDATE,
    CacheEntry,
    InvalidationEvent,
    PrerenderCache,
)
from repro.observability.metrics import MetricsRegistry

#: A client sent ?refresh=1 somewhere in the fleet (published by the
#: cluster front end, not by the cache).
REFRESH = "refresh"

#: Kinds that should make workers forget derived (memoized) state.
#: TTL expiry deliberately does not: a single proxy keeps serving its
#: session memo past snapshot expiry, and the cluster must byte-match
#: single-proxy output.
DERIVED_STATE_KINDS = frozenset({REFRESH, INVALIDATE, CLEAR})


class InvalidationBus:
    """Synchronous fan-out of :class:`InvalidationEvent` to subscribers.

    Delivery is in-line with :meth:`publish` (no background thread — the
    in-process fleet shares an address space, so propagation is just a
    call).  A subscriber exception is counted and swallowed: one broken
    worker must not stop the rest of the fleet from hearing about an
    invalidation.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self._subscribers: list[Callable[[InvalidationEvent], None]] = []
        self._registry = metrics or MetricsRegistry()
        self._errors = self._registry.counter(
            "msite_cluster_bus_errors_total",
            "Invalidation-bus subscriber callbacks that raised.",
        )

    def subscribe(
        self, callback: Callable[[InvalidationEvent], None]
    ) -> None:
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(
        self, callback: Callable[[InvalidationEvent], None]
    ) -> None:
        """Remove a subscriber (a drained worker); absent is a no-op."""
        with self._lock:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def publish(self, event: InvalidationEvent) -> None:
        self._registry.counter(
            "msite_cluster_invalidations_total",
            "Cache invalidation events published on the fleet bus.",
            labels={"kind": event.kind},
        ).inc()
        with self._lock:
            subscribers = tuple(self._subscribers)
        for callback in subscribers:
            try:
                callback(event)
            except Exception:
                self._errors.inc()

    def published(self, kind: str) -> int:
        counter = self._registry.get(
            "msite_cluster_invalidations_total", labels={"kind": kind}
        )
        return int(counter.value) if counter is not None else 0


class InProcessSharedCache:
    """The cache backend of a one-process fleet.

    Owns the bus and one :class:`PrerenderCache`; every worker attaches
    to the same object, so single-flight collapsing and the byte budget
    are fleet-global for free.  ``root`` adds the disk tier (``name``
    labels its metrics — a region's name); with ``preload`` the memory
    tier warm-starts from whatever a previous process left there.
    """

    def __init__(
        self,
        clock=None,
        max_bytes: int = 64 * 1024 * 1024,
        metrics: Optional[MetricsRegistry] = None,
        root: Optional[str] = None,
        name: Optional[str] = None,
        preload: bool = True,
    ) -> None:
        self.metrics = metrics or MetricsRegistry()
        self.bus = InvalidationBus(metrics=self.metrics)
        self.store: Optional[SnapshotStore] = None
        if root is not None:
            self.store = SnapshotStore(
                root, clock=clock, metrics=self.metrics, name=name
            )
        self.cache = PrerenderCache(
            clock=clock,
            max_bytes=max_bytes,
            metrics=self.metrics,
            bus=self.bus,
            store=self.store,
        )
        self.preloaded = self.cache.preload() if preload else 0
        self.attached_workers: list[str] = []

    @property
    def on_persist(self) -> Optional[Callable[[CacheEntry], None]]:
        return self.cache.on_persist

    @on_persist.setter
    def on_persist(self, callback) -> None:
        self.cache.on_persist = callback

    def attach(self, worker_id: str) -> PrerenderCache:
        self.attached_workers.append(worker_id)
        return self.cache

    def invalidate(self, key: str) -> bool:
        return self.cache.invalidate(key)

    def clear(self) -> None:
        self.cache.clear()

    def flush(self) -> int:
        return self.cache.flush()

    def close(self) -> None:
        self.cache.close()

    def status(self) -> dict:
        """The ``/cluster`` and ``/regions`` row for this cache."""
        status = {
            "tiers": [tier.tier_name for tier in self.cache.tiers],
            "attached_workers": list(self.attached_workers),
            "entries": len(self.cache),
            "preloaded": self.preloaded,
        }
        if self.store is not None:
            status["store"] = self.store.status()
        return status
