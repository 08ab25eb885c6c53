"""The shared cache backend and its invalidation bus.

Single-flight across attached views, event publication for explicit
invalidation / ``clear`` / TTL expiry, and the lock discipline (events
fire after the cache lock is released, so subscribers may call back
into the cache).

Part of the cache contract: runs here over ``[memory]`` and again,
re-collected by ``tests/cluster/contract_disk``, over ``[memory, disk]``.
"""

import threading

from repro.cluster.sharedcache import (
    CLEAR,
    EXPIRE,
    INVALIDATE,
    REFRESH,
    InvalidationBus,
    InvalidationEvent,
)
from repro.observability.metrics import MetricsRegistry
from repro.sim.clock import Clock


def _fill(cache, key, loader):
    """The request path's fill: get, then single-flight
    peek -> load -> put."""
    return cache.get(key) or cache.load_or_join(
        key, lambda: cache.peek(key) or cache.put(key, loader())
    )


def test_backend_protocol_and_shared_view(make_backend):
    backend = make_backend()
    view_a = backend.attach("w0")
    view_b = backend.attach("w1")
    assert view_a is view_b is backend.cache  # one object, fleet-global
    assert backend.attached_workers == ["w0", "w1"]
    status = backend.status()
    assert status["attached_workers"] == ["w0", "w1"]
    assert status["tiers"] == [tier.tier_name for tier in view_a.tiers]
    assert status["tiers"][0] == "memory"
    backend.close()  # a no-op without a disk tier


def test_single_flight_joins_across_attached_views(make_backend):
    backend = make_backend()
    view_a = backend.attach("w0")
    view_b = backend.attach("w1")
    started = threading.Event()
    release = threading.Event()
    loads = []

    def slow_loader():
        loads.append("a")
        started.set()
        release.wait(timeout=5.0)
        return b"rendered"

    results = {}

    def leader():
        results["a"] = _fill(view_a, "snap:page", slow_loader).data

    def joiner():
        started.wait(timeout=5.0)
        results["b"] = _fill(
            view_b, "snap:page", lambda: b"duplicate"
        ).data

    thread_a = threading.Thread(target=leader)
    thread_b = threading.Thread(target=joiner)
    thread_a.start()
    thread_b.start()
    started.wait(timeout=5.0)
    # Give the joiner a beat to reach the flight before releasing.
    for _ in range(1000):
        if backend.cache.stats.stampedes_suppressed:
            break
        threading.Event().wait(0.001)
    release.set()
    thread_a.join(timeout=5.0)
    thread_b.join(timeout=5.0)

    assert results["a"] == results["b"] == b"rendered"
    assert loads == ["a"]  # worker B joined, never loaded
    assert backend.cache.stats.stampedes_suppressed == 1


def test_invalidate_and_clear_publish_events(make_backend):
    backend = make_backend()
    events = []
    backend.bus.subscribe(events.append)
    cache = backend.attach("w0")
    cache.put("snap:a", b"a")
    assert backend.invalidate("snap:a") is True
    assert backend.invalidate("snap:missing") is False  # no event
    backend.clear()
    assert events == [
        InvalidationEvent(INVALIDATE, "snap:a"),
        InvalidationEvent(CLEAR, None),
    ]
    assert backend.bus.published(INVALIDATE) == 1
    assert backend.bus.published(CLEAR) == 1


def test_ttl_expiry_publishes_after_lock_release(make_backend):
    clock = Clock()
    backend = make_backend(clock=clock)
    cache = backend.attach("w0")
    observed = []

    def reentrant_subscriber(event):
        # Re-entering the cache from the handler must not deadlock:
        # events are flushed after the cache lock is released.
        cache.put(f"derived:{event.key}", b"x")
        observed.append(event)

    backend.bus.subscribe(reentrant_subscriber)
    cache.put("snap:a", b"a", ttl_s=10.0)
    clock.advance(11.0)
    assert cache.get("snap:a") is None  # expired -> retired
    assert observed == [InvalidationEvent(EXPIRE, "snap:a")]
    assert cache.peek("derived:snap:a") is not None


def test_invalidation_mid_flight_is_not_resurrected(make_backend):
    """An invalidation landing while a single-flight loader runs must
    win: the loader's result is served to its waiters but never stored,
    so the next lookup re-loads instead of seeing the stale bytes."""
    backend = make_backend()
    cache = backend.attach("w0")
    in_loader = threading.Event()
    release = threading.Event()

    def slow_loader():
        in_loader.set()
        release.wait(timeout=5.0)
        return b"stale-by-the-time-it-lands"

    result = {}

    def leader():
        result["entry"] = _fill(cache, "snap:page", slow_loader)

    thread = threading.Thread(target=leader)
    thread.start()
    assert in_loader.wait(timeout=5.0)
    backend.invalidate("snap:page")  # lands mid-flight
    release.set()
    thread.join(timeout=5.0)

    # The waiter still got the loaded bytes...
    assert result["entry"].data == b"stale-by-the-time-it-lands"
    # ...but they were never stored: the invalidation wins.
    assert cache.peek("snap:page") is None
    assert backend.cache.stats.invalidated_loads == 1
    fresh = _fill(cache, "snap:page", lambda: b"reloaded")
    assert fresh.data == b"reloaded"
    assert cache.peek("snap:page").data == b"reloaded"


def test_subscriber_errors_are_counted_not_propagated():
    registry = MetricsRegistry()
    bus = InvalidationBus(metrics=registry)
    seen = []

    def broken(event):
        raise RuntimeError("subscriber bug")

    bus.subscribe(broken)
    bus.subscribe(seen.append)
    bus.publish(InvalidationEvent(REFRESH, "k"))
    # The broken subscriber neither blocked the healthy one nor leaked.
    assert seen == [InvalidationEvent(REFRESH, "k")]
    errors = registry.get("msite_cluster_bus_errors_total")
    assert errors is not None and errors.value == 1
    assert bus.published(REFRESH) == 1
    assert bus.subscriber_count == 2
