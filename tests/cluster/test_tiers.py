"""The ``[memory, disk]`` tier list: read-through, write-behind, warm
start.

What every tier list must do (TTL, stale grace, single-flight,
invalidation) is the cache contract, re-run over this tier list by
``tests/cluster/contract_disk``.  These are the disk-specific races and
properties: the flusher must never resurrect an entry invalidated after
it was queued, an invalidation must be heard even when only the disk
held the key, and a restart over the same directory must warm-start
instead of stampeding.
"""

import threading
from contextlib import closing

from repro.cluster.deployment import ClusterDeployment
from repro.cluster.sharedcache import (
    CLEAR,
    INVALIDATE,
    InProcessSharedCache,
    InvalidationBus,
    InvalidationEvent,
)
from repro.cluster.snapshotstore import SnapshotStore
from repro.core.cache import CacheEntry, PrerenderCache
from repro.net.messages import Response
from repro.observability.metrics import MetricsRegistry
from repro.sim.clock import Clock


def make_stack(tmp_path, clock=None, **kwargs):
    registry = MetricsRegistry()
    bus = InvalidationBus(metrics=registry)
    store = SnapshotStore(str(tmp_path), clock=clock, metrics=registry)
    cache = PrerenderCache(
        bus=bus, store=store, metrics=registry, clock=clock, **kwargs
    )
    return cache, store, registry


def test_put_persists_to_disk_on_flush(tmp_path):
    cache, store, _ = make_stack(tmp_path)
    cache.put("snap:a", b"rendered", ttl_s=60.0)
    cache.flush()
    assert store.get("snap:a").data == b"rendered"
    cache.close()


def test_write_through_mode_persists_synchronously(tmp_path):
    """Write-through is not a mode any more, only what a queue that can
    no longer take the entry degrades to — here, a closed one."""
    cache, store, registry = make_stack(tmp_path)
    cache.close()
    cache.put("snap:a", b"rendered", ttl_s=60.0)
    assert store.get("snap:a") is not None  # no flush needed
    assert registry.get(
        "msite_snapshotstore_writebehind_overflows_total"
    ).value == 1


def test_dirty_queue_overflow_degrades_to_write_through(tmp_path):
    cache, store, registry = make_stack(tmp_path, dirty_limit=1)
    # Fill the queue behind the flusher's back (no notify), so it stays
    # full while the next put arrives.
    with cache._dirty_cond:
        cache._dirty.append(CacheEntry("snap:block", b"", "x", 0.0, 1.0))
        overflow_before = registry.get(
            "msite_snapshotstore_writebehind_overflows_total"
        ).value
    cache.put("snap:a", b"sync", ttl_s=60.0)
    assert store.get("snap:a") is not None  # landed without a flush
    assert registry.get(
        "msite_snapshotstore_writebehind_overflows_total"
    ).value == overflow_before + 1
    cache.close()
    assert store.get("snap:block") is None  # never live, never persisted


def reopened_stack(tmp_path, clock, **kwargs):
    """A restart without preload: the disk tier holds what the previous
    process stored, the memory tier is empty."""
    first, _, _ = make_stack(tmp_path, clock=clock, **kwargs)
    first.put("snap:a", b"durable", ttl_s=10.0)
    first.close()  # flushes
    return make_stack(tmp_path, clock=clock, **kwargs)


def test_read_through_promotes_fresh_disk_entry(tmp_path):
    cache, _, registry = reopened_stack(tmp_path, Clock())
    assert cache.peek("snap:a") is None  # memory tier only
    entry = cache.get("snap:a")
    assert entry is not None and entry.data == b"durable"
    assert cache.peek("snap:a") is not None  # resident again
    # The walk records which tier answered; the split sums to the total.
    assert cache.get("snap:a") is not None
    by_tier = {
        tier: registry.get(
            "msite_cache_tier_hits_total", labels={"tier": tier}
        ).value
        for tier in ("memory", "disk")
    }
    assert by_tier == {"memory": 1, "disk": 1}
    assert cache.stats.hits == 2
    cache.close()


def test_read_through_parks_expired_entry_in_stale_store(tmp_path):
    clock = Clock()
    cache, _, _ = reopened_stack(tmp_path, clock)
    clock.advance(20.0)  # expired, within default stale grace
    assert cache.get("snap:a") is None  # not served as fresh
    assert cache.load_stale("snap:a").data == b"durable"  # ladder rung
    cache.close()


def test_memory_eviction_is_not_a_loss_with_a_disk_tier(tmp_path):
    """The byte budget is the memory tier's alone: an entry evicted from
    memory is still answered, by promotion, from the tier below."""
    cache, store, _ = make_stack(tmp_path, clock=Clock(), max_bytes=8)
    cache.put("snap:a", b"aaaaaa", ttl_s=60.0)
    cache.flush()
    cache.put("snap:b", b"bbbbbb", ttl_s=60.0)  # evicts snap:a
    cache.flush()
    assert cache.keys() == ["snap:b"] and cache.stats.evictions == 1
    assert cache.get("snap:a").data == b"aaaaaa"  # evicts snap:b in turn
    assert cache.keys() == ["snap:a"] and cache.total_bytes == 6
    assert store.get("snap:b") is not None
    cache.close()


def test_preload_warm_starts_from_prior_process(tmp_path):
    clock = Clock()
    first, _, _ = make_stack(tmp_path, clock=clock)
    first.put("snap:a", b"a", ttl_s=100.0)
    first.put("snap:b", b"b", ttl_s=100.0)
    first.close()  # flushes

    second, _, registry = make_stack(tmp_path, clock=clock)
    assert second.preload() == 2
    assert second.peek("snap:a") is not None
    assert second.peek("snap:b") is not None
    assert registry.get(
        "msite_snapshotstore_preloaded_total"
    ).value == 2
    assert second.preload() == 0  # idempotent: already resident
    second.close()


def test_invalidate_purges_memory_and_disk(tmp_path):
    cache, store, _ = make_stack(tmp_path)
    cache.put("snap:a", b"a", ttl_s=60.0)
    cache.flush()
    assert cache.invalidate("snap:a") is True
    assert cache.peek("snap:a") is None
    assert store.get("snap:a") is None
    cache.close()


def test_disk_only_invalidation_is_announced(tmp_path):
    """A key held only by the disk tier — not yet promoted after a
    restart — must still be heard when it is invalidated: workers hold
    derived memos and the regional CDC pump logs from the bus."""
    reopened, store, _ = reopened_stack(tmp_path, Clock())
    events = []
    reopened.bus.subscribe(events.append)
    assert reopened.peek("snap:a") is None
    assert reopened.invalidate("snap:a") is True
    assert store.get("snap:a") is None
    assert events == [InvalidationEvent(INVALIDATE, "snap:a")]
    assert reopened.invalidate("snap:a") is False  # held nowhere: silent
    assert len(events) == 1
    reopened.close()


def test_flusher_never_resurrects_invalidated_entry(tmp_path):
    """The write-behind race: entry queued dirty, invalidated before the
    flusher ran — persisting it anyway would resurrect it on disk."""
    cache, store, _ = make_stack(tmp_path)
    cache.put("snap:a", b"doomed", ttl_s=60.0)
    # Invalidate while the entry may still be sitting in the queue.
    cache.invalidate("snap:a")
    cache.flush()
    assert store.get("snap:a") is None
    assert cache.peek("snap:a") is None
    cache.close()


def test_clear_wipes_both_tiers_and_dirty_queue(tmp_path):
    cache, store, _ = make_stack(tmp_path)
    events = []
    cache.bus.subscribe(events.append)
    cache.put("snap:a", b"a", ttl_s=60.0)
    cache.flush()
    cache.put("snap:b", b"b", ttl_s=60.0)  # possibly still dirty
    cache.clear()
    cache.flush()
    assert len(cache) == 0
    assert len(store) == 0
    assert InvalidationEvent(CLEAR) in events
    cache.close()


def test_bus_publish_happens_outside_store_lock(tmp_path):
    """A subscriber that takes the store lock (as the regional CDC pump
    does for peers) must not deadlock against invalidate/clear."""
    cache, _, _ = make_stack(tmp_path)
    entered = []

    def lock_taking_subscriber(event):
        acquired = cache._store_lock.acquire(timeout=2.0)
        assert acquired, "publish ran while holding _store_lock"
        cache._store_lock.release()
        entered.append(event.kind)

    cache.bus.subscribe(lock_taking_subscriber)
    cache.put("snap:a", b"a", ttl_s=60.0)
    cache.invalidate("snap:a")
    cache.clear()
    assert entered == [INVALIDATE, CLEAR]
    cache.close()


def test_tiered_backend_restart_warm_starts(tmp_path):
    clock = Clock()
    with closing(
        InProcessSharedCache(root=str(tmp_path), clock=clock)
    ) as backend:
        view = backend.attach("w0")
        for i in range(5):
            view.put(f"snap:{i}", f"body{i}".encode(), ttl_s=100.0)
    # close() flushed; a new backend over the same root preloads.
    with closing(
        InProcessSharedCache(root=str(tmp_path), clock=clock)
    ) as restarted:
        assert restarted.preloaded == 5
        view = restarted.attach("w0")
        for i in range(5):
            assert view.get(f"snap:{i}").data == f"body{i}".encode()
        status = restarted.status()
        assert status["tiers"] == ["memory", "disk"]
        assert status["preloaded"] == 5
        assert status["store"]["entries"] == 5


def test_on_persist_callback_fires_and_errors_are_counted(tmp_path):
    replicated = []

    def replicator(entry):
        replicated.append(entry.key)
        raise RuntimeError("peer down")

    backend = InProcessSharedCache(root=str(tmp_path))
    assert backend.on_persist is None
    backend.on_persist = replicator
    assert backend.on_persist is replicator
    backend.attach("w0").put("snap:a", b"a", ttl_s=60.0)
    backend.flush()
    assert replicated == ["snap:a"]
    assert backend.metrics.get(
        "msite_snapshotstore_persist_callback_errors_total"
    ).value == 1
    backend.close()


def test_preload_parks_expired_but_graceful_entries_as_stale(tmp_path):
    clock = Clock()
    first, _, _ = make_stack(tmp_path, clock=clock, stale_grace_s=15.0)
    first.put("snap:brief", b"old", ttl_s=10.0)
    first.put("snap:gone", b"ancient", ttl_s=0.5)
    first.close()
    clock.advance(20.0)  # brief: 10s stale, inside grace; gone: 19.5s, beyond
    second, _, _ = make_stack(tmp_path, clock=clock, stale_grace_s=15.0)
    assert second.preload() == 1
    assert second.peek("snap:brief") is None  # not fresh
    assert second.load_stale("snap:brief").data == b"old"
    assert second.load_stale("snap:gone") is None
    second.close()


def test_invalidate_matching_purges_disk_too(tmp_path):
    cache, store, _ = make_stack(tmp_path)
    events = []
    cache.bus.subscribe(events.append)
    cache.put("snap:site:a", b"a", ttl_s=60.0)
    cache.put("snap:other:b", b"b", ttl_s=60.0)
    cache.flush()
    assert cache.tiers == [cache._memory, store]
    removed = cache.invalidate_matching(lambda k: ":site:" in k)
    assert removed == 1
    assert store.get("snap:site:a") is None
    assert store.get("snap:other:b") is not None
    # Matching invalidation is silent by design: the regional CDC
    # replay publishes its own replayed-marked event.
    assert events == []
    cache.close()


def test_concurrent_puts_and_invalidations_converge(tmp_path):
    """Hammer: writers and invalidators race the flusher; afterwards
    disk and memory agree for every key."""
    cache, store, _ = make_stack(tmp_path, dirty_limit=4)
    keys = [f"snap:{i}" for i in range(8)]
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            for key in keys:
                cache.put(key, b"v", ttl_s=60.0)

    def invalidator():
        while not stop.is_set():
            for key in keys:
                cache.invalidate(key)

    threads = [
        threading.Thread(target=writer),
        threading.Thread(target=invalidator),
    ]
    for thread in threads:
        thread.start()
    stop.wait(0.2)
    stop.set()
    for thread in threads:
        thread.join(timeout=5.0)
    cache.flush()
    for key in keys:
        in_memory = cache.peek(key) is not None
        on_disk = store.get(key) is not None
        # Disk may lag memory only by entries still dirty — flushed
        # above — so a disk entry without a memory entry is the
        # resurrection bug.
        assert not (on_disk and not in_memory), key
    cache.close()


class _OkApp:
    def __init__(self, services):
        self.services = services

    def handle(self, request):
        return Response.text("ok")


def test_elastic_membership_leaves_no_bus_subscribers_behind(tmp_path):
    """Autoscaler churn over a disk-backed fleet: every attach/drain
    cycle must hand back exactly the subscriptions it took."""
    with closing(InProcessSharedCache(root=str(tmp_path))) as backend:
        with ClusterDeployment(
            make_app=_OkApp, workers=1, shared_cache=backend
        ) as cluster:
            before = backend.bus.subscriber_count
            for _ in range(4):
                cluster.drain_worker(cluster.add_worker())
            assert cluster.fleet_size == 1
            assert backend.bus.subscriber_count == before
