"""The stale side store behind the degradation ladder.

Part of the cache contract: runs here over ``[memory]`` and again,
re-collected by ``tests/cluster/contract_disk``, over ``[memory, disk]``.
"""

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.sim.clock import Clock


@pytest.fixture()
def cache(make_cache, clock):
    return make_cache(clock=clock, metrics=MetricsRegistry())


@pytest.fixture()
def clock():
    return Clock()


def test_load_stale_returns_fresh_entry_untouched(cache):
    cache.put("k", b"fresh", ttl_s=100.0)
    entry = cache.load_stale("k")
    assert entry.data == b"fresh"
    # Fresh service through the stale path skips hit accounting.
    assert cache.stats.stale_hits == 0


def test_expired_entry_is_retired_then_served_stale(cache, clock):
    cache.put("k", b"old", ttl_s=10.0)
    clock.advance(11.0)
    assert cache.get("k") is None  # expired from the fresh map
    assert len(cache) == 0
    entry = cache.load_stale("k")
    assert entry.data == b"old"
    assert cache.stats.stale_hits == 1
    assert cache.stale_bytes == 3


def test_load_stale_respects_max_stale(cache, clock):
    cache.put("k", b"old", ttl_s=10.0)
    clock.advance(50.0)
    assert cache.load_stale("k", max_stale_s=5.0) is None
    assert cache.stats.stale_misses == 1


def test_too_old_entries_are_evicted(make_cache, clock):
    cache = make_cache(
        clock=clock, metrics=MetricsRegistry(), stale_grace_s=60.0
    )
    cache.put("k", b"old", ttl_s=10.0)
    clock.advance(11.0)
    cache.get("k")  # retire into the stale store while inside grace
    assert cache.stale_bytes == 3
    clock.advance(100.0)  # now far past the 60s grace
    assert cache.load_stale("k") is None
    assert cache.stats.stale_evictions == 1
    assert cache.stale_bytes == 0
    # An entry already too old at retire time is dropped outright.
    cache.put("j", b"old", ttl_s=10.0)
    clock.advance(100.0)
    assert cache.load_stale("j") is None
    assert cache.stale_bytes == 0


def test_fresh_put_supersedes_stale(cache, clock):
    cache.put("k", b"old", ttl_s=10.0)
    clock.advance(11.0)
    cache.get("k")  # retire
    cache.put("k", b"new", ttl_s=10.0)
    assert cache.load_stale("k").data == b"new"
    assert cache.stale_bytes == 0


def test_invalidate_and_clear_drop_stale_copies(cache, clock):
    cache.put("k", b"old", ttl_s=10.0)
    clock.advance(11.0)
    cache.get("k")
    cache.invalidate("k")
    assert cache.load_stale("k") is None

    cache.put("j", b"old", ttl_s=10.0)
    clock.advance(11.0)
    cache.get("j")
    cache.clear()
    assert cache.load_stale("j") is None


def test_zero_ttl_entries_are_never_stale_servable(cache, clock):
    cache.put("k", b"uncacheable", ttl_s=0.0)
    clock.advance(1.0)
    assert cache.get("k") is None
    assert cache.load_stale("k") is None


def _revalidate(cache, key, loader, ttl_s=3600.0):
    """Stale-while-revalidate as the request path composes it (there is
    no cache method for it): the single-flight fill, and on a loader
    failure the stale rung.  Returns ``(entry, is_stale)``."""
    try:
        return cache.load_or_join(
            key, lambda: cache.put(key, loader(), ttl_s=ttl_s)
        ), False
    except RuntimeError:
        entry = cache.load_stale(key)
        if entry is None:
            raise
        return entry, True


def _exploding():
    raise RuntimeError("origin down")


def test_serve_stale_while_revalidate_happy_path(cache):
    entry, is_stale = _revalidate(cache, "k", lambda: b"fresh", ttl_s=10.0)
    assert entry.data == b"fresh"
    assert not is_stale


def test_serve_stale_while_revalidate_falls_back(cache, clock):
    cache.put("k", b"old", ttl_s=10.0)
    clock.advance(11.0)
    entry, is_stale = _revalidate(cache, "k", _exploding)
    assert entry.data == b"old"
    assert is_stale
    # A later successful revalidation replaces the stale copy.
    entry, is_stale = _revalidate(cache, "k", lambda: b"new", ttl_s=10.0)
    assert entry.data == b"new"
    assert not is_stale
    assert cache.stale_bytes == 0


def test_serve_stale_while_revalidate_out_of_rungs(cache):
    with pytest.raises(RuntimeError):
        _revalidate(cache, "missing", _exploding)
    assert cache.stats.stale_misses == 1


def test_stale_store_is_bounded(make_cache, clock):
    cache = make_cache(
        clock=clock, metrics=MetricsRegistry(), stale_max_bytes=200
    )
    for index in range(10):
        cache.put(f"k{index}", b"x" * 50, ttl_s=1.0)
    clock.advance(2.0)
    for index in range(10):
        cache.get(f"k{index}")  # retire each into the stale store
    assert cache.stale_bytes <= 200
