"""The shared pre-render cache.

Part of the cache contract: every test that builds its cache through
``make_cache`` runs here over ``[memory]`` and again, re-collected by
``tests/cluster/contract_disk``, over ``[memory, disk]``.
"""

import pytest

from repro.core.cache import PrerenderCache
from repro.sim.clock import Clock


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def cache(make_cache, clock):
    return make_cache(clock=clock)


def test_miss_then_hit(cache):
    assert cache.get("k") is None
    cache.put("k", b"data")
    entry = cache.get("k")
    assert entry is not None
    assert entry.data == b"data"
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_ttl_expiry(cache, clock):
    cache.put("k", b"data", ttl_s=3600.0)
    clock.advance(3599.0)
    assert cache.get("k") is not None
    clock.advance(2.0)
    assert cache.get("k") is None
    assert cache.stats.expirations == 1


def test_snapshot_expires_after_an_hour_default(cache, clock):
    """§3.3: 'a cached snapshot ... can be set to expire after an hour.'"""
    cache.put("snap", b"jpeg", ttl_s=3600.0)
    clock.advance(3601.0)
    assert cache.get("snap") is None


def test_hit_counts_per_entry(cache):
    cache.put("k", b"x")
    cache.get("k")
    cache.get("k")
    assert cache.get("k").hits == 3


def test_string_payload(cache):
    cache.put("k", "text", content_type="text/html")
    assert cache.get("k").data == b"text"


def test_invalidate(cache):
    cache.put("k", b"x")
    assert cache.invalidate("k")
    assert cache.get("k") is None
    assert not cache.invalidate("k")


def test_clear(cache):
    cache.put("a", b"1")
    cache.put("b", b"2")
    cache.clear()
    assert len(cache) == 0


def test_total_bytes(cache):
    cache.put("a", b"12345")
    cache.put("b", b"123")
    assert cache.total_bytes == 8


def test_eviction_oldest_first(clock):
    # The byte budget is the memory tier's alone — a disk tier below
    # still answers an evicted key — so the eviction tests build
    # ``[memory]`` directly.
    cache = PrerenderCache(clock=clock, max_bytes=100)
    cache.put("old", b"x" * 60)
    clock.advance(1.0)
    cache.put("new", b"y" * 60)
    assert cache.get("old") is None
    assert cache.get("new") is not None


def test_hit_rate(cache):
    cache.get("missing")
    cache.put("k", b"x")
    cache.get("k")
    assert cache.stats.hit_rate == pytest.approx(0.5)


def test_hit_rate_empty(make_cache):
    assert make_cache().stats.hit_rate == 0.0


def test_overwrite_refreshes_age(cache, clock):
    cache.put("k", b"v1", ttl_s=10.0)
    clock.advance(8.0)
    cache.put("k", b"v2", ttl_s=10.0)
    clock.advance(8.0)
    assert cache.get("k").data == b"v2"


# ---------------------------------------------------------------------------
# freshness boundary regressions


def test_ttl_zero_is_never_fresh(cache):
    """A ttl_s=0 entry must not be served — not even on a clock that has
    not advanced since the store (clock=None pins now to 0.0)."""
    cache.put("k", b"data", ttl_s=0.0)
    assert cache.get("k") is None
    assert cache.stats.expirations == 1


def test_ttl_zero_is_never_fresh_without_clock(make_cache):
    cache = make_cache()  # no clock: now is always 0.0
    cache.put("k", b"data", ttl_s=0.0)
    assert cache.get("k") is None


def test_negative_ttl_is_never_fresh(cache):
    cache.put("k", b"data", ttl_s=-5.0)
    assert cache.get("k") is None


def test_exactly_elapsed_ttl_is_expired(cache, clock):
    """now - stored_at == ttl_s sits on the boundary: expired."""
    cache.put("k", b"data", ttl_s=10.0)
    clock.advance(10.0)
    assert cache.get("k") is None
    assert cache.stats.expirations == 1


def test_just_under_ttl_is_fresh(cache, clock):
    cache.put("k", b"data", ttl_s=10.0)
    clock.advance(10.0 - 1e-9)
    assert cache.get("k") is not None


# ---------------------------------------------------------------------------
# peek and eviction accounting


def test_peek_does_not_touch_stats(cache):
    cache.put("k", b"data")
    before_hits = cache.stats.hits
    before_misses = cache.stats.misses
    assert cache.peek("k") is not None
    assert cache.peek("absent") is None
    assert cache.stats.hits == before_hits
    assert cache.stats.misses == before_misses
    assert cache.peek("k").hits == 0  # entry hit count untouched too


def test_peek_respects_freshness(cache, clock):
    cache.put("k", b"data", ttl_s=5.0)
    clock.advance(6.0)
    assert cache.peek("k") is None


def test_eviction_counted_in_stats(clock):
    cache = PrerenderCache(clock=clock, max_bytes=100)
    cache.put("a", b"x" * 60)
    clock.advance(1.0)
    cache.put("b", b"y" * 60)
    assert cache.stats.evictions == 1
