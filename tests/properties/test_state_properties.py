"""Property-based invariants for the proxy's stateful substrates:
cookie jars and the pre-render cache."""

from hypothesis import given, settings, strategies as st

from repro.core.cache import PrerenderCache
from repro.net.cookies import Cookie, CookieJar
from repro.net.url import URL
from repro.sim.clock import Clock

_names = st.text(
    alphabet="abcdefgh", min_size=1, max_size=4
)


# -- cookie jar ---------------------------------------------------------------

_cookie_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), _names, _names,
                  st.floats(min_value=1, max_value=100)),
        st.tuples(st.just("delete"), _names),
        st.tuples(st.just("advance"), st.floats(min_value=0, max_value=50)),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(_cookie_ops)
def test_jar_never_sends_expired_or_deleted(ops):
    jar = CookieJar()
    now = 0.0
    deleted_after: dict[str, float] = {}
    expiry: dict[str, float] = {}
    for op in ops:
        if op[0] == "set":
            __, name, value, ttl = op
            jar.set(Cookie(name, value, domain="h", expires_at=now + ttl))
            expiry[name] = now + ttl
            deleted_after.pop(name, None)
        elif op[0] == "delete":
            jar.delete(op[1])
            deleted_after[op[1]] = now
            expiry.pop(op[1], None)
        else:
            now += op[1]
    header = jar.cookie_header(URL.parse("http://h/"), now) or ""
    sent = {
        pair.split("=")[0] for pair in header.split("; ") if pair
    }
    for name in sent:
        assert name not in deleted_after
        assert expiry[name] > now


# -- cache ------------------------------------------------------------------------

_cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _names, st.binary(min_size=1, max_size=16),
                  st.floats(min_value=1, max_value=60)),
        st.tuples(st.just("get"), _names),
        st.tuples(st.just("advance"), st.floats(min_value=0, max_value=40)),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(_cache_ops)
def test_cache_never_serves_stale(ops):
    clock = Clock()
    cache = PrerenderCache(clock=clock)
    stored_at: dict[str, tuple[float, float, bytes]] = {}
    for op in ops:
        if op[0] == "put":
            __, key, data, ttl = op
            cache.put(key, data, ttl_s=ttl)
            stored_at[key] = (clock.now, ttl, data)
        elif op[0] == "get":
            entry = cache.get(op[1])
            if entry is not None:
                when, ttl, data = stored_at[op[1]]
                assert clock.now - when < ttl
                assert entry.data == data
            elif op[1] in stored_at:
                when, ttl, __ = stored_at[op[1]]
                assert clock.now - when >= ttl
        else:
            clock.advance(op[1])


@settings(max_examples=40, deadline=None)
@given(_cache_ops)
def test_cache_stats_consistent(ops):
    clock = Clock()
    cache = PrerenderCache(clock=clock)
    gets = 0
    for op in ops:
        if op[0] == "put":
            cache.put(op[1], op[2], ttl_s=op[3])
        elif op[0] == "get":
            cache.get(op[1])
            gets += 1
        else:
            clock.advance(op[1])
    assert cache.stats.hits + cache.stats.misses == gets
    assert cache.stats.expirations <= cache.stats.misses
