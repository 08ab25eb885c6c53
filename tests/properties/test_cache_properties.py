"""Model-based properties of the pre-render cache.

Hypothesis drives interleaved store / get / clock-advance / invalidate
sequences against both the real :class:`PrerenderCache` and a
transparent reference model, checking after every operation that

* total bytes never exceed the configured budget,
* every ``get`` answers exactly what the model predicts (freshness
  boundary included),
* the statistics stay internally consistent (hits+misses == lookups,
  expirations and evictions never exceed stores).

Part of the cache contract: runs here over ``[memory]`` and again,
re-collected by ``tests/cluster/contract_disk``, over ``[memory, disk]``
— where the model also holds that eviction from memory is not a loss
(a flushed entry is answered again, by promotion, from the tier below).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.clock import Clock

# ``make_cache`` is a stateless factory: every example builds its own
# cache inside the test body, so the function-scoped fixture is safe.
_FACTORY_OK = [HealthCheck.function_scoped_fixture]

KEYS = ("alpha", "beta", "gamma", "delta")
MAX_BYTES = 120

_op = st.one_of(
    st.tuples(
        st.just("put"),
        st.sampled_from(KEYS),
        st.integers(min_value=0, max_value=60),
        st.sampled_from((0.0, 1.0, 5.0, 1000.0)),
    ),
    st.tuples(st.just("get"), st.sampled_from(KEYS)),
    st.tuples(st.just("advance"), st.sampled_from((0.5, 1.0, 2.0, 10.0))),
    st.tuples(st.just("invalidate"), st.sampled_from(KEYS)),
)


class _Model:
    """Reference semantics: same freshness rule, same oldest-first
    eviction the cache documents.  With ``durable`` (a tier below
    memory, flushed after every store) what memory evicts is kept in
    ``below`` and read back through on the next lookup."""

    def __init__(self, durable=False):
        self.now = 0.0
        self.entries = {}  # key -> (data, stored_at, ttl_s)
        self.durable = durable
        self.below = {}  # the lower tier, same shape
        self.retired = set()  # expired in memory: memory has an opinion
        self.promotions = 0

    def _fresh(self, entry):
        __, stored_at, ttl_s = entry
        return ttl_s > 0 and self.now - stored_at < ttl_s

    def _store(self, key, entry):
        self.entries[key] = entry
        self.retired.discard(key)
        while (
            sum(len(d) for d, *_ in self.entries.values()) > MAX_BYTES
            and self.entries
        ):
            oldest = min(
                self.entries, key=lambda k: self.entries[k][1]
            )
            del self.entries[oldest]

    def put(self, key, data, ttl_s):
        self._store(key, (data, self.now, ttl_s))
        if self.durable and key in self.entries:  # still live at flush
            self.below[key] = self.entries[key]

    def invalidate(self, key):
        self.entries.pop(key, None)
        self.below.pop(key, None)
        self.retired.discard(key)

    def get(self, key):
        if key not in self.entries and key not in self.retired:
            stored = self.below.get(key)
            if stored is not None and self._fresh(stored):
                self._store(key, stored)  # read-through promotion
                self.promotions += 1
            elif stored is not None and stored[2] > 0:
                self.retired.add(key)  # parked for the stale rung
        if key in self.entries and not self._fresh(self.entries[key]):
            if self.entries.pop(key)[2] > 0:
                self.retired.add(key)
            return None
        if key not in self.entries:
            return None
        return self.entries[key][0]

    @property
    def total_bytes(self):
        return sum(len(d) for d, *_ in self.entries.values())


@settings(max_examples=150, deadline=None, suppress_health_check=_FACTORY_OK)
@given(ops=st.lists(_op, max_size=60))
def test_cache_matches_reference_model(make_cache, ops):
    clock = Clock()
    cache = make_cache(clock=clock, max_bytes=MAX_BYTES)
    model = _Model(durable=len(cache.tiers) > 1)
    gets = puts = 0

    for step, op in enumerate(ops):
        if op[0] == "put":
            __, key, size, ttl_s = op
            data = f"{key}:{step}:".encode() + b"x" * size
            cache.put(key, data, ttl_s=ttl_s)
            cache.flush()  # write-behind made deterministic
            model.put(key, data, ttl_s)
            puts += 1
        elif op[0] == "get":
            __, key = op
            expected = model.get(key)
            entry = cache.get(key)
            if expected is None:
                assert entry is None
            else:
                assert entry is not None
                assert entry.data == expected
            gets += 1
        elif op[0] == "advance":
            clock.advance(op[1])
            model.now += op[1]
        else:
            __, key = op
            cache.invalidate(key)
            model.invalidate(key)

        # Byte budget holds after every single operation.
        assert cache.total_bytes <= MAX_BYTES
        assert cache.total_bytes == model.total_bytes

    # Statistics consistency over the whole run.
    stats = cache.stats
    assert stats.hits + stats.misses == gets
    assert stats.stores == puts
    assert stats.expirations <= gets
    assert stats.evictions <= puts + model.promotions
    assert len(cache) == len(model.entries)


@settings(max_examples=80, deadline=None, suppress_health_check=_FACTORY_OK)
@given(
    ttl_s=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    elapsed=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)
def test_freshness_boundary_property(make_cache, ttl_s, elapsed):
    """fresh ⇔ (ttl_s > 0 and elapsed < ttl_s), for any ttl/elapsed."""
    clock = Clock()
    cache = make_cache(clock=clock)
    cache.put("k", b"v", ttl_s=ttl_s)
    clock.advance(elapsed)
    served = cache.get("k") is not None
    assert served == (ttl_s > 0 and elapsed < ttl_s)


@settings(max_examples=60, deadline=None, suppress_health_check=_FACTORY_OK)
@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=80), min_size=1, max_size=20
    )
)
def test_eviction_keeps_newest_within_budget(make_cache, sizes):
    """After any put sequence, the entries surviving *in memory* are a
    suffix of the insertion order (oldest-first eviction) and fit the
    budget."""
    clock = Clock()
    cache = make_cache(clock=clock, max_bytes=MAX_BYTES)
    for index, size in enumerate(sizes):
        cache.put(f"k{index}", b"x" * size, ttl_s=1000.0)
        clock.advance(1.0)
    assert cache.total_bytes <= MAX_BYTES
    survivors = [
        index for index in range(len(sizes)) if cache.peek(f"k{index}")
    ]
    if survivors:
        # Contiguous suffix: everything older than the oldest survivor
        # is gone, nothing newer was sacrificed in its place.
        assert survivors == list(range(survivors[0], len(sizes)))
    assert cache.stats.evictions == len(sizes) - len(survivors)
