"""Unit behaviour of the metrics substrate."""

import threading

import pytest

from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    CounterView,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        counter = Counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0.0

    def test_requires_a_name(self):
        with pytest.raises(ValueError):
            Counter("")


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.dec(2)
        gauge.inc(0.5)
        assert gauge.value == 3.5

    def test_track_max_only_raises(self):
        gauge = Gauge("g")
        gauge.track_max(4)
        gauge.track_max(2)
        assert gauge.value == 4


class TestHistogram:
    def test_observe_updates_all_aggregates(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap.count == 3
        assert snap.sum == pytest.approx(5.0)
        assert snap.min == 0.5
        assert snap.max == 3.0
        assert snap.counts == (1, 1, 1)  # <=1, <=2, overflow

    def test_boundary_value_lands_in_le_bucket(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        histogram.observe(1.0)
        assert histogram.snapshot().counts == (1, 0, 0)

    def test_empty_snapshot_is_all_zero(self):
        snap = Histogram("h").snapshot()
        assert snap.count == 0
        assert snap.sum == 0.0
        assert snap.min == 0.0 and snap.max == 0.0
        assert snap.mean == 0.0
        assert snap.quantile(0.5) == 0.0

    def test_quantiles_stay_inside_observed_range(self):
        histogram = Histogram("h")
        for value in (0.003, 0.004, 0.020, 0.020, 0.090):
            histogram.observe(value)
        snap = histogram.snapshot()
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert snap.min <= snap.quantile(q) <= snap.max

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram("h").snapshot().quantile(1.5)

    def test_merge_requires_identical_buckets(self):
        a = Histogram("h", buckets=(1.0,))
        b = Histogram("h", buckets=(2.0,))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_adds_bucketwise(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        b = Histogram("h", buckets=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap.counts == (1, 1, 1)
        assert snap.count == 3
        assert snap.min == 0.5 and snap.max == 9.0

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_explicit_inf_terminator_is_accepted(self):
        histogram = Histogram("h", buckets=(1.0, float("inf")))
        assert histogram.buckets == (1.0,)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help")
        second = registry.counter("c_total")
        assert first is second

    def test_labels_split_children(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", labels={"page": "a"})
        b = registry.counter("c_total", labels={"page": "b"})
        assert a is not b
        assert registry.get("c_total", {"page": "a"}) is a

    def test_register_is_idempotent_for_the_same_object(self):
        registry = MetricsRegistry()
        counter = Counter("c_total")
        assert registry.register(counter) is counter
        assert registry.register(counter) is counter

    def test_register_rejects_distinct_object_with_same_identity(self):
        registry = MetricsRegistry()
        registry.register(Counter("c_total"))
        with pytest.raises(ValueError):
            registry.register(Counter("c_total"))

    def test_register_rejects_kind_clash(self):
        registry = MetricsRegistry()
        registry.register(Counter("x"))
        with pytest.raises(ValueError):
            registry.register(Gauge("x"))

    def test_shared_object_means_shared_numbers(self):
        # The bind() pattern CounterView uses: the same Counter object
        # registered into a deployment registry shows the
        # struct's increments with no copying.
        private = MetricsRegistry()
        counter = private.counter("c_total")
        shared = MetricsRegistry()
        shared.register(counter)
        counter.inc(7)
        assert shared.get("c_total").value == 7

    def test_total_sums_labelled_children_and_is_zero_when_absent(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels={"page": "b"}).inc(2)
        registry.counter("c_total", labels={"page": "a"}).inc(3)
        registry.counter("c_total").inc(0.5)
        registry.counter("other_total").inc(100)
        assert registry.total("c_total") == 5.5
        pages = [m.labels.get("page") for m in registry.children("c_total")]
        assert pages == [None, "a", "b"]
        assert registry.total("missing_total") == 0
        assert registry.children("missing_total") == []

    def test_collect_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total")
        registry.counter("a_total")
        assert [f.name for f in registry.collect()] == ["a_total", "b_total"]

    def test_merge_from_folds_every_kind(self):
        ours = MetricsRegistry()
        theirs = MetricsRegistry()
        theirs.counter("c_total").inc(2)
        theirs.gauge("g").track_max(5)
        theirs.histogram("h").observe(0.5)
        ours.counter("c_total").inc(1)
        ours.merge_from(theirs)
        assert ours.get("c_total").value == 3
        assert ours.get("g").value == 5
        assert ours.get("h").count == 1

    def test_default_buckets_cover_lightweight_to_mobile_loads(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 30.0


class _Tally(CounterView):
    FIELDS = {
        "hits": ("t_hits_total", "Hits."),
        "busy_seconds": ("t_busy_seconds", "Seconds busy."),
    }

    def __init__(self, registry=None, labels=None, **initial):
        registry = registry or MetricsRegistry()
        super().__init__(registry, labels, **initial)
        self.depth = self._own(registry.gauge("t_depth", "Depth."))


class TestCounterView:
    def test_table_becomes_instruments(self):
        registry = MetricsRegistry()
        _Tally(registry, labels={"page": "a"})
        hits = registry.get("t_hits_total", labels={"page": "a"})
        assert isinstance(hits, Counter)
        assert hits.help_text == "Hits."
        assert hits.labels == {"page": "a"}
        busy = registry.get("t_busy_seconds", labels={"page": "a"})
        assert busy.help_text == "Seconds busy."

    def test_seconds_fields_read_as_float_and_the_rest_as_int(self):
        tally = _Tally()
        tally.record("hits")
        tally.record("hits", 2)
        tally.add(hits=1, busy_seconds=0.25)
        assert tally.hits == 4 and isinstance(tally.hits, int)
        assert tally.busy_seconds == 0.25
        assert isinstance(tally.busy_seconds, float)
        assert tally.values() == {"hits": 4, "busy_seconds": 0.25}
        assert repr(tally) == "_Tally(hits=4, busy_seconds=0.25)"

    def test_initial_values(self):
        tally = _Tally(hits=3, busy_seconds=1.5)
        assert tally.values() == {"hits": 3, "busy_seconds": 1.5}
        with pytest.raises(TypeError):
            _Tally(bogus=1)

    def test_unknown_field_is_refused_whole(self):
        tally = _Tally()
        with pytest.raises(TypeError, match="bogus"):
            tally.add(hits=1, bogus=1)
        assert tally.hits == 0  # nothing was applied
        with pytest.raises(AttributeError):
            tally.bogus
        with pytest.raises(KeyError):
            tally.record("bogus")

    def test_attribute_reads_before_init_do_not_recurse(self):
        # copy / pickle probe attributes on an uninitialised instance.
        with pytest.raises(AttributeError):
            _Tally.__new__(_Tally).hits

    def test_bind_shares_the_instruments_it_owns(self):
        tally = _Tally()
        shared = MetricsRegistry()
        tally.bind(shared)
        tally.bind(shared)  # idempotent
        tally.depth.set(7)
        assert shared.get("t_depth") is tally.depth
        assert [f.name for f in shared.collect()] == [
            "t_busy_seconds", "t_depth", "t_hits_total",
        ]

    def test_sixteen_thread_hammer_view_and_registry_agree(self):
        tally = _Tally()
        shared = MetricsRegistry()
        tally.bind(shared)
        barrier = threading.Barrier(16)

        def hammer():
            barrier.wait(timeout=5.0)
            for _ in range(200):
                tally.record("hits")
                tally.add(hits=1, busy_seconds=0.5)

        threads = [threading.Thread(target=hammer) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert tally.hits == 16 * 200 * 2
        assert shared.get("t_hits_total").value == tally.hits
        assert shared.get("t_busy_seconds").value == tally.busy_seconds
        assert tally.busy_seconds == 16 * 200 * 0.5
