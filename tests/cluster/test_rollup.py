"""Regression: shared-cache counters must not double-count in rollups.

``ProxyServices`` binds its cache's counter *objects* into the owning
deployment's registry.  When the cache is fleet-shared, the same
counter objects land in every worker registry — so a naive
``merge_from`` over worker registries reported N× the true stampede
(and hit/miss/...) numbers on an N-worker fleet.  The fix is the
identity-deduplicating :func:`merge_unique`: each instrument object
contributes exactly once, while genuinely per-worker series still sum.
"""

from repro.cluster import ClusterDeployment, fleet_rollup, merge_unique
from repro.cluster.sharedcache import InProcessSharedCache
from repro.core.pipeline import ProxyServices
from repro.observability import Observability
from repro.observability.metrics import MetricsRegistry


def _two_workers_one_cache():
    """Two ProxyServices sharing one cache, as the cluster builds them."""
    backend = InProcessSharedCache()
    registries = []
    for worker_id in ("w0", "w1"):
        registry = MetricsRegistry()
        ProxyServices(
            origins={},
            cache=backend.attach(worker_id),
            observability=Observability(registry=registry),
        )
        registries.append(registry)
    return backend, registries


def test_naive_merge_double_counts_shared_counters():
    """The bug being regression-locked: merge_from counts shared
    instruments once per worker registry they were bound into."""
    backend, registries = _two_workers_one_cache()
    cache = backend.cache
    cache.put("k", b"v")
    cache.get("k")
    assert cache.stats.hits == 1

    naive = MetricsRegistry()
    for registry in registries:
        naive.merge_from(registry)
    hits = naive.get("msite_cache_hits_total")
    assert hits is not None
    assert hits.value == 2  # 2 workers x 1 true hit: the double count


def test_merge_unique_counts_shared_instruments_once():
    backend, registries = _two_workers_one_cache()
    cache = backend.cache
    cache.put("k", b"v")
    cache.get("k")
    cache.get("absent")
    cache.load_or_join("flight", lambda: b"x")

    rolled = merge_unique(MetricsRegistry(), registries)
    assert rolled.get("msite_cache_hits_total").value == 1
    assert rolled.get("msite_cache_misses_total").value == 1
    assert rolled.get("msite_cache_flights_total").value == 1
    assert rolled.get("msite_cache_stampedes_suppressed_total").value == 0
    # The per-tier split is bound into every worker registry too, and
    # sums to the unlabelled total.
    assert rolled.get(
        "msite_cache_tier_hits_total", labels={"tier": "memory"}
    ).value == 1


def test_merge_unique_still_sums_distinct_per_worker_series():
    registries = []
    for value in (3, 4):
        registry = MetricsRegistry()
        registry.counter("msite_executor_completed_total").inc(value)
        registry.histogram("msite_latency_seconds").observe(0.01 * value)
        registry.gauge("msite_queue_depth_peak").track_max(value)
        registries.append(registry)
    rolled = merge_unique(MetricsRegistry(), registries)
    assert rolled.get("msite_executor_completed_total").value == 7
    assert rolled.get("msite_latency_seconds").count == 2
    assert rolled.get("msite_queue_depth_peak").value == 4  # peak, not sum


def test_cluster_rollup_reports_true_shared_cache_numbers():
    """End to end: a live 3-worker cluster's /metrics rollup shows the
    shared cache's true counters, not 3x them."""
    from repro.net.messages import Request

    with ClusterDeployment(
        origins={},
        workers=3,
        site="rollup",
        make_app=lambda services: _CountingApp(services),
    ) as cluster:
        for index in range(6):
            response = cluster.handle(
                Request.get(f"http://rollup.local/?page=p{index % 2}")
            )
            assert response.status == 200
        true_hits = cluster.shared_cache.cache.stats.hits
        true_stores = cluster.shared_cache.cache.stats.stores
        rolled = cluster.rollup()
        assert rolled.get("msite_cache_hits_total").value == true_hits
        assert rolled.get("msite_cache_stores_total").value == true_stores
        # Per-scrape freshness: rolling up twice must not accumulate.
        again = cluster.rollup()
        assert again.get("msite_cache_hits_total").value == true_hits


class _CountingApp:
    def __init__(self, services):
        self.services = services

    def handle(self, request):
        from repro.net.messages import Response

        page = request.params.get("page", "p0")
        cache, key = self.services.cache, f"snap:{page}"
        if cache.get(key) is None:
            cache.load_or_join(
                key, lambda: cache.peek(key) or cache.put(key, page)
            )
        return Response.text("ok")
