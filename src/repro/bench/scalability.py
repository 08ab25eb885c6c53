"""The Figure 7 scalability experiment.

Protocol, from §4.6 of the paper:

* simulate repeated client requests for a remote site,
* vary the percentage of requests that require instantiation of a full
  browser instance,
* commodity dual-core hardware, no thread pool of browser instances,
* three runs per data point, each over a one-minute measurement window,
* "A U[0,1] random number is assigned to each request; if the number
  exceeds the percentage being tested, the request is marked as not
  requiring a browser instance."

Result anchors: 224 satisfied requests/minute at 100% browser renders,
29,038 at 0% — "two orders of magnitude".

The experiment runs on the discrete-event simulator: a closed population
of clients issues requests back-to-back; each request occupies one of two
cores for its service time (browser launch+render, or the lightweight
proxy path); completions inside the measurement window are counted.

A second, wall-clock mode (:func:`run_real_threadpool_experiment`) drives
the same workload through the real concurrent runtime — OS threads, the
bounded-admission executor, the semaphore-bounded browser pool, and the
single-flight pre-render cache — with sleeps standing in for service
times, so Figure 7 can also be reproduced on actual thread contention
with queue-wait and stampede-suppression metrics.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.browser.costs import BrowserCostModel, DEFAULT_COST_MODEL
from repro.browser.pool import BrowserPool
from repro.core.cache import PrerenderCache
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.observability.metrics import (
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
)
from repro.runtime.executor import ConcurrentProxy
from repro.sim.metrics import Tally, WindowedCounter
from repro.sim.process import Acquire, Delay, Release, Simulation
from repro.sim.resources import Resource
from repro.sim.rng import DeterministicRandom


@dataclass
class ScalabilityConfig:
    """One experiment configuration."""

    browser_fraction: float  # 0.0 .. 1.0 of requests needing a browser
    cores: int = 2
    window_s: float = 60.0
    runs: int = 3
    client_count: int = 64  # closed-loop clients issuing back-to-back
    costs: BrowserCostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    seed: int = 0xF16_7
    use_pool: bool = False  # the paper's configuration is pool-free
    pool_size: int = 4


@dataclass
class ScalabilityResult:
    """Aggregated over the configured runs."""

    browser_fraction: float
    mean_requests_per_minute: float
    min_requests_per_minute: float
    max_requests_per_minute: float
    browser_requests: int
    lightweight_requests: int
    pool_hit_rate: float = 0.0
    # Per-phase service-time distributions ("render" vs "lightweight"),
    # merged across runs — the histogram evidence that the Figure 7 gap
    # is the render phase's doing.
    phases: dict[str, HistogramSnapshot] = field(default_factory=dict)


def _phase_histograms() -> dict[str, Histogram]:
    return {
        phase: Histogram(
            "msite_phase_service_seconds",
            "Per-request service time by pipeline phase.",
            labels={"phase": phase},
        )
        for phase in ("render", "lightweight")
    }


def run_scalability_experiment(config: ScalabilityConfig) -> ScalabilityResult:
    """Run ``config.runs`` one-minute windows and aggregate throughput."""
    if not 0.0 <= config.browser_fraction <= 1.0:
        raise ValueError("browser_fraction must be within [0, 1]")
    tally = Tally("throughput")
    browser_total = 0
    lightweight_total = 0
    pool_hits = 0.0
    phases = _phase_histograms()
    for run_index in range(config.runs):
        rng = DeterministicRandom(
            config.seed ^ (run_index * 0x9E3779B9) ^ id_hash(config)
        )
        # Each window observes into fresh histograms; merging them here
        # exercises the same bucket-wise merge /metrics relies on.
        run_phases = _phase_histograms()
        outcome = _run_window(config, rng, run_phases)
        tally.observe(outcome["satisfied"])
        browser_total += outcome["browser"]
        lightweight_total += outcome["lightweight"]
        pool_hits += outcome["pool_hit_rate"]
        for phase, histogram in run_phases.items():
            phases[phase].merge(histogram)
    return ScalabilityResult(
        browser_fraction=config.browser_fraction,
        mean_requests_per_minute=tally.mean * (60.0 / config.window_s),
        min_requests_per_minute=tally.minimum * (60.0 / config.window_s),
        max_requests_per_minute=tally.maximum * (60.0 / config.window_s),
        browser_requests=browser_total,
        lightweight_requests=lightweight_total,
        pool_hit_rate=pool_hits / config.runs,
        phases={
            phase: histogram.snapshot()
            for phase, histogram in phases.items()
        },
    )


def id_hash(config: ScalabilityConfig) -> int:
    """Stable per-configuration stream id (fraction enters the seed)."""
    return int(config.browser_fraction * 10_000) * 2_654_435_761 & 0xFFFFFFFF


def _run_window(
    config: ScalabilityConfig,
    rng: DeterministicRandom,
    phases: Optional[dict[str, Histogram]] = None,
) -> dict:
    sim = Simulation()
    cores = Resource(config.cores, name="cpu-cores")
    window = WindowedCounter(start=0.0, duration=config.window_s)
    counts = {"browser": 0, "lightweight": 0}
    pool = (
        BrowserPool(max_instances=config.pool_size, costs=config.costs)
        if config.use_pool
        else None
    )

    def client(client_id: int):
        while sim.now < config.window_s:
            # The paper's marking rule: U[0,1] > percentage means NO
            # browser needed, i.e. <= percentage means browser render.
            draw = rng.uniform()
            needs_browser = draw <= config.browser_fraction
            yield Acquire(cores)
            # Browser instances are claimed at dispatch time, once the
            # request actually starts executing on a core.
            if needs_browser:
                if pool is not None:
                    service = pool.acquire(f"user{client_id}")
                else:
                    service = config.costs.browser_request_s
            else:
                service = config.costs.lightweight_request_s
            if phases is not None:
                phases["render" if needs_browser else "lightweight"].observe(
                    service
                )
            yield Delay(service)
            if pool is not None and needs_browser:
                pool.release(f"user{client_id}")
            yield Release(cores)
            if window.record(sim.now):
                counts["browser" if needs_browser else "lightweight"] += 1

    for client_id in range(config.client_count):
        sim.spawn(client(client_id), name=f"client-{client_id}")
    sim.run(until=config.window_s)
    return {
        "satisfied": window.count,
        "browser": counts["browser"],
        "lightweight": counts["lightweight"],
        "pool_hit_rate": pool.hit_rate if pool is not None else 0.0,
    }


def run_browser_percentage_sweep(
    percentages: list[float] | None = None,
    use_pool: bool = False,
    costs: BrowserCostModel | None = None,
    runs: int = 3,
) -> list[ScalabilityResult]:
    """The Figure 7 sweep over browser-render percentages."""
    if percentages is None:
        percentages = [1.0, 0.75, 0.50, 0.25, 0.10, 0.05, 0.01, 0.0]
    results = []
    for fraction in percentages:
        config = ScalabilityConfig(
            browser_fraction=fraction,
            use_pool=use_pool,
            runs=runs,
            costs=costs or DEFAULT_COST_MODEL,
        )
        results.append(run_scalability_experiment(config))
    return results


# ---------------------------------------------------------------------------
# The real-thread-pool reproduction (wall clock, actual contention)


@dataclass
class RealThreadPoolConfig:
    """One wall-clock run through the concurrent runtime.

    Service times are scaled down from the paper's (a ~266 ms browser
    render would make the sweep take minutes); what matters for the
    Figure 7 *shape* is the ratio between the browser and lightweight
    paths, which the defaults keep at two-plus orders of magnitude.
    """

    browser_fraction: float
    workers: int = 8
    client_threads: int = 8
    total_requests: int = 400
    queue_limit: int = 0  # 0 -> sized to client_threads (no rejections)
    request_timeout_s: float | None = None
    browser_service_s: float = 0.020
    lightweight_service_s: float = 0.0
    distinct_pages: int = 8
    pool_size: int = 4
    seed: int = 0xF16_7


@dataclass
class RealThreadPoolResult:
    """What one wall-clock run measured."""

    browser_fraction: float
    requests_per_minute: float
    wall_clock_s: float
    completed: int
    rejected: int
    timeouts: int
    errors: int
    browser_requests: int
    lightweight_requests: int
    renders: int  # actual browser renders after single-flight collapse
    stampedes_suppressed: int
    queue_wait_mean_s: float
    queue_wait_max_s: float
    queue_depth_peak: int
    pool_queue_waits: int
    pool_queue_wait_mean_s: float
    pool_queue_wait_max_s: float
    # Wall-clock per-phase service histograms, measured inside the app.
    phases: dict[str, HistogramSnapshot] = field(default_factory=dict)


class _ServiceTimeApplication(Application):
    """Stands in for the generated proxy under the executor.

    Browser-marked requests render "snapshots" through the single-flight
    cache and the semaphore-bounded pool (a render = holding a pool slot
    for ``browser_service_s``); lightweight requests cost
    ``lightweight_service_s``.  Nothing is stored in the cache, so every
    non-overlapping browser request pays the full render — matching the
    paper's cache-free Figure 7 protocol — while *concurrent* misses on
    one page collapse, which is exactly what the stampede counters
    measure.
    """

    def __init__(
        self,
        browser_service_s: float,
        lightweight_service_s: float,
        pool: BrowserPool,
        cache: PrerenderCache,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.browser_service_s = browser_service_s
        self.lightweight_service_s = lightweight_service_s
        self.pool = pool
        self.cache = cache
        self.renders = 0
        self._lock = threading.Lock()
        registry = registry or MetricsRegistry()
        self.phase_histograms = {
            phase: registry.histogram(
                "msite_phase_service_seconds",
                "Per-request service time by pipeline phase.",
                labels={"phase": phase},
            )
            for phase in ("render", "lightweight")
        }

    def handle(self, request: Request) -> Response:
        page = request.params.get("page", "p0")
        if request.params.get("browser") == "1":
            started = time.perf_counter()

            def _render() -> str:
                with self.pool.instance(f"page-{page}"):
                    if self.browser_service_s > 0:
                        time.sleep(self.browser_service_s)
                with self._lock:
                    self.renders += 1
                return page

            self.cache.load_or_join(f"snap:{page}", _render)
            self.phase_histograms["render"].observe(
                time.perf_counter() - started
            )
        else:
            started = time.perf_counter()
            if self.lightweight_service_s > 0:
                time.sleep(self.lightweight_service_s)
            self.phase_histograms["lightweight"].observe(
                time.perf_counter() - started
            )
        return Response.text("ok")


def run_real_threadpool_experiment(
    config: RealThreadPoolConfig,
) -> RealThreadPoolResult:
    """Drive the marked workload through real threads and measure."""
    if not 0.0 <= config.browser_fraction <= 1.0:
        raise ValueError("browser_fraction must be within [0, 1]")
    rng = DeterministicRandom(config.seed ^ id_hash_real(config))
    # Pre-generate the paper's U[0,1] marking so the workload is
    # deterministic regardless of thread scheduling.
    marked = [
        rng.uniform() <= config.browser_fraction
        for _ in range(config.total_requests)
    ]
    requests = [
        Request.get(
            "http://proxy.local/"
            f"?page=p{index % config.distinct_pages}"
            f"&browser={'1' if needs_browser else '0'}"
        )
        for index, needs_browser in enumerate(marked)
    ]

    registry = MetricsRegistry()
    pool = BrowserPool(max_instances=config.pool_size)
    pool.bind_metrics(registry)
    cache = PrerenderCache()
    cache.bind_metrics(registry)
    app = _ServiceTimeApplication(
        browser_service_s=config.browser_service_s,
        lightweight_service_s=config.lightweight_service_s,
        pool=pool,
        cache=cache,
        registry=registry,
    )
    queue_limit = config.queue_limit or max(
        config.client_threads, config.workers
    )
    statuses: dict[int, int] = {}
    status_lock = threading.Lock()
    next_index = [0]

    with ConcurrentProxy(
        app,
        workers=config.workers,
        queue_limit=queue_limit,
        request_timeout_s=config.request_timeout_s,
        metrics=registry,
    ) as executor:

        def client() -> None:
            while True:
                with status_lock:
                    index = next_index[0]
                    if index >= len(requests):
                        return
                    next_index[0] = index + 1
                response = executor.handle(requests[index])
                with status_lock:
                    statuses[response.status] = (
                        statuses.get(response.status, 0) + 1
                    )

        threads = [
            threading.Thread(target=client, name=f"client-{i}")
            for i in range(config.client_threads)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        runtime = executor.stats.snapshot()

    completed = statuses.get(200, 0)
    return RealThreadPoolResult(
        browser_fraction=config.browser_fraction,
        requests_per_minute=completed * 60.0 / elapsed if elapsed else 0.0,
        wall_clock_s=elapsed,
        completed=completed,
        rejected=statuses.get(503, 0),
        timeouts=statuses.get(504, 0),
        errors=statuses.get(500, 0),
        browser_requests=sum(marked),
        lightweight_requests=len(marked) - sum(marked),
        renders=app.renders,
        stampedes_suppressed=cache.stats.stampedes_suppressed,
        queue_wait_mean_s=runtime.mean_queue_wait_s,
        queue_wait_max_s=runtime.queue_wait_max_s,
        queue_depth_peak=runtime.queue_depth_peak,
        pool_queue_waits=pool.stats.queue_waits,
        pool_queue_wait_mean_s=pool.stats.mean_queue_wait_s,
        pool_queue_wait_max_s=pool.stats.queue_wait_max_s,
        phases={
            phase: histogram.snapshot()
            for phase, histogram in app.phase_histograms.items()
        },
    )


def id_hash_real(config: RealThreadPoolConfig) -> int:
    """Stable per-configuration stream id, as for the simulated sweep."""
    return int(config.browser_fraction * 10_000) * 2_654_435_761 & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# The cluster reproduction (fleet of workers over one shared cache)


#: User-Agents of the cluster workload's device mix; the shard key and
#: the render key both derive the device class from the UA, exactly as
#: the real deployment does.
CLUSTER_DEVICE_AGENTS: tuple[tuple[str, str], ...] = (
    ("phone", (
        "Mozilla/5.0 (iPhone; U; CPU iPhone OS 4_0 like Mac OS X; en-us) "
        "AppleWebKit/532.9 (KHTML, like Gecko) Version/4.0.5 Mobile/8A293 "
        "Safari/6531.22.7"
    )),
    ("desktop", (
        "Mozilla/5.0 (Windows NT 6.0; WOW64) AppleWebKit/535.19 "
        "(KHTML, like Gecko) Chrome/18.0.1025.162 Safari/535.19"
    )),
)


@dataclass
class ClusterScalabilityConfig:
    """One wall-clock run through a :class:`ClusterDeployment` fleet.

    Unlike the cache-free single-proxy protocol, the cluster run keeps
    the shared cache on: the point being measured is m.Site's
    render-amortization *across the fleet* — each (page, device) pair
    is rendered exactly once no matter which worker fields the cold
    request — on top of the horizontal throughput gain.  Every request
    additionally pays ``lightweight_service_s`` of serving work, so the
    fleet-size speedup is visible at every browser fraction.
    """

    browser_fraction: float
    fleet_workers: int = 4
    worker_threads: int = 2
    client_threads: int = 16
    total_requests: int = 600
    queue_limit: int = 0  # 0 -> sized to client_threads (no rejections)
    spill_depth: int | None = None  # None -> worker_threads (steal work)
    request_timeout_s: float | None = None
    browser_service_s: float = 0.010
    lightweight_service_s: float = 0.002
    distinct_pages: int = 16
    seed: int = 0xF16_7


@dataclass
class ClusterScalabilityResult:
    """What one cluster run measured."""

    browser_fraction: float
    fleet_workers: int
    requests_per_minute: float
    wall_clock_s: float
    completed: int
    rejected: int
    timeouts: int
    errors: int
    browser_requests: int
    lightweight_requests: int
    renders: int  # fleet-total renders after shared single-flight
    unique_render_keys: int  # distinct (page, device) pairs rendered
    stampedes_suppressed: int
    spillovers: int
    offshard: int
    unrouteable: int


class _RenderLedger:
    """Fleet-shared record of which (page, device) keys were rendered."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.renders = 0
        self.keys: set[str] = set()

    def record(self, key: str) -> None:
        with self._lock:
            self.renders += 1
            self.keys.add(key)


class _ClusterServiceApplication(Application):
    """The per-worker stand-in app for the cluster sweep.

    ``services.cache`` is the *fleet-shared* cache the deployment
    attached, so a render performed on one worker is a hit (or a joined
    flight) on every other — the property the acceptance criterion
    "total renders == unique (page, device) pairs" pins down.
    """

    def __init__(
        self,
        services,
        browser_service_s: float,
        lightweight_service_s: float,
        ledger: _RenderLedger,
    ) -> None:
        self.services = services
        self.browser_service_s = browser_service_s
        self.lightweight_service_s = lightweight_service_s
        self.ledger = ledger

    def handle(self, request: Request) -> Response:
        from repro.core.detect import device_class

        page = request.params.get("page", "p0")
        if request.params.get("browser") == "1":
            device = device_class(request.headers.get("User-Agent"))
            key = f"clustersnap:{page}:{device}"

            def _render() -> str:
                if self.browser_service_s > 0:
                    time.sleep(self.browser_service_s)
                self.ledger.record(key)
                return page

            cache = self.services.cache
            if cache.get(key) is None:
                # The request path's fill: single-flight, double-checked.
                cache.load_or_join(
                    key,
                    lambda: cache.peek(key)
                    or cache.put(key, _render(), ttl_s=3600.0),
                )
        if self.lightweight_service_s > 0:
            time.sleep(self.lightweight_service_s)
        return Response.text("ok")


def id_hash_cluster(config: ClusterScalabilityConfig) -> int:
    """Stable per-configuration stream id (fraction + fleet size)."""
    return (
        int(config.browser_fraction * 10_000) * 2_654_435_761
        ^ config.fleet_workers * 0x9E3779B9
    ) & 0xFFFFFFFF


def _registry_total(registry, name: str) -> int:
    """Sum a counter family's children (labelled series included)."""
    for family in registry.collect():
        if family.name == name:
            return int(sum(m.value for m in family.sorted_children()))
    return 0


def run_cluster_experiment(
    config: ClusterScalabilityConfig,
) -> ClusterScalabilityResult:
    """Drive the marked workload through a worker fleet and measure."""
    from repro.cluster.deployment import ClusterDeployment

    if not 0.0 <= config.browser_fraction <= 1.0:
        raise ValueError("browser_fraction must be within [0, 1]")
    rng = DeterministicRandom(config.seed ^ id_hash_cluster(config))
    marked = [
        rng.uniform() <= config.browser_fraction
        for _ in range(config.total_requests)
    ]
    agents = CLUSTER_DEVICE_AGENTS
    requests = [
        Request.get(
            "http://cluster.local/"
            f"?page=p{index % config.distinct_pages}"
            f"&browser={'1' if needs_browser else '0'}",
            User_Agent=agents[
                (index // config.distinct_pages) % len(agents)
            ][1],
        )
        for index, needs_browser in enumerate(marked)
    ]

    ledger = _RenderLedger()
    queue_limit = config.queue_limit or max(
        config.client_threads, config.worker_threads
    )
    statuses: dict[int, int] = {}
    status_lock = threading.Lock()
    next_index = [0]

    with ClusterDeployment(
        origins={},
        workers=config.fleet_workers,
        worker_threads=config.worker_threads,
        queue_limit=queue_limit,
        spill_depth=(
            config.spill_depth
            if config.spill_depth is not None
            else config.worker_threads
        ),
        request_timeout_s=config.request_timeout_s,
        site="bench",
        make_app=lambda services: _ClusterServiceApplication(
            services,
            browser_service_s=config.browser_service_s,
            lightweight_service_s=config.lightweight_service_s,
            ledger=ledger,
        ),
    ) as cluster:

        def client() -> None:
            while True:
                with status_lock:
                    index = next_index[0]
                    if index >= len(requests):
                        return
                    next_index[0] = index + 1
                response = cluster.handle(requests[index])
                with status_lock:
                    statuses[response.status] = (
                        statuses.get(response.status, 0) + 1
                    )

        threads = [
            threading.Thread(target=client, name=f"cluster-client-{i}")
            for i in range(config.client_threads)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        shared_stats = cluster.shared_cache.cache.stats
        registry = cluster.registry
        spillovers = _registry_total(
            registry, "msite_cluster_spillovers_total"
        )
        offshard = _registry_total(registry, "msite_cluster_offshard_total")
        unrouteable = _registry_total(
            registry, "msite_cluster_unrouteable_total"
        )
        stampedes = shared_stats.stampedes_suppressed

    completed = statuses.get(200, 0)
    return ClusterScalabilityResult(
        browser_fraction=config.browser_fraction,
        fleet_workers=config.fleet_workers,
        requests_per_minute=completed * 60.0 / elapsed if elapsed else 0.0,
        wall_clock_s=elapsed,
        completed=completed,
        rejected=statuses.get(503, 0),
        timeouts=statuses.get(504, 0),
        errors=statuses.get(500, 0),
        browser_requests=sum(marked),
        lightweight_requests=len(marked) - sum(marked),
        renders=ledger.renders,
        unique_render_keys=len(ledger.keys),
        stampedes_suppressed=stampedes,
        spillovers=spillovers,
        offshard=offshard,
        unrouteable=unrouteable,
    )


def run_cluster_sweep(
    percentages: list[float] | None = None,
    fleet_sizes: tuple[int, ...] = (1, 4),
    **overrides,
) -> dict[int, list[ClusterScalabilityResult]]:
    """The Figure 7 sweep per fleet size.

    Returns ``{fleet_size: [result per percentage]}``; comparing the
    0%-browser rows across fleet sizes is the horizontal-scaling
    headline (acceptance: 4 workers ≥ 3x one worker), and the render
    counts in every row pin the fleet-wide single-render property.
    """
    if percentages is None:
        percentages = [1.0, 0.50, 0.25, 0.10, 0.0]
    sweep: dict[int, list[ClusterScalabilityResult]] = {}
    for fleet in fleet_sizes:
        sweep[fleet] = [
            run_cluster_experiment(
                ClusterScalabilityConfig(
                    browser_fraction=fraction,
                    fleet_workers=fleet,
                    **overrides,
                )
            )
            for fraction in percentages
        ]
    return sweep


def run_real_threadpool_sweep(
    percentages: list[float] | None = None,
    **overrides,
) -> list[RealThreadPoolResult]:
    """The Figure 7 sweep on real threads.

    ``overrides`` are forwarded to every :class:`RealThreadPoolConfig`
    (e.g. ``total_requests=2000, browser_service_s=0.05``).
    """
    if percentages is None:
        percentages = [1.0, 0.75, 0.50, 0.25, 0.10, 0.05, 0.01, 0.0]
    return [
        run_real_threadpool_experiment(
            RealThreadPoolConfig(browser_fraction=fraction, **overrides)
        )
        for fraction in percentages
    ]
