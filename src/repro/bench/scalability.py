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

A second, wall-clock mode (:func:`run_closed_loop_experiment`) drives
the same workload through the real concurrent runtime — OS threads, the
bounded-admission executor, the semaphore-bounded browser pool, and the
single-flight pre-render cache, or a whole worker fleet over one shared
cache — with sleeps standing in for service times, so Figure 7 can also
be reproduced on actual thread contention with queue-wait and
stampede-suppression metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.browser.costs import BrowserCostModel, DEFAULT_COST_MODEL
from repro.browser.pool import BrowserPool
from repro.cluster.deployment import ClusterDeployment
from repro.core.cache import PrerenderCache
from repro.observability.metrics import Histogram, HistogramSnapshot
from repro.runtime.executor import ConcurrentProxy
from repro.sim.process import Acquire, Delay, Release, Simulation
from repro.sim.resources import Resource
from repro.sim.rng import DeterministicRandom
from repro.workload.population import DESKTOP_UA, PHONE_UA
from repro.workload.replay import (
    RenderLedger,
    SyntheticRenderApp,
    browser_marked,
    marked_requests,
    phase_histograms,
    pool_render,
    replay_closed,
    shared_cache_render,
)


#: The paper's browser-render percentages, the sweeps' default points.
FIGURE7_PERCENTAGES = (1.0, 0.75, 0.50, 0.25, 0.10, 0.05, 0.01, 0.0)


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


def run_scalability_experiment(config: ScalabilityConfig) -> ScalabilityResult:
    """Run ``config.runs`` one-minute windows and aggregate throughput."""
    if not 0.0 <= config.browser_fraction <= 1.0:
        raise ValueError("browser_fraction must be within [0, 1]")
    satisfied = []  # per run, in run order
    browser_total = 0
    lightweight_total = 0
    pool_hits = 0.0
    phases = phase_histograms()
    for run_index in range(config.runs):
        rng = DeterministicRandom(
            config.seed ^ (run_index * 0x9E3779B9) ^ id_hash(config)
        )
        # Each window observes into fresh histograms; merging them here
        # exercises the same bucket-wise merge /metrics relies on.
        run_phases = phase_histograms()
        outcome = _run_window(config, rng, run_phases)
        satisfied.append(outcome["satisfied"])
        browser_total += outcome["browser"]
        lightweight_total += outcome["lightweight"]
        pool_hits += outcome["pool_hit_rate"]
        for phase, histogram in run_phases.items():
            phases[phase].merge(histogram)
    per_minute = 60.0 / config.window_s
    return ScalabilityResult(
        browser_fraction=config.browser_fraction,
        mean_requests_per_minute=(
            sum(satisfied) / len(satisfied) * per_minute
        ),
        min_requests_per_minute=min(satisfied) * per_minute,
        max_requests_per_minute=max(satisfied) * per_minute,
        browser_requests=browser_total,
        lightweight_requests=lightweight_total,
        pool_hit_rate=pool_hits / config.runs,
        phases={
            phase: histogram.snapshot()
            for phase, histogram in phases.items()
        },
    )


def id_hash(config) -> int:
    """Stable per-configuration stream id: the browser fraction enters
    the seed, and so does the fleet size of a config that has one.  The
    simulated and the real-thread sweeps share it."""
    fraction = int(config.browser_fraction * 10_000) * 2_654_435_761
    fleet = getattr(config, "fleet_workers", 0) * 0x9E3779B9
    return (fraction ^ fleet) & 0xFFFFFFFF


def _run_window(
    config: ScalabilityConfig,
    rng: DeterministicRandom,
    phases: Optional[dict[str, Histogram]] = None,
) -> dict:
    sim = Simulation()
    cores = Resource(config.cores, name="cpu-cores")
    # Completions inside the [0, window_s) measurement window.
    counts = {"satisfied": 0, "browser": 0, "lightweight": 0}
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
            if sim.now < config.window_s:
                counts["satisfied"] += 1
                counts["browser" if needs_browser else "lightweight"] += 1

    for client_id in range(config.client_count):
        sim.spawn(client(client_id), name=f"client-{client_id}")
    sim.run(until=config.window_s)
    return {
        **counts,
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
        percentages = FIGURE7_PERCENTAGES
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
# Figure 7 on real threads (wall clock, actual contention)


@dataclass(frozen=True)
class ClosedLoopConfig:
    """One wall-clock closed-loop run of the marked workload.

    ``fleet_workers`` picks the target.  At 0 it is one
    :class:`ConcurrentProxy` rendering through the single-flight cache
    and the semaphore-bounded browser pool, storing nothing: the
    paper's cache-free protocol.  At N it is an N-worker
    :class:`ClusterDeployment` whose workers fill one fleet-shared
    cache, so the run measures render amortization *across the fleet*
    (each (page, device) pair rendered exactly once, whichever worker
    fields the cold request) on top of the horizontal throughput gain.

    Service times are scaled down from the paper's (a ~266 ms browser
    render would make the sweep take minutes); what matters for the
    Figure 7 *shape* is the ratio between the browser and lightweight
    paths, which the defaults keep at two-plus orders of magnitude.
    """

    browser_fraction: float = 1.0
    fleet_workers: int = 0
    workers: int = 8  # request threads per proxy
    client_threads: int = 8
    total_requests: int = 400
    queue_limit: int = 0  # 0 -> sized to client_threads (no rejections)
    request_timeout_s: float | None = None
    browser_service_s: float = 0.020
    lightweight_service_s: float = 0.0
    distinct_pages: int = 8
    pool_size: int = 4  # browser slots of the one-proxy target
    seed: int = 0xF16_7


#: The cluster sweep's shape (``msite scalability --workers N``): every
#: request additionally pays ``lightweight_service_s`` of serving work,
#: so the fleet-size speedup is visible at every browser fraction.
FLEET = ClosedLoopConfig(
    fleet_workers=4,
    workers=2,
    client_threads=16,
    total_requests=600,
    browser_service_s=0.010,
    lightweight_service_s=0.002,
    distinct_pages=16,
)


@dataclass
class ClosedLoopResult:
    """What one closed-loop run measured.  A field the target does not
    have stays 0."""

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
    renders: int  # actual browser renders after single-flight collapse
    unique_render_keys: int  # distinct pages (per device on a fleet)
    stampedes_suppressed: int
    # The one-proxy target: its admission queue and browser pool.
    queue_wait_mean_s: float = 0.0
    queue_wait_max_s: float = 0.0
    queue_depth_peak: int = 0
    pool_queue_waits: int = 0
    # A fleet: its shard router's counters.
    spillovers: int = 0
    offshard: int = 0
    unrouteable: int = 0


def _on_one_proxy(config: ClosedLoopConfig, requests, ledger) -> tuple:
    pool = BrowserPool(max_instances=config.pool_size)
    cache = PrerenderCache()
    app = SyntheticRenderApp(
        pool_render(pool, cache, ledger),
        config.browser_service_s,
        config.lightweight_service_s,
    )
    with ConcurrentProxy(
        app,
        workers=config.workers,
        queue_limit=(
            config.queue_limit or max(config.client_threads, config.workers)
        ),
        request_timeout_s=config.request_timeout_s,
    ) as executor:
        replayed = replay_closed(
            executor.handle, requests, config.client_threads
        )
        runtime = executor.stats.snapshot()
    return replayed, dict(
        stampedes_suppressed=cache.stats.stampedes_suppressed,
        queue_wait_mean_s=runtime.mean_queue_wait_s,
        queue_wait_max_s=runtime.queue_wait_max_s,
        queue_depth_peak=runtime.queue_depth_peak,
        pool_queue_waits=pool.stats.queue_waits,
    )


def _on_a_fleet(config: ClosedLoopConfig, requests, ledger) -> tuple:
    """The shard key and the render key both derive the device class
    from the User-Agent, exactly as the real deployment does."""
    with ClusterDeployment(
        origins={},
        workers=config.fleet_workers,
        worker_threads=config.workers,
        queue_limit=(
            config.queue_limit or max(config.client_threads, config.workers)
        ),
        spill_depth=config.workers,
        request_timeout_s=config.request_timeout_s,
        site="bench",
        make_app=lambda services: SyntheticRenderApp(
            shared_cache_render(
                services.cache, ledger, config.lightweight_service_s
            ),
            config.browser_service_s,
            config.lightweight_service_s,
        ),
    ) as cluster:
        replayed = replay_closed(
            cluster.handle, requests, config.client_threads
        )
        counts = {
            name: int(cluster.registry.total(f"msite_cluster_{name}_total"))
            for name in ("spillovers", "offshard", "unrouteable")
        }
        cache = cluster.shared_cache.cache
        counts["stampedes_suppressed"] = cache.stats.stampedes_suppressed
    return replayed, counts


def run_closed_loop_experiment(config: ClosedLoopConfig) -> ClosedLoopResult:
    """Drive the marked workload through real threads and measure.

    On one proxy nothing is stored, so every non-overlapping browser
    request pays the full render while *concurrent* misses on one page
    collapse — exactly what the stampede counters measure.  On a fleet
    the acceptance criterion is "total renders == unique (page, device)
    pairs".
    """
    fleet = config.fleet_workers
    requests = marked_requests(
        "cluster.local" if fleet else "proxy.local",
        config.total_requests,
        config.browser_fraction,
        config.distinct_pages,
        DeterministicRandom(config.seed ^ id_hash(config)),
        agents=(PHONE_UA, DESKTOP_UA) if fleet else (),
    )
    ledger = RenderLedger()
    target = _on_a_fleet if fleet else _on_one_proxy
    replayed, counts = target(config, requests, ledger)
    completed = replayed.statuses.get(200, 0)
    elapsed = replayed.wall_clock_s
    browser_requests = browser_marked(requests)
    return ClosedLoopResult(
        browser_fraction=config.browser_fraction,
        fleet_workers=fleet,
        requests_per_minute=completed * 60.0 / elapsed if elapsed else 0.0,
        wall_clock_s=elapsed,
        completed=completed,
        rejected=replayed.statuses.get(503, 0),
        timeouts=replayed.statuses.get(504, 0),
        errors=replayed.statuses.get(500, 0),
        browser_requests=browser_requests,
        lightweight_requests=len(requests) - browser_requests,
        renders=ledger.renders,
        unique_render_keys=len(ledger.keys),
        **counts,
    )


def run_closed_loop_sweep(
    shape: ClosedLoopConfig = ClosedLoopConfig(),
    percentages: list[float] | None = None,
    fleet_sizes: tuple[int, ...] | None = None,
) -> list[ClosedLoopResult]:
    """The Figure 7 sweep on real threads: ``shape`` at each browser
    percentage (the paper's by default), once per fleet size (default:
    ``shape.fleet_workers``), fleet-major.

    Comparing the lowest-fraction rows across fleet sizes is the
    horizontal-scaling headline; the render counts in every fleet row
    pin the fleet-wide single-render property.
    """
    if percentages is None:
        percentages = FIGURE7_PERCENTAGES
    return [
        run_closed_loop_experiment(
            replace(shape, browser_fraction=fraction, fleet_workers=fleet)
        )
        for fleet in fleet_sizes or (shape.fleet_workers,)
        for fraction in percentages
    ]
