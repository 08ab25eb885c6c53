"""The Figure 7 experiment harness."""

import pytest

from repro.bench.scalability import (
    ScalabilityConfig,
    run_browser_percentage_sweep,
    run_scalability_experiment,
)


def quick(fraction, **overrides):
    defaults = dict(browser_fraction=fraction, runs=1, window_s=10.0)
    defaults.update(overrides)
    return ScalabilityConfig(**defaults)


def test_all_browser_matches_paper_anchor():
    result = run_scalability_experiment(quick(1.0, window_s=60.0))
    assert result.mean_requests_per_minute == pytest.approx(224, rel=0.05)


def test_no_browser_matches_paper_anchor():
    result = run_scalability_experiment(quick(0.0, window_s=60.0))
    assert result.mean_requests_per_minute == pytest.approx(29_038, rel=0.05)


def test_two_orders_of_magnitude():
    slow = run_scalability_experiment(quick(1.0))
    fast = run_scalability_experiment(quick(0.0))
    ratio = fast.mean_requests_per_minute / slow.mean_requests_per_minute
    assert ratio > 100


def test_throughput_monotonic_in_browser_fraction():
    results = [
        run_scalability_experiment(quick(f))
        for f in (1.0, 0.5, 0.25, 0.1, 0.0)
    ]
    throughputs = [r.mean_requests_per_minute for r in results]
    assert throughputs == sorted(throughputs)


def test_request_mix_respects_fraction():
    result = run_scalability_experiment(quick(0.5, window_s=30.0))
    total = result.browser_requests + result.lightweight_requests
    share = result.browser_requests / total
    assert 0.4 < share < 0.6


def test_deterministic_given_seed():
    a = run_scalability_experiment(quick(0.25))
    b = run_scalability_experiment(quick(0.25))
    assert a.mean_requests_per_minute == b.mean_requests_per_minute


def test_runs_aggregate_min_max():
    result = run_scalability_experiment(quick(0.5, runs=3))
    assert (
        result.min_requests_per_minute
        <= result.mean_requests_per_minute
        <= result.max_requests_per_minute
    )


def test_fraction_bounds():
    with pytest.raises(ValueError):
        run_scalability_experiment(quick(1.5))


def test_pool_improves_browser_heavy_load():
    bare = run_scalability_experiment(quick(1.0))
    pooled = run_scalability_experiment(quick(1.0, use_pool=True))
    assert (
        pooled.mean_requests_per_minute > bare.mean_requests_per_minute
    )
    assert pooled.pool_hit_rate > 0.5


def test_pool_irrelevant_when_no_browsers():
    bare = run_scalability_experiment(quick(0.0))
    pooled = run_scalability_experiment(quick(0.0, use_pool=True))
    assert pooled.mean_requests_per_minute == pytest.approx(
        bare.mean_requests_per_minute, rel=0.02
    )


def test_sweep_covers_requested_points():
    results = run_browser_percentage_sweep(
        percentages=[1.0, 0.5, 0.0], runs=1
    )
    assert [r.browser_fraction for r in results] == [1.0, 0.5, 0.0]


# ---------------------------------------------------------------------------
# the real-thread-pool mode (wall-clock smoke; the full two-orders run
# lives in benchmarks/)


def test_real_threadpool_smoke():
    from repro.bench.scalability import (
        ClosedLoopConfig,
        run_closed_loop_experiment,
    )

    # The heavy side is sized so that render service time (~50 renders
    # x 20 ms over 4 slots, a sleep) dominates its wall clock, not CPU:
    # a busy machine slows the light side's CPU work without closing
    # the 3x gap.
    heavy = run_closed_loop_experiment(
        ClosedLoopConfig(
            browser_fraction=1.0,
            total_requests=80,
            workers=8,
            client_threads=8,
            browser_service_s=0.020,
        )
    )
    light = run_closed_loop_experiment(
        ClosedLoopConfig(
            browser_fraction=0.0,
            total_requests=80,
            workers=8,
            client_threads=8,
            browser_service_s=0.020,
        )
    )
    # All requests answered, none dropped.
    assert heavy.completed == light.completed == 80
    assert heavy.rejected == heavy.errors == heavy.timeouts == 0
    assert heavy.browser_requests == 80
    assert light.browser_requests == 0
    # Browser-bound load is much slower, and the contention metrics the
    # DES model can't produce are populated: slot queueing and collapsed
    # renders.
    assert light.requests_per_minute > heavy.requests_per_minute * 3
    assert 0 < heavy.renders <= 80
    assert heavy.renders + heavy.stampedes_suppressed == 80
    assert heavy.pool_queue_waits > 0
    assert light.renders == light.stampedes_suppressed == 0
    assert heavy.queue_wait_max_s >= heavy.queue_wait_mean_s


def test_real_threadpool_fraction_bounds():
    from repro.bench.scalability import (
        ClosedLoopConfig,
        run_closed_loop_experiment,
    )

    with pytest.raises(ValueError):
        run_closed_loop_experiment(ClosedLoopConfig(browser_fraction=2.0))


def test_real_threadpool_sweep_covers_points():
    from repro.bench.scalability import (
        ClosedLoopConfig,
        run_closed_loop_sweep,
    )

    results = run_closed_loop_sweep(
        ClosedLoopConfig(
            total_requests=40,
            workers=4,
            client_threads=4,
            browser_service_s=0.002,
        ),
        [1.0, 0.0],
    )
    assert [r.browser_fraction for r in results] == [1.0, 0.0]
    assert all(r.completed == 40 for r in results)


# ---------------------------------------------------------------------------
# the cluster mode: one shared render cache behind the shard router


@pytest.fixture(scope="module")
def cluster_sweep():
    from dataclasses import replace

    from repro.bench.scalability import FLEET, run_closed_loop_sweep

    # 6 ms of serving sleep per request (FLEET's is 2 ms): the 0%
    # browser runs last ~0.6 s / ~0.3 s, so a CPU stall of tens of ms on
    # a busy machine cannot close the fleet-size gap on its own.
    results = run_closed_loop_sweep(
        replace(
            FLEET, client_threads=16, total_requests=200,
            lightweight_service_s=0.006,
        ),
        [1.0, 0.0],
        fleet_sizes=(1, 2),
    )
    return {
        fleet: [r for r in results if r.fleet_workers == fleet]
        for fleet in (1, 2)
    }


def test_cluster_fleet_renders_each_page_and_device_once(cluster_sweep):
    for fleet, results in cluster_sweep.items():
        for result in results:
            assert result.completed == 200
            assert result.rejected == result.errors == result.timeouts == 0
            assert result.renders == result.unique_render_keys, (
                fleet, result.browser_fraction
            )
    # Every page was asked for on both devices when all need a browser.
    assert all(
        results[0].unique_render_keys == 32
        for results in cluster_sweep.values()
    )


def test_two_worker_fleet_beats_one_worker(cluster_sweep):
    # Serving work is a sleep, so the fleet's throughput follows its
    # thread count (measured ~1.9x); a fleet that shares one thread or
    # serialises on a lock would read ~1x.
    one, two = (cluster_sweep[fleet][-1] for fleet in (1, 2))
    assert one.browser_fraction == two.browser_fraction == 0.0
    assert two.requests_per_minute > 1.3 * one.requests_per_minute
