"""Figure 7 — satisfied requests per one-minute window vs. the percentage
of requests requiring a full browser instance.

Paper protocol (§4.6): dual-core commodity hardware, no browser pool,
three runs per data point, one-minute windows, U[0,1] request marking.
Anchors: 224 requests at 100%, 29,038 at 0% — two orders of magnitude.
"""

import pytest

from repro.bench.scalability import (
    ScalabilityConfig,
    run_browser_percentage_sweep,
    run_scalability_experiment,
)
from repro.workload.reporting import format_series

PAPER_ANCHORS = {1.0: 224, 0.0: 29_038}


@pytest.fixture(scope="module")
def sweep():
    # The paper's protocol: 3 runs per point over one-minute windows.
    return run_browser_percentage_sweep(runs=3)


def _print_phase_histograms(result):
    for phase in sorted(result.phases):
        snap = result.phases[phase]
        if snap.count == 0:
            continue
        print(
            f"  {phase:>12}: n={snap.count:>6} "
            f"p50={snap.p50 * 1e3:8.3f}ms "
            f"p90={snap.p90 * 1e3:8.3f}ms "
            f"p99={snap.p99 * 1e3:8.3f}ms "
            f"mean={snap.mean * 1e3:8.3f}ms"
        )


def test_fig7_regenerates(sweep):
    print("\n\nFigure 7: throughput vs % of requests requiring a browser")
    print(
        format_series(
            "requests satisfied per minute (mean of 3 one-minute windows)",
            [
                (f"{r.browser_fraction:.0%}", r.mean_requests_per_minute)
                for r in sweep
            ],
        )
    )
    for result in sweep:
        print(f"per-phase service time at {result.browser_fraction:.0%}:")
        _print_phase_histograms(result)
    by_fraction = {r.browser_fraction: r for r in sweep}
    for fraction, expected in PAPER_ANCHORS.items():
        measured = by_fraction[fraction].mean_requests_per_minute
        assert measured == pytest.approx(expected, rel=0.05), fraction


def test_fig7_two_orders_of_magnitude(sweep):
    by_fraction = {r.browser_fraction: r for r in sweep}
    ratio = (
        by_fraction[0.0].mean_requests_per_minute
        / by_fraction[1.0].mean_requests_per_minute
    )
    print(f"\nimprovement at 0% vs 100%: {ratio:,.0f}x (paper: ~130x)")
    assert ratio > 100


def test_fig7_monotone_curve(sweep):
    throughputs = [r.mean_requests_per_minute for r in sweep]
    assert throughputs == sorted(throughputs)  # sweep runs 100% → 0%


@pytest.mark.smoke
def test_fig7_smoke_throughput_spread():
    """Tier-1 smoke: one short window per endpoint keeps the Figure 7
    spread (and its per-phase histogram attribution) visible without the
    full three-run sweep."""
    results = {
        fraction: run_scalability_experiment(
            ScalabilityConfig(
                browser_fraction=fraction, runs=1, window_s=10.0
            )
        )
        for fraction in (1.0, 0.0)
    }
    for fraction, result in results.items():
        print(f"\nsmoke {fraction:.0%}: "
              f"{result.mean_requests_per_minute:,.0f} req/min")
        _print_phase_histograms(result)
    ratio = (
        results[0.0].mean_requests_per_minute
        / results[1.0].mean_requests_per_minute
    )
    assert ratio > 100
    render = results[1.0].phases["render"]
    lightweight = results[0.0].phases["lightweight"]
    assert render.count > 0 and lightweight.count > 0
    assert render.mean > 100 * lightweight.mean


def test_bench_one_measurement_window(benchmark):
    """Cost of simulating one one-minute measurement window."""

    def run():
        return run_scalability_experiment(
            ScalabilityConfig(browser_fraction=0.25, runs=1)
        )

    result = benchmark(run)
    assert result.mean_requests_per_minute > 0


# ---------------------------------------------------------------------------
# Figure 7 on real threads: the concurrent runtime instead of the DES


@pytest.fixture(scope="module")
def real_sweep():
    from repro.bench.scalability import (
        ClosedLoopConfig,
        run_closed_loop_sweep,
    )

    # Scaled-down service times (the shape lives in the browser-vs-
    # lightweight ratio, not the absolute seconds); enough requests per
    # point for stable wall-clock throughput.
    # distinct_pages is large so nearly every browser-marked request
    # pays a full render, matching the paper's cache-free protocol (the
    # single-flight collapse is reported, not relied on for shape).
    return run_closed_loop_sweep(
        ClosedLoopConfig(
            total_requests=600,
            workers=8,
            client_threads=8,
            browser_service_s=0.030,
            distinct_pages=64,
        ),
        [1.0, 0.75, 0.50, 0.25, 0.10, 0.0],
    )


def test_fig7_real_threadpool_regenerates(real_sweep):
    print("\n\nFigure 7 (real thread pool): throughput vs % browser requests")
    print(
        format_series(
            "requests satisfied per minute (wall clock)",
            [
                (f"{r.browser_fraction:.0%}", r.requests_per_minute)
                for r in real_sweep
            ],
        )
    )
    for result in real_sweep:
        print(
            f"  {result.browser_fraction:>5.0%}: "
            f"renders={result.renders} "
            f"collapsed={result.stampedes_suppressed} "
            f"queue-wait mean={result.queue_wait_mean_s * 1e3:.3f}ms "
            f"max={result.queue_wait_max_s * 1e3:.3f}ms "
            f"pool-waits={result.pool_queue_waits}"
        )
        assert result.completed == 600
        assert result.rejected == result.errors == result.timeouts == 0


def test_fig7_real_threadpool_two_orders(real_sweep):
    by_fraction = {r.browser_fraction: r for r in real_sweep}
    ratio = (
        by_fraction[0.0].requests_per_minute
        / by_fraction[1.0].requests_per_minute
    )
    print(f"\nreal-thread improvement at 0% vs 100%: {ratio:,.0f}x")
    assert ratio > 100


def test_fig7_real_threadpool_reports_contention(real_sweep):
    heavy = real_sweep[0]  # 100% browser
    assert heavy.renders > 0
    assert heavy.renders + heavy.stampedes_suppressed == 600
    assert heavy.pool_queue_waits > 0  # 8 workers over 4 browser slots
