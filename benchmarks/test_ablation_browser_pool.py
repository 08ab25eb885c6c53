"""Ablation — what would a browser pool have bought?

§4.6: the paper's tests "do not make use of a thread pool of browser
instances.  Using a browser pool can potentially violate security
assumptions if shared by multiple clients."  This ablation runs the
Figure 7 sweep both ways and prices the security decision, including the
leak exposure a pool would create.
"""

import pytest

from repro.bench.scalability import (
    ScalabilityConfig,
    run_browser_percentage_sweep,
    run_scalability_experiment,
)
from repro.workload.reporting import format_table


@pytest.fixture(scope="module")
def both_sweeps():
    percentages = [1.0, 0.5, 0.25, 0.1, 0.0]
    return (
        run_browser_percentage_sweep(percentages, runs=2),
        run_browser_percentage_sweep(percentages, use_pool=True, runs=2),
    )


def test_ablation_regenerates(both_sweeps):
    no_pool, pooled = both_sweeps
    rows = []
    for bare, pool in zip(no_pool, pooled):
        gain = (
            pool.mean_requests_per_minute / bare.mean_requests_per_minute
        )
        rows.append(
            [
                f"{bare.browser_fraction:.0%}",
                f"{bare.mean_requests_per_minute:,.0f}",
                f"{pool.mean_requests_per_minute:,.0f}",
                f"{gain:.2f}x",
            ]
        )
    print("\n\nAblation: the browser pool the paper declined")
    print(
        format_table(
            ["browser %", "no pool (paper)", "pooled", "gain"], rows
        )
    )


def test_pool_gain_is_bounded_by_launch_share(both_sweeps):
    """A pool only saves the launch portion (~65%) of browser cost, so
    even at 100% browser load the gain is < 3x — far from closing the
    two-orders gap to the lightweight path.  The paper's architecture
    (avoid the browser) dominates the pool it declined."""
    no_pool, pooled = both_sweeps
    bare_100 = no_pool[0].mean_requests_per_minute
    pooled_100 = pooled[0].mean_requests_per_minute
    lightweight = no_pool[-1].mean_requests_per_minute
    assert pooled_100 / bare_100 < 3.5
    assert lightweight / pooled_100 > 30


def test_pool_leak_exposure_counted():
    result = run_scalability_experiment(
        ScalabilityConfig(
            browser_fraction=1.0, runs=1, window_s=20.0, use_pool=True
        )
    )
    # Every pooled hit across users risked state leakage; the counter
    # makes the security cost visible.
    assert result.pool_hit_rate > 0.5


def test_pool_useless_at_lightweight_end(both_sweeps):
    no_pool, pooled = both_sweeps
    assert pooled[-1].mean_requests_per_minute == pytest.approx(
        no_pool[-1].mean_requests_per_minute, rel=0.02
    )
