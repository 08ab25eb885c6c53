"""The autoscale flash crowd: an elastic fleet against a static one.

One seeded open-loop crowd (:data:`repro.bench.crowd.AUTOSCALE_SMOKE`)
is replayed against two fleets that start at one worker and one render
consumer.  The autoscaled fleet must grow, hold p99 inside the budget
and serve zero non-degraded 5xx; the static fleet of the starting size
must shed under the identical schedule, or the crowd proved nothing.
"""

import pytest

from repro.bench.crowd import (
    AUTOSCALE_SMOKE,
    format_comparison,
    run_crowd_comparison,
)


@pytest.fixture(scope="module")
def comparison():
    return run_crowd_comparison(AUTOSCALE_SMOKE)


def test_the_autoscaled_fleet_grows_under_the_crowd(comparison):
    auto = comparison.candidate
    config = comparison.config
    assert auto.peak_workers > config.start_workers, format_comparison(
        comparison
    )
    assert auto.scale_ups > 0
    assert auto.peak_workers <= config.max_workers
    assert config.start_workers <= auto.final_workers <= auto.peak_workers


def test_the_autoscaled_fleet_holds_the_crowd(comparison):
    auto = comparison.candidate
    assert auto.offered > 0
    assert auto.non_degraded_5xx == 0, format_comparison(comparison)
    assert auto.p99_ms <= comparison.config.p99_budget_ms, format_comparison(
        comparison
    )


def test_the_static_fleet_sheds_the_same_crowd(comparison):
    static = comparison.baseline
    assert static.offered == comparison.candidate.offered
    assert static.peak_workers == static.final_workers == 1
    assert static.non_degraded_5xx > 0, format_comparison(comparison)
