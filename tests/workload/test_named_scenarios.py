"""The named scenarios' smoke variants, replayed against a real fleet.

Each run starts from a warm cache, so a bare server error is a bug, not
load: every request must come back without a non-degraded 5xx, and the
p99 must stay inside ``msite workload``'s default budget.
"""

import pytest

from repro.workload import run_scenario

#: ``msite workload --p99-budget-ms``'s default.
P99_BUDGET_MS = 1000.0


@pytest.mark.parametrize("name", ["flash-crowd", "zipf-news"])
def test_smoke_scenario_is_clean_at_warm_cache(name):
    report = run_scenario(name, smoke=True)
    assert report.completed == report.requests > 0
    assert report.non_degraded_5xx == 0, report.statuses
    assert report.p99_ms <= P99_BUDGET_MS
