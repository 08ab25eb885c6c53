"""§4.1 scaled down — a morning of real traffic through the real proxy.

The paper's test site sees 2.2 million hits/day with up to 1,200 users
online.  This harness pushes a (scaled) Poisson visitor stream through
the actual MSiteProxy over simulated hours and verifies the economics
the architecture promises: browser renders amortize to roughly one per
cache-TTL window no matter how many visitors arrive, and everything else
stays on the lightweight path.
"""

import pytest

from repro.bench.workload import WorkloadConfig, run_workload
from repro.workload.reporting import format_table

from conftest import FORUM_HOST


@pytest.fixture(scope="module")
def report(forum_app):
    return run_workload(
        {FORUM_HOST: forum_app},
        FORUM_HOST,
        WorkloadConfig(visits=150, duration_hours=4.0),
    )


def test_workload_regenerates(report):
    rows = [
        ["visits", f"{report.visits:,}"],
        ["proxy requests", f"{report.requests:,}"],
        ["subpage requests", f"{report.subpage_requests:,}"],
        ["bytes to devices", f"{report.bytes_to_devices:,}"],
        ["sessions created", f"{report.sessions_created:,}"],
        ["browser renders", f"{report.browser_renders:,}"],
        ["renders/hour", f"{report.renders_per_hour:.1f}"],
        ["lightweight requests", f"{report.lightweight_requests:,}"],
        ["cache hit rate", f"{report.cache_hit_rate:.0%}"],
        ["browser core-seconds", f"{report.browser_core_seconds:.1f}"],
        ["lightweight core-seconds",
         f"{report.lightweight_core_seconds:.2f}"],
    ]
    print("\n\nWorkload: 150 visits over 4 simulated hours (scaled from "
          "2.2M hits/day)")
    print(format_table(["metric", "value"], rows))
    assert report.errors == 0


def test_renders_amortize_to_one_per_ttl_window(report):
    """~4 hours at a 1-hour TTL → about 4 browser renders, regardless
    of the 150 visits."""
    assert 3 <= report.browser_renders <= 6


def test_almost_everything_is_lightweight(report):
    assert report.lightweight_requests > report.browser_renders * 20


def test_browser_core_time_is_bounded(report):
    """The cost claim behind Figure 7, in workload terms: 4 renders cost
    about as much core time as the *hundreds* of lightweight requests
    combined — the per-request asymmetry is two orders of magnitude."""
    assert report.browser_core_seconds < 5.0
    per_render = report.browser_core_seconds / report.browser_renders
    per_light = (
        report.lightweight_core_seconds / report.lightweight_requests
    )
    assert per_render / per_light > 100


def test_per_visit_bytes_far_below_original(report):
    per_visit = report.bytes_to_devices / report.visits
    print(f"\nmean bytes per visit: {per_visit:,.0f} "
          f"(original page: 224,477)")
    assert per_visit < 120_000


def test_workload_deterministic(forum_app):
    a = run_workload(
        {FORUM_HOST: forum_app}, FORUM_HOST,
        WorkloadConfig(visits=40, duration_hours=1.0, seed=5),
    )
    b = run_workload(
        {FORUM_HOST: forum_app}, FORUM_HOST,
        WorkloadConfig(visits=40, duration_hours=1.0, seed=5),
    )
    assert a.bytes_to_devices == b.bytes_to_devices
    assert a.browser_renders == b.browser_renders
