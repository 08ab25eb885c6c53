"""Ablation — subpage count vs bytes delivered to the device.

DESIGN.md §5: splitting more aggressively makes each visit cheaper (the
user fetches the snapshot plus only the subpage they want) but adds a
round trip per drill-down.  Sweeps the split granularity over the forum
entry page and reports first-visit bytes and per-task bytes.
"""

import pytest

from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.workload.reporting import format_table

from conftest import FORUM_HOST

REGIONS = [
    ("login", "#loginform"),
    ("forums", "#forumbits"),
    ("online", "#wol"),
    ("stats", "#stats"),
    ("community", "#birthdays"),
    ("events", "#calendar"),
]


def run_with_split_count(forum_app, count: int):
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    spec.add("prerender")
    for subpage_id, selector in REGIONS[:count]:
        spec.add(
            "subpage", ObjectSelector.css(selector), subpage_id=subpage_id
        )
    services = ProxyServices(origins={FORUM_HOST: forum_app})
    session = SessionManager().create()
    result = AdaptationPipeline(spec, services, session).run()
    entry_bytes = len(result.entry_html.encode("utf-8")) + result.snapshot_bytes
    subpage_bytes = [s.bytes_written for s in result.subpages]
    return entry_bytes, subpage_bytes


@pytest.fixture(scope="module")
def sweep(forum_app):
    return {
        count: run_with_split_count(forum_app, count)
        for count in (1, 3, 6)
    }


def test_ablation_regenerates(sweep):
    rows = []
    for count, (entry_bytes, subpage_bytes) in sweep.items():
        mean_subpage = (
            sum(subpage_bytes) / len(subpage_bytes) if subpage_bytes else 0
        )
        rows.append(
            [
                count,
                f"{entry_bytes:,}",
                f"{mean_subpage:,.0f}",
                f"{entry_bytes + int(mean_subpage):,}",
            ]
        )
    print("\n\nAblation: subpage granularity (first visit = entry + one "
          "drill-down)")
    print(
        format_table(
            ["subpages", "entry bytes", "mean subpage", "typical visit"],
            rows,
        )
    )


def test_entry_cost_stays_flat_as_splits_grow(sweep):
    """The snapshot menu costs the same no matter how many regions are
    mapped — splitting is free at the entry page."""
    entries = [entry for entry, __ in sweep.values()]
    assert max(entries) - min(entries) < 5_000


def test_any_single_subpage_is_far_below_full_page(sweep):
    __, subpage_bytes = sweep[6]
    assert max(subpage_bytes) < 60_000  # vs 224,477 for the full page
