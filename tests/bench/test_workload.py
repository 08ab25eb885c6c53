"""The §4.1 day harness (``run_workload``) on a one-visit day."""

from repro.bench.workload import WorkloadConfig, run_workload
from repro.sites.forum.app import ForumApplication
from repro.sites.forum.spec import FORUM_HOST, forum_demo_spec


def test_run_workload_leaves_a_passed_spec_unchanged():
    spec = forum_demo_spec()
    spec.snapshot_ttl_s = 60.0
    before = spec.to_dict()
    report = run_workload(
        {FORUM_HOST: ForumApplication()},
        FORUM_HOST,
        WorkloadConfig(visits=1, subpages_per_visit=(1, 1)),
        spec,
    )
    assert report.visits == 1 and report.errors == 0
    assert spec.to_dict() == before
