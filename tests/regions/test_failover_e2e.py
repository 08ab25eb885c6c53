"""End-to-end regional behavior over the real adaptation pipeline.

The acceptance criteria from the multi-region design land here: warm
failover serves the replicated snapshot byte-identically, a partition →
origin mutation → heal sequence yields zero stale serves, and a full
fleet restart warm-starts at least 90% of the working set from disk.
"""

import pytest

from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.net.messages import Request
from repro.regions.chaos import run_region_chaos
from repro.regions.deployment import RegionalDeployment
from repro.resilience.policy import REMOTE_REGION
from repro.sites.forum.app import ForumApplication
from repro.sites.forum.spec import FORUM_HOST, forum_demo_spec

HOST = "m.sawmillcreek.org"
BASE = f"http://{HOST}/proxy.php"
FORUMS = BASE + "?page=forums"
IMAGE = BASE + "?file=snapshot.jpg"


def _forum_spec():
    """The built-in SawmillCreek spec plus a fresh origin map."""
    return forum_demo_spec(), {FORUM_HOST: ForumApplication()}


@pytest.fixture()
def rig(tmp_path):
    spec, origins = _forum_spec()
    with RegionalDeployment(
        snapshot_root=str(tmp_path), spec=spec, origins=origins
    ) as deployment:
        client = HttpClient({HOST: deployment}, jar=CookieJar())
        yield deployment, client, origins


def _forum_app(origins):
    return next(iter(origins.values()))


def _flush_all(deployment):
    for region in deployment.regions:
        region.backend.flush()


def test_warm_failover_serves_replicated_snapshot(rig):
    deployment, client, _ = rig
    warm = client.get(FORUMS)
    owner = warm.headers.get("X-MSite-Region")
    _flush_all(deployment)  # replication rides the persist path

    deployment.kill(owner)
    failed_over = client.get(FORUMS)
    assert failed_over.status == 200
    assert failed_over.headers.get("X-MSite-Region") != owner
    assert failed_over.headers.get("X-MSite-Failover-From") == owner
    assert failed_over.headers.get("X-MSite-Degraded") == REMOTE_REGION
    # Warm: the survivor served the replicated snapshot, not a re-render.
    assert failed_over.body == warm.body


def test_partition_mutate_heal_yields_zero_stale_serves(rig):
    """The snapshot image is the cacheable content-dependent artifact:
    a region that missed the REFRESH while partitioned must purge its
    replicated copy on heal and re-render, never serve the old bytes."""
    deployment, client, origins = rig
    old_image = client.get(IMAGE)
    owner = old_image.headers.get("X-MSite-Region")
    other = next(
        name for name in deployment.region_names if name != owner
    )
    _flush_all(deployment)  # replicate the old snapshot into the peer

    deployment.partition(other)
    _forum_app(origins).community.announcement = "BREAKING: origin changed"
    refreshed = client.get(BASE + "?refresh=1")
    assert refreshed.headers.get("X-MSite-Region") == owner
    new_image = client.get(IMAGE)
    assert new_image.body != old_image.body  # the owner re-rendered

    # The partitioned region still serves its (stale) replicated copy.
    stale = deployment.region(other).cluster.handle(Request.get(IMAGE))
    assert stale.body == old_image.body

    deployment.heal(other)
    assert (
        deployment.region(other).acked_seq == deployment.log.head_seq
    )
    # Zero stale serves: every region now renders the mutated origin.
    for region in deployment.regions:
        response = region.cluster.handle(Request.get(IMAGE))
        assert response.status == 200
        assert response.body == new_image.body, region.name


def test_partitioned_owner_buffered_refresh_replays_on_heal(rig):
    deployment, client, origins = rig
    old_image = client.get(IMAGE)
    owner = old_image.headers.get("X-MSite-Region")
    _flush_all(deployment)

    # This time the *serving* region is the partitioned one: its
    # refresh event buffers locally and must replay outward on heal.
    deployment.partition(owner)
    _forum_app(origins).community.announcement = "buffered while away"
    refreshed = client.get(BASE + "?refresh=1")
    assert refreshed.headers.get("X-MSite-Region") == owner
    assert deployment.region(owner).pending  # buffered, not published
    new_image = client.get(IMAGE)
    assert new_image.body != old_image.body

    deployment.heal(owner)
    assert deployment.region(owner).pending == []
    for region in deployment.regions:
        response = region.cluster.handle(Request.get(IMAGE))
        assert response.body == new_image.body, region.name


def test_full_fleet_restart_warm_starts_working_set(tmp_path):
    spec, origins = _forum_spec()
    root = str(tmp_path)
    paths = ("", "?page=forums", "?page=login", "?file=snapshot.jpg")
    with RegionalDeployment(
        snapshot_root=root, spec=spec, origins=origins
    ) as deployment:
        client = HttpClient({HOST: deployment}, jar=CookieJar())
        for suffix in paths:
            assert client.get(BASE + suffix).status == 200
        working_set = {
            region.name: region.backend.cache.keys()
            for region in deployment.regions
        }
        total = sum(len(keys) for keys in working_set.values())
        assert total > 0
    # close() flushed every region's write-behind queue to disk.
    with RegionalDeployment(
        snapshot_root=root, spec=spec, origins=origins
    ) as restarted:
        restored = sum(
            1
            for name, keys in working_set.items()
            for key in keys
            if restarted.region(name).backend.cache.peek(key)
            is not None
        )
        assert restored / total >= 0.9, (restored, total)
        assert sum(
            region.backend.preloaded for region in restarted.regions
        ) >= restored
        # And the restart actually serves from the restored tier.
        client = HttpClient({HOST: restarted}, jar=CookieJar())
        assert client.get(BASE).status == 200


def test_region_chaos_smoke_acceptance(tmp_path):
    report = run_region_chaos(
        seed=7, requests=48, snapshot_root=str(tmp_path)
    )
    assert report.total == 48
    assert report.non_degraded_5xx == 0
    assert report.ok_fraction == 1.0
    assert report.failovers > 0
    assert report.replay_caught_up
    assert not report.failed
