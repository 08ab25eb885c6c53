"""The regional front end: affinity routing, warm failover, CDC replay.

These tests use a trivial per-worker app so they exercise exactly the
regional layer — routing, health probes, the pump/replay machinery —
without the cost of real adaptation.  The full-pipeline behavior lives
in ``test_failover_e2e.py``.
"""

import json

import pytest

from repro.net.messages import Request, Response
from repro.regions.deployment import RegionalDeployment
from repro.resilience.policy import REMOTE_REGION


class EchoApp:
    """Serves the request path back; enough to drive routing."""

    def __init__(self, services):
        self.services = services

    def forget_adapted(self):
        pass

    def handle(self, request):
        return Response.text(f"echo:{request.url.query}")


@pytest.fixture()
def deployment(tmp_path):
    with RegionalDeployment(
        regions=("east", "west"),
        snapshot_root=str(tmp_path),
        site="echo",
        make_app=EchoApp,
        workers_per_region=2,
    ) as regional:
        yield regional


def _get(deployment, url, **headers):
    return deployment.handle(Request.get(url, **headers))


def _counter_sum(registry, name):
    family = next(
        (f for f in registry.collect() if f.name == name), None
    )
    if family is None:
        return 0
    return sum(int(m.value) for m in family.sorted_children())


def test_needs_two_unique_regions(tmp_path):
    with pytest.raises(ValueError):
        RegionalDeployment(regions=("solo",), site="echo")
    with pytest.raises(ValueError):
        RegionalDeployment(regions=("east", "east"), site="echo")


def test_affinity_is_sticky_and_spreads(deployment):
    url = "http://echo.local/?page=sticky"
    home = _get(deployment, url).headers.get("X-MSite-Region")
    assert home in ("east", "west")
    for _ in range(5):
        assert _get(deployment, url).headers.get(
            "X-MSite-Region"
        ) == home
    homes = {
        _get(
            deployment, f"http://echo.local/?page=k{i}"
        ).headers.get("X-MSite-Region")
        for i in range(16)
    }
    assert homes == {"east", "west"}  # both regions take traffic


def test_owner_of_matches_served_region(deployment):
    request = Request.get("http://echo.local/?page=whose")
    assert deployment.handle(request).headers.get(
        "X-MSite-Region"
    ) == deployment.owner_of(request)


def test_kill_fails_over_with_degradation_markers(deployment):
    url = "http://echo.local/?page=victim"
    owner = _get(deployment, url).headers.get("X-MSite-Region")
    other = "west" if owner == "east" else "east"
    deployment.kill(owner)
    response = _get(deployment, url)
    assert response.status == 200
    assert response.headers.get("X-MSite-Region") == other
    assert response.headers.get("X-MSite-Failover-From") == owner
    assert response.headers.get("X-MSite-Degraded") == REMOTE_REGION
    rollup = deployment.rollup()
    assert _counter_sum(rollup, "msite_region_failovers_total") == 1
    assert _counter_sum(rollup, "msite_region_reroutes_total") == 1
    assert _counter_sum(rollup, "msite_region_kills_total") == 1


def test_revive_restores_owner_routing(deployment):
    url = "http://echo.local/?page=home"
    owner = _get(deployment, url).headers.get("X-MSite-Region")
    deployment.kill(owner)
    assert _get(deployment, url).headers.get("X-MSite-Region") != owner
    deployment.revive(owner)
    response = _get(deployment, url)
    assert response.headers.get("X-MSite-Region") == owner
    assert response.headers.get("X-MSite-Degraded") is None


def test_all_regions_down_is_an_honest_503(deployment):
    deployment.kill("east")
    deployment.kill("west")
    response = _get(deployment, "http://echo.local/?page=a")
    assert response.status == 503
    assert response.headers.get("Retry-After") is not None
    assert "regions down" in response.text_body
    assert _counter_sum(
        deployment.rollup(), "msite_region_unrouteable_total"
    ) == 1


def test_regions_endpoint_reports_fleet_state(deployment):
    deployment.partition("west")
    status = json.loads(
        _get(deployment, "http://echo.local/regions").text_body
    )
    assert sorted(status["regions"]) == ["east", "west"]
    east, west = status["regions"]["east"], status["regions"]["west"]
    assert east["alive"] and east["connected"] and east["healthy"]
    assert west["alive"] and not west["connected"]
    assert "head_seq" in status["log"]
    assert set(east["workers"]) == {"east-w0", "east-w1"}
    assert east["store"]["entries"] == 0
    assert east["tiers"] == west["tiers"] == ["memory", "disk"]


def test_metrics_endpoints_expose_rollups(deployment):
    _get(deployment, "http://echo.local/?page=a")
    exposition = _get(deployment, "http://echo.local/metrics").text_body
    assert "msite_region_requests_total" in exposition
    assert "msite_cdclog_head_seq" in exposition
    assert "msite_snapshotstore_writes_total" in exposition
    regional = _get(
        deployment, "http://echo.local/metrics/east"
    ).text_body
    assert "msite_cluster_requests_total" in regional
    assert _get(
        deployment, "http://echo.local/metrics/nowhere"
    ).status == 404


def test_invalidation_replays_into_peer_region(deployment):
    east = deployment.region("east")
    west = deployment.region("west")
    for region in (east, west):
        region.backend.cache.put("snap:echo:/:page", b"v1", ttl_s=60.0)
    east.backend.invalidate("snap:echo:/:page")
    # The pump appended one event and the drain applied it to west.
    assert deployment.log.head_seq == 1
    assert east.acked_seq == west.acked_seq == 1
    assert west.backend.cache.peek("snap:echo:/:page") is None
    applied = deployment.rollup().get(
        "msite_region_applied_total",
        labels={"region": "west", "kind": "invalidate"},
    )
    assert applied is not None and applied.value == 1


def test_own_events_are_not_replayed_back(deployment):
    east = deployment.region("east")
    east.backend.cache.put("snap:only-east", b"v1", ttl_s=60.0)
    east.backend.cache.put("snap:other", b"v1", ttl_s=60.0)
    east.backend.invalidate("snap:only-east")
    # East already applied its own change locally; replaying it back
    # would be wasted work (and a convergence hazard).
    assert east.acked_seq == deployment.log.head_seq
    assert east.backend.cache.peek("snap:other") is not None
    assert deployment.rollup().get(
        "msite_region_applied_total",
        labels={"region": "east", "kind": "invalidate"},
    ) is None


def test_refresh_event_purges_site_scoped_keys_remotely(deployment):
    from repro.cluster.sharedcache import REFRESH, InvalidationEvent

    west = deployment.region("west")
    west.backend.cache.put("snap:echo:/:phone", b"page", ttl_s=60.0)
    west.backend.cache.put("fastpath:echo:/x", b"fast", ttl_s=60.0)
    west.backend.cache.put("snap:othersite:/:phone", b"keep", ttl_s=60.0)
    # A ?refresh=1 inside east's cluster publishes a routing-key event.
    deployment.region("east").backend.bus.publish(
        InvalidationEvent(REFRESH, "echo:/|page:phone")
    )
    assert west.backend.cache.peek("snap:echo:/:phone") is None
    assert west.backend.cache.peek("fastpath:echo:/x") is None
    assert west.backend.cache.peek("snap:othersite:/:phone") is not None


def test_partitioned_region_misses_events_until_heal(deployment):
    east = deployment.region("east")
    west = deployment.region("west")
    west.backend.cache.put("snap:stale", b"old", ttl_s=60.0)
    deployment.partition("west")
    east.backend.cache.put("snap:stale", b"old", ttl_s=60.0)
    east.backend.invalidate("snap:stale")
    # West is cut off: it still serves its local copy.
    assert west.backend.cache.peek("snap:stale") is not None
    assert west.acked_seq < deployment.log.head_seq
    deployment.heal("west")
    assert west.acked_seq == deployment.log.head_seq
    assert west.backend.cache.peek("snap:stale") is None


def test_partitioned_region_buffers_and_publishes_on_heal(deployment):
    east = deployment.region("east")
    west = deployment.region("west")
    east.backend.cache.put("snap:doomed", b"v", ttl_s=60.0)
    deployment.partition("west")
    west.backend.cache.put("snap:doomed", b"v", ttl_s=60.0)
    west.backend.invalidate("snap:doomed")
    # Buffered, not appended: east has heard nothing.
    assert deployment.log.head_seq == 0
    assert west.pending == [("invalidate", "snap:doomed")]
    assert east.backend.cache.peek("snap:doomed") is not None
    deployment.heal("west")
    assert deployment.log.head_seq == 1
    assert west.pending == []
    assert east.backend.cache.peek("snap:doomed") is None


def test_truncated_offset_forces_full_resync(tmp_path):
    with RegionalDeployment(
        regions=("east", "west"),
        snapshot_root=str(tmp_path),
        site="echo",
        make_app=EchoApp,
        log_retention=2,
    ) as deployment:
        east = deployment.region("east")
        west = deployment.region("west")
        deployment.partition("west")
        west.backend.cache.put("snap:derived", b"stale", ttl_s=60.0)
        # East churns far past the retention window while west is away.
        for i in range(6):
            east.backend.cache.put(f"snap:churn{i}", b"v", ttl_s=60.0)
            east.backend.invalidate(f"snap:churn{i}")
        east.backend.cache.put("snap:truth", b"fresh", ttl_s=60.0)
        east.backend.flush()
        deployment.heal("west")
        # The gap was unreplayable: west dropped derived state and
        # recopied east's store instead.
        assert west.acked_seq == deployment.log.head_seq
        assert west.backend.cache.peek("snap:derived") is None
        assert west.backend.store.get("snap:truth") is not None
        resyncs = deployment.rollup().get(
            "msite_region_resyncs_total", labels={"region": "west"}
        )
        assert resyncs is not None and resyncs.value == 1


def test_offset_ahead_of_the_log_forces_full_resync(deployment):
    """An acked offset the log never handed out (it began again at 1
    since) cannot be replayed from; believing it would skip every
    change up to that sequence.  The region full-resyncs instead."""
    east = deployment.region("east")
    west = deployment.region("west")
    west.acked_seq = 99
    west.backend.cache.put("snap:derived", b"stale", ttl_s=60.0)
    east.backend.cache.put("snap:x", b"v", ttl_s=60.0)
    east.backend.invalidate("snap:x")
    assert west.acked_seq == deployment.log.head_seq == 1
    assert west.backend.cache.peek("snap:derived") is None
    resyncs = deployment.rollup().get(
        "msite_region_resyncs_total", labels={"region": "west"}
    )
    assert resyncs is not None and resyncs.value == 1
    assert [
        e.payload["region"] for e in deployment.ops.events_of("region_resync")
    ] == ["west"]


def test_ttl_expiry_appends_to_the_log(tmp_path, clock):
    with RegionalDeployment(
        regions=("east", "west"),
        snapshot_root=str(tmp_path),
        site="echo",
        make_app=EchoApp,
        clock=clock,
    ) as deployment:
        east = deployment.region("east")
        east.backend.cache.put("snap:brief", b"v", ttl_s=5.0)
        clock.advance(10.0)
        assert east.backend.cache.get("snap:brief") is None  # retires
        assert [
            (e.type, e.payload["key"]) for e in deployment.log.retained()
        ] == [("expire", "snap:brief")]


def test_disk_only_invalidation_reaches_the_peer_store(tmp_path):
    """An owner that holds a key only on disk (a restart, nothing
    promoted yet) must still announce its invalidation: the CDC pump
    logs from the bus, and the peer holds the replicated snapshot."""

    def regional(**kwargs):
        return RegionalDeployment(
            regions=("east", "west"),
            snapshot_root=str(tmp_path),
            site="echo",
            make_app=EchoApp,
            **kwargs,
        )

    with regional() as first:
        first.region("east").backend.cache.put(
            "snap:shared", b"warm", ttl_s=60.0
        )
        first.region("east").backend.flush()
        assert first.region("west").backend.store.get("snap:shared")
    with regional(preload=False) as restarted:
        east = restarted.region("east")
        west = restarted.region("west")
        assert east.backend.cache.peek("snap:shared") is None
        assert east.backend.invalidate("snap:shared") is True
        assert [
            (e.type, e.payload) for e in restarted.log.retained()
        ] == [("invalidate", {"key": "snap:shared", "origin": "east"})]
        # The pump drained: the peer no longer holds the snapshot.
        assert west.acked_seq == restarted.log.head_seq
        assert west.backend.store.get("snap:shared") is None
        assert west.backend.cache.get("snap:shared") is None


def test_persists_replicate_into_peer_store(deployment):
    east = deployment.region("east")
    west = deployment.region("west")
    east.backend.cache.put("snap:shared", b"warm", ttl_s=60.0)
    east.backend.flush()
    replicated = west.backend.store.get("snap:shared")
    assert replicated is not None and replicated.data == b"warm"
    count = deployment.rollup().get(
        "msite_region_replications_total", labels={"region": "west"}
    )
    assert count is not None and count.value == 1
