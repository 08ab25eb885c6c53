"""Unit tests for the cluster front end: routing stickiness, spill-over,
degradation, invalidation fan-out, and the fleet endpoints."""

import json

import pytest

from repro.cluster import ClusterDeployment
from repro.net.messages import Request, Response
from repro.resilience.breaker import OPEN


class EchoApp:
    """Returns which app instance served the request."""

    _counter = [0]

    def __init__(self, services):
        self.services = services
        EchoApp._counter[0] += 1
        self.instance = EchoApp._counter[0]
        self.forgets = 0

    def forget_adapted(self):
        self.forgets += 1

    def handle(self, request):
        if request.params.get("boom"):
            raise RuntimeError("app exploded")
        return Response.text(f"instance-{self.instance}")


@pytest.fixture()
def cluster():
    with ClusterDeployment(
        origins={}, workers=3, site="echo", make_app=EchoApp
    ) as deployment:
        yield deployment


def _get(cluster, url, **headers):
    return cluster.handle(Request.get(url, **headers))


def test_routing_is_sticky_per_key(cluster):
    first = _get(cluster, "http://echo.local/?page=a")
    for _ in range(5):
        again = _get(cluster, "http://echo.local/?page=a")
        assert again.headers.get("X-MSite-Worker") == (
            first.headers.get("X-MSite-Worker")
        )
    # Distinct keys spread: at least two workers serve this key set.
    seen = {
        _get(cluster, f"http://echo.local/?page=k{i}").headers.get(
            "X-MSite-Worker"
        )
        for i in range(12)
    }
    assert len(seen) >= 2


def test_worker_down_reroutes_and_recovery_restores(cluster):
    url = "http://echo.local/?page=sticky"
    owner = _get(cluster, url).headers.get("X-MSite-Worker")
    cluster.worker(owner).mark_down()
    moved = _get(cluster, url)
    assert moved.status == 200
    fallback = moved.headers.get("X-MSite-Worker")
    assert fallback != owner
    reroutes = cluster.registry.get("msite_cluster_reroutes_total")
    assert reroutes is not None and reroutes.value >= 1
    cluster.worker(owner).mark_up()
    assert _get(cluster, url).headers.get("X-MSite-Worker") == owner


def test_all_workers_down_is_an_honest_503(cluster):
    for worker in cluster.workers:
        worker.mark_down()
    response = _get(cluster, "http://echo.local/?page=a")
    assert response.status == 503
    assert response.headers.get("Retry-After") is not None
    assert "workers down" in response.text_body
    unrouteable = cluster.registry.get("msite_cluster_unrouteable_total")
    assert unrouteable is not None and unrouteable.value == 1


def test_render_breaker_open_spills_to_peer(cluster):
    url = "http://echo.local/?page=breaker"
    owner = _get(cluster, url).headers.get("X-MSite-Worker")
    breaker = cluster.worker(owner).services.resilience.render_breaker
    # Trip the owner's render breaker the way real failures would.
    for _ in range(8):
        breaker.record_failure()
    assert breaker.state == OPEN
    assert cluster.worker(owner).render_breaker_open
    spilled = _get(cluster, url)
    assert spilled.status == 200
    assert spilled.headers.get("X-MSite-Worker") != owner
    spillovers = cluster.registry.get(
        "msite_cluster_spillovers_total", labels={"worker": owner}
    )
    assert spillovers is not None and spillovers.value >= 1
    offshard = cluster.registry.get("msite_cluster_offshard_total")
    assert offshard is not None and offshard.value >= 1


def test_refresh_param_fans_out_to_every_worker(cluster):
    response = _get(cluster, "http://echo.local/?page=a&refresh=1")
    assert response.status == 200
    assert all(worker.app.forgets == 1 for worker in cluster.workers)
    assert cluster.shared_cache.bus.published("refresh") == 1
    # A plain request does not re-trigger the fan-out.
    _get(cluster, "http://echo.local/?page=a")
    assert all(worker.app.forgets == 1 for worker in cluster.workers)


def test_app_errors_surface_as_500_with_route_trace(cluster):
    response = _get(cluster, "http://echo.local/?page=a&boom=1")
    assert response.status == 500
    traces = cluster.observability.traces.recent()
    assert traces, "route trace missing"
    names = traces[-1].span_names()
    assert "route" in names
    assert "shard" in names
    shard = traces[-1].spans_named("shard")[0]
    assert shard.status == "error"


def test_metrics_endpoints(cluster):
    _get(cluster, "http://echo.local/?page=a")
    fleet = _get(cluster, "http://echo.local/metrics")
    assert fleet.status == 200
    body = fleet.text_body
    assert "msite_cluster_requests_total" in body
    assert "msite_cluster_routed_total" in body
    per_worker = _get(cluster, "http://echo.local/metrics/w0")
    assert per_worker.status == 200
    assert _get(cluster, "http://echo.local/metrics/w9").status == 404
    traces = _get(cluster, "http://echo.local/traces")
    assert traces.status == 200
    json.loads(traces.text_body)


def test_cluster_status_endpoint(cluster):
    cluster.worker("w1").mark_down()
    status = json.loads(_get(cluster, "http://echo.local/cluster").text_body)
    assert status["site"] == "echo"
    assert status["workers"]["w1"]["healthy"] is False
    assert status["workers"]["w0"]["healthy"] is True
    assert set(status["workers"]) == {"w0", "w1", "w2"}
    # The shared cache's row is derived from its tier list.
    assert status["shared_cache"]["tiers"] == ["memory"]
    assert status["shared_cache"]["attached_workers"] == ["w0", "w1", "w2"]


def test_busy_owner_spills_to_idle_peer(cluster):
    url = "http://echo.local/?page=busyspill"
    owner = _get(cluster, url).headers.get("X-MSite-Worker")
    # With spill_depth=0 even an empty queue reads as busy, so the soft
    # work-stealing signal fires without us having to race real threads.
    cluster.worker(owner).spill_depth = 0
    assert cluster.worker(owner).busy
    assert not cluster.worker(owner).admissible()
    spilled = _get(cluster, url)
    assert spilled.status == 200
    assert spilled.headers.get("X-MSite-Worker") != owner
    spillovers = cluster.registry.get(
        "msite_cluster_spillovers_total", labels={"worker": owner}
    )
    assert spillovers is not None and spillovers.value >= 1
    cluster.worker(owner).spill_depth = None
    assert _get(cluster, url).headers.get("X-MSite-Worker") == owner


def test_all_busy_forces_request_onto_owner():
    with ClusterDeployment(
        origins={}, workers=2, site="echo", make_app=EchoApp, spill_depth=0
    ) as cluster:
        for worker in cluster.workers:
            assert worker.busy and not worker.admissible()
        response = cluster.handle(Request.get("http://echo.local/?page=a"))
        # Nobody would admit it, but the fleet is healthy: the request
        # still lands (on a most-preferred healthy worker) rather than
        # bouncing forever between busy peers.
        assert response.status == 200
        forced = cluster.registry.get("msite_cluster_forced_total")
        assert forced is not None and forced.value == 1


def test_worker_repr_shows_health(cluster):
    worker = cluster.worker("w0")
    assert "w0" in repr(worker) and "up" in repr(worker)
    worker.mark_down()
    assert "down" in repr(worker)
    worker.mark_up()


def test_constructor_validation():
    with pytest.raises(ValueError):
        ClusterDeployment(origins={}, workers=0, make_app=EchoApp)
    with pytest.raises(ValueError):
        ClusterDeployment(origins={}, workers=2)  # no spec, no factory


def test_closed_cluster_rejects_into_unrouteable():
    deployment = ClusterDeployment(
        origins={}, workers=2, site="echo", make_app=EchoApp
    )
    deployment.close()
    response = deployment.handle(Request.get("http://echo.local/?page=a"))
    assert response.status == 503


def test_farm_backed_cluster_shares_one_farm_and_reports_status():
    """``farm_consumers=N`` stands up one fleet-shared render farm: every
    worker's services point at it, its metrics land on the fleet
    registry, and ``/cluster`` carries its lane depths."""
    with ClusterDeployment(
        origins={},
        workers=2,
        site="farmed",
        make_app=EchoApp,
        farm_consumers=2,
        farm_queue_limit=8,
        farm_wait_s=2.0,
    ) as deployment:
        farm = deployment.renderfarm
        assert farm is not None
        assert all(
            worker.services.renderfarm is farm
            for worker in deployment.workers
        )
        assert farm.default_wait_s == 2.0
        # The farm actually renders through the shared queue.
        from repro.renderfarm import RenderKey

        assert farm.render(
            RenderKey("farmed", "/front"), lambda: "bundle", wait_s=5.0
        ) == "bundle"
        status = json.loads(
            _get(deployment, "http://farmed.local/cluster").text_body
        )
        assert status["renderfarm"]["consumers_alive"] == 2
        assert status["renderfarm"]["queue_limit"] == 8
        # msite_renderfarm_* families roll up into the fleet /metrics.
        metrics = _get(deployment, "http://farmed.local/metrics").text_body
        assert "msite_renderfarm_completed_total" in metrics
    # close() shut the farm down with the workers.
    assert farm.consumers_alive == 0


def test_cluster_without_farm_has_no_renderfarm(cluster):
    assert cluster.renderfarm is None
    status = json.loads(
        _get(cluster, "http://echo.local/cluster").text_body
    )
    assert "renderfarm" not in status
