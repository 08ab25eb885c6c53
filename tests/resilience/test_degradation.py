"""End-to-end degradation ladders through the real proxy.

Each test installs a deterministic :class:`FaultPlan` against a small
prerendered origin and asserts the proxy lands on the documented rung:
stale snapshot, HTML-only entry, image passthrough, AJAX stale, or an
honest 502/503/504 when the ladder runs out.
"""

import pytest

from repro.core.pipeline import ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.errors import (
    CircuitOpenError,
    DegradedServeError,
    RetryExhaustedError,
)
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.resilience.faults import RENDER_TARGET, FaultPlan, origin_target
from repro.runtime.executor import ConcurrentProxy
from repro.sim.clock import Clock

HOST = "steady.example"
PROXY_HOST = "m.steady.example"


class SteadyOrigin(Application):
    """A healthy origin; all failures come from the fault plan."""

    def handle(self, request: Request) -> Response:
        if request.url.path.startswith("/asset"):
            return Response.binary(b"GIF89a" + b"x" * 200, "image/gif")
        if request.url.path.startswith("/ajax"):
            return Response.html("<p>fresh ajax payload</p>")
        return Response.html(
            '<html><head><title>Steady</title></head><body>'
            '<div id="target"><p>content</p></div>'
            '<img src="/asset/a.gif"></body></html>'
        )


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def setup(clock):
    spec = AdaptationSpec(site="S", origin_host=HOST, page_path="/")
    spec.add("prerender")
    spec.add("cacheable", ttl_s=3600)
    spec.add("subpage", ObjectSelector.css("#target"), subpage_id="target")
    services = ProxyServices(origins={HOST: SteadyOrigin()}, clock=clock)
    proxy = MSiteProxy(spec, services)
    client = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    return services, proxy, client


def url(params=""):
    return f"http://{PROXY_HOST}/proxy.php{params}"


def render_faults(rate=1.0, seed=7):
    return FaultPlan(seed=seed).on(RENDER_TARGET, fail_rate=rate)


def origin_faults(rate=1.0, seed=7, **extra):
    return FaultPlan(seed=seed).on(
        origin_target(HOST), fail_rate=rate, **extra
    )


def test_render_failure_serves_stale_snapshot(setup):
    services, proxy, client = setup
    assert client.get(url()).ok  # warm the snapshot cache
    services.install_faults(render_faults())
    response = client.get(url("?refresh=1"))
    assert response.status == 200
    assert response.headers.get("X-MSite-Degraded") == "stale"
    assert services.resilience.degraded_serves("stale") >= 1
    # The stale snapshot is still addressable.
    assert client.get(url("?file=snapshot.jpg")).ok


def test_cold_render_failure_degrades_to_html_only(setup):
    services, proxy, client = setup
    services.install_faults(render_faults())
    response = client.get(url())
    assert response.status == 200
    assert response.headers.get("X-MSite-Degraded") == "html_only"
    # No snapshot map, but the subpage menu still navigates.
    assert "snapshot.jpg" not in response.text_body
    assert "?page=target" in response.text_body
    assert client.get(url("?page=target")).ok


def test_origin_outage_serves_stale_entry(setup):
    services, proxy, client = setup
    assert client.get(url()).ok
    services.install_faults(origin_faults())
    response = client.get(url("?refresh=1"))
    assert response.status == 200
    assert response.headers.get("X-MSite-Degraded") == "stale"


def test_stale_snapshot_page_answers_its_own_links_retry_later(clock):
    """The stale-snapshot rung (fast path off) serves an image map whose
    regions link ``?page=<id>``, but its page holds only the snapshot
    and the entry: such a link answers 503 with ``Retry-After`` and the
    page's marker, never a bare 404."""
    spec = AdaptationSpec(site="S", origin_host=HOST, page_path="/")
    spec.add("prerender")
    spec.add("cacheable", ttl_s=3600)
    spec.add("subpage", ObjectSelector.css("#target"), subpage_id="target")
    services = ProxyServices(
        origins={HOST: SteadyOrigin()}, clock=clock, fastpath_enabled=False
    )
    client = HttpClient(
        {PROXY_HOST: MSiteProxy(spec, services)}, jar=CookieJar(), clock=clock
    )
    assert client.get(url("?page=bogus")).status == 404  # healthy: 404
    services.install_faults(origin_faults())
    entry = client.get(url("?refresh=1"))
    assert entry.status == 200
    assert entry.headers.get("X-MSite-Degraded") == "stale"
    assert "?page=target" in entry.text_body
    for params in ("?page=target", "?file=target.html"):
        linked = client.get(url(params))
        assert linked.status == 503, params
        assert linked.headers.get("X-MSite-Degraded") == "stale"
        assert int(linked.headers.get("Retry-After")) >= 1
    assert client.get(url("?file=snapshot.jpg")).status == 200


def test_cold_origin_outage_maps_to_504_then_breaker_503(setup):
    services, proxy, client = setup
    services.install_faults(origin_faults())
    first = client.get(url())
    assert first.status == 504  # every attempt failed: gateway timeout
    assert "timed out" in first.text_body
    second = client.get(url())
    assert second.status == 503  # the origin breaker opened
    assert int(second.headers.get("Retry-After")) >= 1
    assert services.resilience.origin_breaker(HOST).state == "open"


def test_breaker_recovers_through_half_open_probe(setup, clock):
    services, proxy, client = setup
    services.install_faults(origin_faults())
    assert client.get(url()).status == 504
    assert client.get(url()).status == 503
    breaker = services.resilience.origin_breaker(HOST)
    assert breaker.state == "open"
    # Cooldown passes, the origin heals: the half-open probe closes it.
    services.install_faults(None)
    clock.advance(services.resilience.open_cooldown_s)
    assert breaker.state == "half_open"
    response = client.get(url())
    assert response.status == 200
    assert response.headers.get("X-MSite-Degraded") is None
    assert breaker.state == "closed"


def test_retries_absorb_transient_blips(setup):
    services, proxy, client = setup
    assert client.get(url()).ok
    # ~30% transient failures: retries (or, failing those, the stale
    # ladder) keep every response a 200.
    services.install_faults(origin_faults(rate=0.3))
    for params in ("", "?refresh=1", "", "?refresh=1", ""):
        assert client.get(url(params)).status == 200
    registry = services.observability.registry
    attempts = registry.get(
        "msite_retry_attempts_total", labels={"target": f"origin:{HOST}"}
    )
    assert attempts is not None and int(attempts.value) > 0


def test_garbage_origin_body_is_retried(setup):
    services, proxy, client = setup
    assert client.get(url()).ok
    # Corrupt payloads surface as retriable failures, not crashes.
    services.install_faults(origin_faults(rate=0.0, garbage_rate=0.5))
    for params in ("?refresh=1", "", "?refresh=1"):
        assert client.get(url(params)).status == 200


def test_unreducible_image_ships_passthrough(setup):
    services, proxy, client = setup
    assert client.get(url()).ok
    services.install_faults(origin_faults(rate=0.0, garbage_rate=1.0))
    response = client.get(url("?img=/asset/a.gif&q=40"))
    assert response.status == 200
    assert response.headers.get("X-MSite-Degraded") == "passthrough"
    assert services.resilience.degraded_serves("passthrough") == 1


def test_ajax_action_falls_back_to_stale_cache(setup):
    services, proxy, client = setup
    assert client.get(url()).ok
    action = proxy.ajax_table.register(
        "feed", "/ajax.php?do=feed&p={p}", cacheable=True, cache_ttl_s=300.0
    )
    fresh = client.get(url(f"?action={action.action_id}&p=1"))
    assert fresh.status == 200
    assert "fresh ajax payload" in fresh.text_body
    services.install_faults(origin_faults())
    # The fresh cache entry still answers...
    assert client.get(url(f"?action={action.action_id}&p=1")).status == 200
    # ...and once expired, the stale copy backs the outage.
    services.clock.advance(301.0)
    degraded = client.get(url(f"?action={action.action_id}&p=1"))
    assert degraded.status == 200
    assert degraded.headers.get("X-MSite-Degraded") == "stale"
    assert "fresh ajax payload" in degraded.text_body


def test_ajax_action_without_cache_surfaces_honest_status(setup):
    services, proxy, client = setup
    assert client.get(url()).ok
    action = proxy.ajax_table.register(
        "live", "/ajax.php?do=live&p={p}", cacheable=False
    )
    services.install_faults(origin_faults())
    response = client.get(url(f"?action={action.action_id}&p=1"))
    assert response.status in (503, 504)


def test_metrics_expose_the_resilience_series(setup):
    services, proxy, client = setup
    assert client.get(url()).ok
    services.install_faults(origin_faults())
    client.get(url("?refresh=1"))
    exposition = client.get(f"http://{PROXY_HOST}/metrics").text_body
    for series in (
        "msite_retry_attempts_total",
        "msite_breaker_state",
        "msite_degraded_serves_total",
        "msite_faults_injected_total",
        "msite_cache_stale_hits_total",
    ):
        assert series in exposition


# -- executor status mapping -------------------------------------------


class Raising(Application):
    def __init__(self, exc):
        self.exc = exc

    def handle(self, request: Request) -> Response:
        raise self.exc


@pytest.mark.parametrize(
    "exc, status, retry_after",
    [
        (CircuitOpenError("open", retry_after_s=7.0), 503, "7"),
        (DegradedServeError("out of rungs"), 503, None),
        (RetryExhaustedError("gave up", attempts=3), 504, None),
    ],
)
def test_executor_maps_resilience_errors(exc, status, retry_after):
    with ConcurrentProxy(Raising(exc), workers=1) as runtime:
        response = runtime.handle(Request.get("http://x.example/"))
    assert response.status == status
    assert response.headers.get("Retry-After") == retry_after
