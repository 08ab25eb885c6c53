"""Session deltas on the proxy response path: manifests, 304s, fallbacks.

A returning session advertises the entry body it holds with
``X-MSite-Delta-Since: <etag>``; when the proxy can prove what that
body was, it answers with a stable-identity patch manifest
(``application/x-msite-delta+json``) instead of the page.  The decisive
check here is closed-loop: applying the shipped manifest to the
client's old tree must reproduce the current page exactly.
"""

import hashlib
import threading

from repro.core.codegen import generate_proxy_source, load_generated_proxy
from repro.core.pipeline import ProxyServices
from repro.core.proxy import SESSION_DELTA_CONTENT_TYPE
from repro.core.sessions import SESSION_COOKIE
from repro.dom import diff
from repro.html.parser import parse_html
from repro.html.serializer import serialize
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.sites.news.app import NewsApplication
from repro.sites.news.data import Newsroom
from repro.sites.news.spec import NEWS_HOST, news_fastpath_spec

PROXY_HOST = "m.metroherald.com"
ENTRY_URL = f"http://{PROXY_HOST}/proxy.php"
#: SHA-256 over the five chained manifests one session is shipped for
#: the first five revisions of ``Newsroom(seed=0x5E55_10)``: how the
#: proxy holds and decodes a session's baseline must not move a byte.
CHAINED_MANIFESTS_SHA256 = (
    "79e5d3b9e798cb0d4efb95e4440b9b97bc5d95b80e7dd3b94c1cdb5e271967bc"
)


def deploy(**flags):
    app = NewsApplication(Newsroom(seed=0x5E55_10))
    services = ProxyServices(origins={NEWS_HOST: app}, **flags)
    proxy = load_generated_proxy(
        generate_proxy_source(news_fastpath_spec())
    ).create_proxy(services)
    client = HttpClient({PROXY_HOST: proxy}, jar=CookieJar())
    return proxy, services, app, client


def counter(services, name: str) -> float:
    return services.observability.registry.counter(
        f"msite_delta_{name}_total"
    ).value


def publish(proxy, app) -> None:
    """One revision plus the fleet invalidation that unpins sessions."""
    app.newsroom.revise()
    proxy.forget_adapted()


def test_returning_session_gets_an_exact_patch_manifest():
    proxy, services, app, client = deploy()
    first = client.get(ENTRY_URL)
    assert first.status == 200
    etag = first.headers.get("ETag")
    old_body = first.body.decode("utf-8")
    publish(proxy, app)
    response = client.get(ENTRY_URL, X_MSite_Delta_Since=etag)
    assert response.status == 200
    assert response.headers.get("Content-Type") == SESSION_DELTA_CONTENT_TYPE
    assert response.headers.get("ETag") != etag
    manifest = diff.ChangeSet.from_json(response.body.decode("utf-8"))
    assert manifest is not None and not manifest.is_empty
    assert not manifest.upheaval()
    # Closed loop: the patched old tree is the current page, exactly.
    probe = HttpClient({PROXY_HOST: proxy}, jar=CookieJar())
    current = probe.get(ENTRY_URL).body.decode("utf-8")
    patched = diff.apply(parse_html(old_body), manifest)
    assert serialize(patched) == serialize(parse_html(current))
    # And it was worth shipping.
    assert len(response.body) < len(current.encode("utf-8"))
    assert counter(services, "session_served") == 1
    assert counter(services, "session_fallback") == 0


def test_manifests_chain_across_consecutive_revisions():
    proxy, services, app, client = deploy()
    response = client.get(ENTRY_URL)
    held = parse_html(response.body.decode("utf-8"))
    etag = response.headers.get("ETag")
    for _ in range(3):
        publish(proxy, app)
        response = client.get(ENTRY_URL, X_MSite_Delta_Since=etag)
        assert response.headers.get("Content-Type") == (
            SESSION_DELTA_CONTENT_TYPE
        )
        manifest = diff.ChangeSet.from_json(response.body.decode("utf-8"))
        diff.apply(held, manifest)
        etag = response.headers.get("ETag")
    probe = HttpClient({PROXY_HOST: proxy}, jar=CookieJar())
    current = probe.get(ENTRY_URL).body.decode("utf-8")
    assert serialize(held) == serialize(parse_html(current))
    assert counter(services, "session_served") == 3


def test_manifests_are_a_small_fraction_of_the_full_page():
    # Wire bytes of five revisions shipped as manifests against what a
    # client refetching the full page each time would have downloaded
    # (measures ~0.14x).
    proxy, services, app, client = deploy()
    etag = client.get(ENTRY_URL).headers.get("ETag")
    wire = full = 0
    for _ in range(5):
        publish(proxy, app)
        response = client.get(ENTRY_URL, X_MSite_Delta_Since=etag)
        assert response.headers.get("Content-Type") == (
            SESSION_DELTA_CONTENT_TYPE
        )
        etag = response.headers.get("ETag")
        probe = HttpClient({PROXY_HOST: proxy}, jar=CookieJar())
        wire += len(response.body)
        full += len(probe.get(ENTRY_URL).body)
    assert wire <= 0.2 * full, f"manifests are {wire / full:.2f}x the pages"


def test_chained_manifests_are_byte_identical_to_the_pin():
    proxy, services, app, client = deploy()
    etag = client.get(ENTRY_URL).headers.get("ETag")
    digest = hashlib.sha256()
    for _ in range(5):
        publish(proxy, app)
        response = client.get(ENTRY_URL, X_MSite_Delta_Since=etag)
        assert response.headers.get("Content-Type") == (
            SESSION_DELTA_CONTENT_TYPE
        )
        digest.update(response.body)
        etag = response.headers.get("ETag")
    assert digest.hexdigest() == CHAINED_MANIFESTS_SHA256


def test_current_baseline_is_a_304():
    proxy, services, app, client = deploy()
    first = client.get(ENTRY_URL)
    etag = first.headers.get("ETag")
    response = client.get(ENTRY_URL, X_MSite_Delta_Since=etag)
    assert response.status == 304
    assert response.headers.get("ETag") == etag
    assert response.body == b""
    assert counter(services, "session_served") == 0


def test_unknown_baseline_falls_back_to_the_full_body():
    proxy, services, app, client = deploy()
    client.get(ENTRY_URL)
    publish(proxy, app)
    response = client.get(
        ENTRY_URL, X_MSite_Delta_Since='"not-an-etag-we-served"'
    )
    assert response.status == 200
    assert response.headers.get("Content-Type").startswith("text/html")
    assert counter(services, "session_fallback") == 1


def test_oversize_manifests_are_not_worth_shipping():
    proxy, services, app, client = deploy()
    client.get(ENTRY_URL)
    etag = client.get(ENTRY_URL).headers.get("ETag")
    services.session_delta_max_fraction = 0.0
    publish(proxy, app)
    response = client.get(ENTRY_URL, X_MSite_Delta_Since=etag)
    assert response.status == 200
    assert response.headers.get("Content-Type").startswith("text/html")
    assert counter(services, "session_fallback") == 1
    assert counter(services, "session_served") == 0


def test_no_delta_header_means_a_plain_full_response():
    proxy, services, app, client = deploy()
    client.get(ENTRY_URL)
    publish(proxy, app)
    response = client.get(ENTRY_URL)
    assert response.status == 200
    assert response.headers.get("Content-Type").startswith("text/html")
    assert counter(services, "session_served") == 0
    assert counter(services, "session_fallback") == 0


def test_disabled_delta_never_ships_manifests():
    proxy, services, app, client = deploy(delta_enabled=False)
    first = client.get(ENTRY_URL)
    etag = first.headers.get("ETag")
    publish(proxy, app)
    response = client.get(ENTRY_URL, X_MSite_Delta_Since=etag)
    assert response.status == 200
    assert response.headers.get("Content-Type").startswith("text/html")
    assert counter(services, "session_served") == 0


def test_a_same_session_refresh_cannot_split_an_entry_response():
    # The entry's body, its ETag and the session's patch baseline come
    # from one adaptation.  A same-session ?refresh=1 of a revised page
    # that arrives while the entry is being read must wait for it, not
    # overwrite the stored body in between.
    proxy, services, app, client = deploy()
    first = client.get(ENTRY_URL)
    read = services.storage.read
    racers: list = []
    refreshes: list = []

    def racing_read(path):
        if not racers:
            app.newsroom.revise()
            racer = threading.Thread(
                target=lambda: refreshes.append(
                    client.get(f"{ENTRY_URL}?refresh=1")
                )
            )
            racers.append(racer)
            racer.start()
            racer.join(timeout=1.0)
        return read(path)

    services.storage.read = racing_read
    second = client.get(ENTRY_URL)
    (racer,) = racers
    racer.join(timeout=30)
    assert not racer.is_alive()
    (refresh,) = refreshes
    assert refresh.status == second.status == 200
    assert refresh.body != first.body  # the refresh did see the revision
    assert (second.headers.get("ETag"), second.body) == (
        first.headers.get("ETag"), first.body
    )
    # The session's baseline pairs the refreshed body with its own ETag.
    session = proxy.sessions.get(client.jar.get(SESSION_COOKIE).value)
    assert session.last_entry_etag == refresh.headers.get("ETag")
    assert session.last_entry_body is refresh.body
