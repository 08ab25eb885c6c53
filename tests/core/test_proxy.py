"""The proxy runtime over HTTP: sessions, pages, files, actions, auth."""

import sys
import threading
import time

import pytest

from repro.core.pipeline import ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.sessions import SESSION_COOKIE
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from tests.conftest import FORUM_HOST, PROXY_HOST


def make_proxy(
    origins, clock, page_path="/index.php", extra=None, bare=False
):
    spec = AdaptationSpec(
        site="SawmillCreek", origin_host=FORUM_HOST, page_path=page_path
    )
    if not bare:
        spec.add("prerender")
        spec.add("cacheable", ttl_s=3600)
        spec.add(
            "subpage", ObjectSelector.css("#loginform"),
            subpage_id="login", title="Log in",
        )
        spec.add(
            "ajax_subpage", ObjectSelector.css("#navlinks"), subpage_id="nav"
        )
        spec.add("ajax_rewrite")
    if extra:
        extra(spec)
    services = ProxyServices(origins=origins, clock=clock)
    return MSiteProxy(spec, services, proxy_base="proxy.php")


@pytest.fixture()
def proxy(origins, clock):
    return make_proxy(origins, clock)


@pytest.fixture()
def mobile(proxy, clock):
    return HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)


def url(params=""):
    return f"http://{PROXY_HOST}/proxy.php{params}"


def test_entry_sets_session_cookie(proxy, mobile):
    response = mobile.get(url())
    assert response.ok
    assert mobile.jar.get(SESSION_COOKIE) is not None
    assert len(proxy.sessions) == 1


def test_session_reused_on_second_request(proxy, mobile):
    mobile.get(url())
    mobile.get(url())
    assert len(proxy.sessions) == 1
    assert proxy.counters.entry_pages == 2


def test_distinct_clients_get_distinct_sessions(proxy, origins, clock):
    for __ in range(3):
        client = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
        client.get(url())
    assert len(proxy.sessions) == 3


def test_entry_page_is_snapshot_menu(proxy, mobile):
    body = mobile.get(url()).text_body
    assert "<map" in body
    assert "proxy.php?file=snapshot.jpg" in body
    assert "msiteLoad" in body  # ajax loader for the nav subpage


def test_subpage_served(proxy, mobile):
    mobile.get(url())
    response = mobile.get(url("?page=login"))
    assert response.ok
    assert "loginform" in response.text_body


def test_subpage_on_demand_without_entry_visit(proxy, mobile):
    # Hitting a subpage first still adapts the page for this session.
    response = mobile.get(url("?page=login"))
    assert response.ok


def test_missing_subpage_404(proxy, mobile):
    mobile.get(url())
    assert mobile.get(url("?page=ghost")).status == 404


def test_fragment_for_ajax_subpage(proxy, mobile):
    mobile.get(url())
    response = mobile.get(url("?page=nav&fragment=1"))
    assert response.ok
    assert "<html" not in response.text_body


def test_snapshot_file_served(proxy, mobile):
    mobile.get(url())
    response = mobile.get(url("?file=snapshot.jpg"))
    assert response.ok
    assert response.content_type == "image/jpeg"
    assert len(response.body) > 10_000


def test_file_traversal_blocked(proxy, mobile):
    mobile.get(url())
    assert mobile.get(url("?file=../../etc/passwd")).status == 400
    assert mobile.get(url("?file=..%2F..")).status == 400


def test_missing_file_404(proxy, mobile):
    mobile.get(url())
    assert mobile.get(url("?file=nope.jpg")).status == 404


def test_browser_amortized_across_users(proxy, origins, clock):
    for __ in range(5):
        client = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
        client.get(url())
    assert proxy.counters.browser_renders == 1
    assert proxy.counters.lightweight_requests >= 4


def test_refresh_parameter_rerenders(proxy, mobile):
    mobile.get(url())
    mobile.get(url("?refresh=1"))
    assert proxy.counters.browser_renders == 2


def test_ajax_action_roundtrip(proxy, mobile):
    mobile.get(url())
    # The entry page itself has no do=/id= links (those live on thread
    # pages), so predeclare the action the way generated shells do.
    action = proxy.ajax_table.register(
        "showpic", "/ajax.php?do=showpic&id={p}"
    )
    response = mobile.get(url(f"?action={action.action_id}&p=5"))
    assert response.ok
    assert "attachment5" in response.text_body
    assert proxy.counters.ajax_actions == 1


def test_unknown_action_404(proxy, mobile):
    mobile.get(url())
    assert mobile.get(url("?action=999&p=1")).status == 404


def test_malformed_action_400(proxy, mobile):
    mobile.get(url())
    assert mobile.get(url("?action=abc")).status == 400


def test_image_cache_endpoint(proxy, mobile):
    mobile.get(url())
    first = mobile.get(url("?img=/images/sawmill_logo.gif&q=40"))
    assert first.ok
    original = 11_840
    assert len(first.body) < original  # fidelity-reduced
    # Served from the shared cache on repeat.
    stores_before = proxy.services.cache.stats.stores
    mobile.get(url("?img=/images/sawmill_logo.gif&q=40"))
    assert proxy.services.cache.stats.stores == stores_before


def test_image_invalidated_mid_fetch_is_served_but_not_kept(origins, clock):
    """The request path's fills are ``get -> load_or_join(peek -> fetch
    -> put)``: an invalidation that lands while the origin fetch is in
    flight must win over the loader's ``put``."""
    key = "lowfi:/images/sawmill_logo.gif:q40"

    class InvalidatingOrigin:
        def __init__(self, inner):
            self.inner = inner
            self.image_fetches = 0

        def handle(self, request):
            if request.url.path.endswith("sawmill_logo.gif"):
                self.image_fetches += 1
                if self.image_fetches == 1:
                    proxy.services.cache.invalidate(key)  # mid-fetch
            return self.inner.handle(request)

    origin = InvalidatingOrigin(origins[FORUM_HOST])
    proxy = make_proxy({FORUM_HOST: origin}, clock, bare=True)
    mobile = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    first = mobile.get(url("?img=/images/sawmill_logo.gif&q=40"))
    assert first.ok and first.body  # the waiters are still served
    cache = proxy.services.cache
    assert cache.peek(key) is None  # ...but the invalidation won
    assert cache.stats.invalidated_loads == 1
    # The next request re-fetches, and that fill is kept.
    again = mobile.get(url("?img=/images/sawmill_logo.gif&q=40"))
    assert again.body == first.body
    assert origin.image_fetches == 2
    assert cache.peek(key) is not None


def test_image_cache_missing_origin_image(proxy, mobile):
    mobile.get(url())
    assert mobile.get(url("?img=/images/ghost.gif&q=40")).status == 404


def test_logout_clears_cookies(proxy, mobile, origins, clock):
    mobile.get(url())
    session = next(iter(proxy.sessions._sessions.values()))
    from repro.net.cookies import Cookie

    session.jar.set(Cookie("bbsessionhash", "tok", domain=FORUM_HOST))
    response = mobile.get(url("?logout=1"))
    assert "Logged out" in response.text_body
    assert len(session.jar) == 0


def test_origin_down_returns_502(origins, clock):
    proxy = make_proxy(origins, clock, page_path="/missing.php")
    client = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    response = client.get(url())
    assert response.status == 502
    assert proxy.counters.errors == 1


def test_auth_flow(origins, clock):
    proxy = make_proxy(
        origins, clock, page_path="/private.php", bare=True,
        extra=lambda spec: spec.add("http_auth", realm="pm"),
    )
    client = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    # First visit redirects to the lightweight auth page.
    response = client.send(
        __import__("repro.net.messages", fromlist=["Request"]).Request.get(url())
    )
    assert response.is_redirect
    assert "auth=1" in response.headers.get("Location")
    # The auth form renders.
    form = client.get(url("?auth=1"))
    assert "password" in form.text_body
    # Posting credentials redirects back and the page then loads.
    landing = client.post(url("?auth=1"), {
        "username": "woodfan", "password": "hunter2",
    })
    assert landing.ok
    assert "Private messages for woodfan" in landing.text_body


def test_auth_flow_wrong_credentials_loops(origins, clock):
    proxy = make_proxy(
        origins, clock, page_path="/private.php", bare=True,
        extra=lambda spec: spec.add("http_auth"),
    )
    client = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    response = client.post(url("?auth=1"), {
        "username": "woodfan", "password": "wrong",
    })
    # Wrong credentials: origin still 401s, so back to the auth redirect.
    assert response.status in (200, 302)
    assert "auth=1" in str(response.headers.get("Location") or response.text_body)


def test_counters_track_core_seconds(proxy, mobile):
    mobile.get(url())
    assert proxy.counters.browser_core_seconds > 0.5
    assert proxy.counters.lightweight_core_seconds > 0


def test_a_destroyed_session_takes_its_adapted_page_with_it(origins, clock):
    # One device whose session lapses between visits: each visit after
    # the first finds its session expired (destroyed) and gets a new
    # one, and the expired one's memoized page must go with it.
    proxy = make_proxy(origins, clock, bare=True)
    mobile = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    for _ in range(4):
        assert mobile.get(url()).status == 200
        clock.advance(proxy.sessions.ttl_s + 3600)
    assert len(proxy.sessions) == 1
    assert len(proxy._adapted) == 1
    # An idle sweep destroys the last one, and its memo entry too.
    assert proxy.sessions.expire_idle() == 1
    assert len(proxy._adapted) == 0


def test_the_adapted_memo_follows_sessions_under_contention(origins, clock):
    # Eight devices each move the clock past the session TTL before
    # every visit, so each visit finds its session expired and destroys
    # it: memo entries are dropped from eight threads while the others
    # read and write the map, and none may outlive its session or break
    # a lookup.
    proxy = make_proxy(origins, clock, bare=True)
    proxy.sessions.ttl_s = 0.5
    tick = threading.Lock()
    statuses, errors, issued = [], [], set()

    def device(_):
        mobile = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
        try:
            for _ in range(25):
                with tick:
                    clock.advance(1.0)
                statuses.append(mobile.get(url()).status)
                issued.add(mobile.jar.get(SESSION_COOKIE).value)
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        devices = [
            threading.Thread(target=device, args=(i,)) for i in range(8)
        ]
        for thread in devices:
            thread.start()
        for thread in devices:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in devices)
    assert errors == []
    assert statuses == [200] * 200
    assert len(issued) == 200  # every visit outlived its last session
    assert len(proxy._adapted) == len(proxy.sessions) == 8
    live = proxy.sessions._sessions
    assert all(live.get(s.session_id) is s for s in list(proxy._adapted))
    clock.advance(1.0)
    assert proxy.sessions.expire_idle() == 8
    assert len(proxy._adapted) == 0


def test_an_idle_sweep_never_deletes_a_session_under_a_request(
    origins, clock
):
    # Eight devices re-adapt on every visit (``?refresh=1``) while one
    # thread sweeps idle sessions in a loop, over a slow file store:
    # each read takes longer than the session TTL on the sim clock, and
    # yields before it looks.  So every visit's session is idle by the
    # time it reads its entry page back, while the visit still holds
    # the session lock; the sweep must skip it, never pull the page out
    # from under the request.  Between a device's visits its session
    # is idle and unlocked, so the sweep has work.
    proxy = make_proxy(origins, clock, bare=True)
    storage = proxy.services.storage
    read = storage.read
    tick = threading.Lock()

    def slow_read(path):
        with tick:
            clock.advance(proxy.sessions.ttl_s + 1.0)
        time.sleep(0.005)
        return read(path)

    storage.read = slow_read
    statuses, errors, swept = [], [], [0]
    done = threading.Event()

    def device(_):
        mobile = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
        try:
            for _ in range(10):
                statuses.append(mobile.get(url("?refresh=1")).status)
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    def sweeper():
        while not done.is_set():
            swept[0] += proxy.sessions.expire_idle()

    sweeping = threading.Thread(target=sweeper)
    devices = [threading.Thread(target=device, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sweeping.start()
        for thread in devices:
            thread.start()
        for thread in devices:
            thread.join(timeout=120)
    finally:
        done.set()
        sweeping.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in [*devices, sweeping])
    assert errors == []
    assert statuses == [200] * 80
    assert swept[0] > 0


PHONE_UA = (
    "Mozilla/5.0 (iPhone; CPU iPhone OS 4_0 like Mac OS X) "
    "AppleWebKit/532.9 Mobile/8A293 Safari/6531.22.7"
)


@pytest.mark.parametrize("first", ["?page=login", "?file=index.html"])
def test_a_phone_whose_first_request_is_not_the_entry_replays_the_phone_bundle(
    origins, clock, first
):
    # A storable spec (no prerender, no AJAX): one phone's entry visit
    # stores the phone bundle.  A second phone that opens a subpage or a
    # file first must adapt as a phone too: a replay of that bundle, no
    # second store, and an entry ETag naming the phone class.
    proxy = make_proxy(
        origins, clock, bare=True,
        extra=lambda spec: spec.add(
            "subpage", ObjectSelector.css("#loginform"),
            subpage_id="login", title="Log in",
        ),
    )
    registry = proxy.services.observability.registry

    def fastpath(name):
        return registry.counter(f"msite_fastpath_{name}_total", "").value

    phone = {"User-Agent": PHONE_UA}
    first_phone = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    assert ".phone." in first_phone.get(url(), **phone).headers.get("ETag")
    assert (fastpath("stores"), fastpath("hits")) == (1, 0)

    second_phone = HttpClient(
        {PROXY_HOST: proxy}, jar=CookieJar(), clock=clock
    )
    assert second_phone.get(url(first), **phone).status == 200
    assert (fastpath("stores"), fastpath("hits")) == (1, 1)
    entry = second_phone.get(url(), **phone)
    assert entry.status == 200
    assert ".phone." in entry.headers.get("ETag")
