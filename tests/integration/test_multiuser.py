"""Multi-user behaviour: cookie-jar separation and shared-cache safety."""

import pytest

from repro.core.pipeline import ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.spec import AdaptationSpec
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from tests.conftest import FORUM_HOST, PROXY_HOST


def url(params=""):
    return f"http://{PROXY_HOST}/proxy.php{params}"


@pytest.fixture()
def light_proxy(origins, clock):
    """Proxy without prerender: entry mirrors origin content, so
    logged-in state is visible in responses."""
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    services = ProxyServices(origins=origins, clock=clock)
    return MSiteProxy(spec, services)


def login_session(proxy, mobile, username, password, origins, clock):
    """Authenticate the proxy-held jar for this mobile user's session."""
    mobile.get(url())  # establish the session
    session = proxy.sessions.get(
        mobile.jar.get("msite_session").value
    )
    origin_client = HttpClient(origins, jar=session.jar, clock=clock)
    origin_client.post(
        f"http://{FORUM_HOST}/login.php",
        {"vb_login_username": username, "vb_login_password": password},
    )
    return session


def test_proxy_keeps_user_jars_apart(light_proxy, origins, clock):
    alice = HttpClient({PROXY_HOST: light_proxy}, jar=CookieJar(), clock=clock)
    bob = HttpClient({PROXY_HOST: light_proxy}, jar=CookieJar(), clock=clock)

    login_session(light_proxy, alice, "woodfan", "hunter2", origins, clock)
    bob.get(url())

    alice_view = alice.get(url("?refresh=1")).text_body
    bob_view = bob.get(url("?refresh=1")).text_body
    assert "Welcome back" in alice_view
    assert "woodfan" in alice_view
    assert "Welcome back" not in bob_view


def test_logout_attribute_clears_only_that_user(light_proxy, origins, clock):
    alice = HttpClient({PROXY_HOST: light_proxy}, jar=CookieJar(), clock=clock)
    bob = HttpClient({PROXY_HOST: light_proxy}, jar=CookieJar(), clock=clock)
    alice_session = login_session(
        light_proxy, alice, "woodfan", "hunter2", origins, clock
    )
    bob_session = login_session(
        light_proxy, bob, "SawdustSteve", "mortise42", origins, clock
    )
    alice.get(url("?logout=1"))
    assert len(alice_session.jar) == 0
    assert len(bob_session.jar) > 0
    bob_view = bob.get(url("?refresh=1")).text_body
    assert "SawdustSteve" in bob_view


def test_per_user_adaptation_not_leaked_via_cache(origins, clock):
    """The shared cache must only hold user-independent artifacts: two
    logged-in users see their own names on uncached entry pages."""
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    proxy = MSiteProxy(spec, ProxyServices(origins=origins, clock=clock))
    alice = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    bob = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    login_session(proxy, alice, "woodfan", "hunter2", origins, clock)
    login_session(proxy, bob, "SawdustSteve", "mortise42", origins, clock)
    alice_view = alice.get(url("?refresh=1")).text_body
    bob_view = bob.get(url("?refresh=1")).text_body
    assert "woodfan" in alice_view and "woodfan" not in bob_view
    assert "SawdustSteve" in bob_view and "SawdustSteve" not in alice_view


def test_many_users_storage_grows_linearly(light_proxy, origins, clock):
    for __ in range(8):
        client = HttpClient(
            {PROXY_HOST: light_proxy}, jar=CookieJar(), clock=clock
        )
        client.get(url())
    # One held page per session: the paper's per-user directory.
    assert len(light_proxy._adapted) == 8
    assert len(light_proxy.sessions) == 8
