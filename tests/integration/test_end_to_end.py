"""Full workflow: admin tool → codegen → proxy → mobile clients.

This mirrors the paper's Figure 1 end to end, using the standard §4.3
adaptation from conftest.build_standard_spec.
"""

import pytest

from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from tests.conftest import PROXY_HOST, session_page


def url(params=""):
    return f"http://{PROXY_HOST}/proxy.php{params}"


def test_first_visit_delivers_snapshot_menu(mobilized):
    proxy, services, mobile = mobilized
    response = mobile.get(url())
    assert response.ok
    body = response.text_body
    assert "<map" in body
    assert body.count("<area") >= 2
    # The adapted entry is tiny compared to the 224 KB original.
    assert len(response.body) < 5_000


def test_snapshot_within_paper_byte_band(mobilized):
    proxy, services, mobile = mobilized
    mobile.get(url())
    snapshot = mobile.get(url("?file=snapshot.jpg"))
    # §3.3: reduced-fidelity overview in 25-50 KB.
    assert 25_000 <= len(snapshot.body) <= 50_000


def test_subpages_carry_content(mobilized):
    proxy, services, mobile = mobilized
    mobile.get(url())
    login = mobile.get(url("?page=login")).text_body
    assert "vb_login_username" in login
    assert "logobar" in login  # dependency copied in
    forums = mobile.get(url("?page=forums")).text_body
    assert "forumbits" in forums
    assert "forumdisplay.php" in forums


def test_ajax_nav_fragment(mobilized):
    proxy, services, mobile = mobilized
    entry = mobile.get(url()).text_body
    assert "msite-ajax-nav" in entry
    fragment = mobile.get(url("?page=nav&fragment=1")).text_body
    assert "navlinks" in fragment
    assert "<html" not in fragment


def test_total_mobile_bytes_far_below_original(mobilized):
    proxy, services, mobile = mobilized
    mobile.ledger.reset()
    mobile.get(url())
    mobile.get(url("?file=snapshot.jpg"))
    assert mobile.ledger.bytes_received < 60_000  # vs 224,477 original


def test_second_user_amortizes_render(mobilized, clock):
    proxy, services, mobile = mobilized
    mobile.get(url())
    renders_after_first = proxy.counters.browser_renders
    other = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    other.get(url())
    assert proxy.counters.browser_renders == renders_after_first
    assert services.cache.stats.hits >= 1


def test_sessions_have_isolated_directories(mobilized, clock):
    # The paper's per-user directory is the page the session holds.
    proxy, services, mobile = mobilized
    mobile.get(url())
    other = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    other.get(url())
    pages = [session_page(proxy, client.jar) for client in (mobile, other)]
    assert pages[0] is not pages[1]
    for page in pages:
        assert "index.html" in page.files


def test_expired_session_recreated_transparently(mobilized, clock):
    proxy, services, mobile = mobilized
    mobile.get(url())
    clock.advance(proxy.sessions.ttl_s + 10)
    response = mobile.get(url())
    assert response.ok
    assert len(proxy.sessions) == 1  # old one expired, new one created


def test_generated_proxy_spec_roundtrip(mobilized):
    proxy, services, mobile = mobilized
    payload = proxy.spec.to_json()
    from repro.core.spec import AdaptationSpec

    restored = AdaptationSpec.from_json(payload)
    restored.validate()
    assert restored.bindings_for("subpage")
