"""Subpages rendered through alternative output engines and geometry
search on pre-rendered subpages."""

import pytest

from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.errors import AdaptationError
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from tests.conftest import FORUM_HOST, PROXY_HOST


@pytest.fixture()
def services(origins, clock):
    return ProxyServices(origins=origins, clock=clock)


@pytest.fixture()
def session(services, clock):
    return SessionManager(clock=clock).create()


def run_spec(services, session, *bindings):
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    for attribute, selector, params in bindings:
        spec.add(attribute, selector, **params)
    return AdaptationPipeline(spec, services, session).run()


def test_text_engine_subpage(services, session):
    result = run_spec(
        services, session,
        ("subpage", ObjectSelector.css("#stats"),
         {"subpage_id": "stats", "engine": "text"}),
    )
    stored = result.files["stats.txt"]
    assert stored.content_type.startswith("text/plain")
    text = stored.data.decode("utf-8")
    assert "Statistics" in text
    assert "<" not in text  # no markup survives


def test_pdf_engine_subpage(services, session):
    result = run_spec(
        services, session,
        ("subpage", ObjectSelector.css("#stats"),
         {"subpage_id": "stats", "engine": "pdf"}),
    )
    stored = result.files["stats.pdf"]
    assert stored.content_type == "application/pdf"
    assert stored.data.startswith(b"%PDF-1.4")


def test_unknown_engine_rejected(services, session):
    with pytest.raises(AdaptationError):
        run_spec(
            services, session,
            ("subpage", ObjectSelector.css("#stats"),
             {"subpage_id": "stats", "engine": "flash"}),
        )


def test_proxy_serves_engine_subpages(origins, clock):
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    spec.add(
        "subpage", ObjectSelector.css("#stats"),
        subpage_id="stats", engine="text",
    )
    proxy = MSiteProxy(spec, ProxyServices(origins=origins, clock=clock))
    mobile = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    response = mobile.get(f"http://{PROXY_HOST}/proxy.php?page=stats")
    assert response.ok
    assert response.content_type.startswith("text/plain")


def test_prerendered_subpage_search_index(services, session):
    """Searching pre-rendered images (§3.3): the wrapper page carries a
    word index whose coordinates live inside the rendered image."""
    result = run_spec(
        services, session,
        ("subpage", ObjectSelector.css("#forumbits"),
         {"subpage_id": "forums", "prerender": True}),
        ("searchable", ObjectSelector.css("#forumbits"),
         {"subpage_id": "forums", "label": "Search forums"}),
    )
    html = result.files["forums.html"].data.decode("utf-8")
    assert "msiteSearch" in html
    assert "Search forums" in html
    # The index contains words that exist on the forum listing.
    assert "discussion" in html.lower()
    # Coordinates are translated into the cropped image's frame: the
    # first locations must be near the top of the image, not at the
    # element's absolute page offset (which is >500px down).
    import json
    import re

    locations = json.loads(
        re.search(r"msiteLocations = (\[\[.*?\]\]);", html, re.S).group(1)
    )
    min_y = min(y for spots in locations for __, y in spots)
    assert min_y < 100


def test_mixed_engines_in_one_adaptation(services, session):
    result = run_spec(
        services, session,
        ("subpage", ObjectSelector.css("#stats"),
         {"subpage_id": "stats", "engine": "text"}),
        ("subpage", ObjectSelector.css("#loginform"),
         {"subpage_id": "login"}),
        ("subpage", ObjectSelector.css("#wol"),
         {"subpage_id": "online", "prerender": True}),
    )
    assert {
        "stats.txt", "login.html", "online.html", "images/online.jpg",
    } <= set(result.files)
