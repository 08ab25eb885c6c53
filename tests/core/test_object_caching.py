"""Cross-session object-render caching and repeat-on-every-subpage
content (§3.3 'Object caching' and the ads/jump-menu repetition)."""

import pytest

from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec, ObjectSelector
from tests.conftest import FORUM_HOST


@pytest.fixture()
def services(origins, clock):
    return ProxyServices(origins=origins, clock=clock)


@pytest.fixture()
def manager(services, clock):
    return SessionManager(clock=clock)


def cacheable_spec(ttl=3600):
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    spec.add(
        "subpage", ObjectSelector.css("#stats"),
        subpage_id="stats", prerender=True, cacheable=True,
        cache_ttl_s=ttl,
    )
    return spec


def test_object_render_amortized_across_sessions(services, manager):
    first = AdaptationPipeline(
        cacheable_spec(), services, manager.create()
    ).run()
    second = AdaptationPipeline(
        cacheable_spec(), services, manager.create()
    ).run()
    assert first.used_browser
    assert not second.used_browser  # the object render was cached
    # Both sessions received identical image bytes.
    assert (
        first.files["images/stats.jpg"].data
        == second.files["images/stats.jpg"].data
    )


def test_object_cache_respects_ttl(services, manager, clock):
    AdaptationPipeline(
        cacheable_spec(ttl=100), services, manager.create()
    ).run()
    clock.advance(101)
    later = AdaptationPipeline(
        cacheable_spec(ttl=100), services, manager.create()
    ).run()
    assert later.used_browser  # expired → re-rendered


def test_uncacheable_objects_render_per_session(services, manager):
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    spec.add(
        "subpage", ObjectSelector.css("#stats"),
        subpage_id="stats", prerender=True,
    )
    a = AdaptationPipeline(spec, services, manager.create()).run()
    b = AdaptationPipeline(spec, services, manager.create()).run()
    assert a.used_browser and b.used_browser


def test_cached_searchable_subpage_keeps_its_index(services, manager):
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    spec.add(
        "subpage", ObjectSelector.css("#stats"),
        subpage_id="stats", prerender=True, cacheable=True,
    )
    spec.add(
        "searchable", ObjectSelector.css("#stats"), subpage_id="stats"
    )
    session_a = manager.create()
    AdaptationPipeline(spec, services, session_a).run()
    session_b = manager.create()
    adapted = AdaptationPipeline(spec, services, session_b).run()
    html = adapted.files["stats.html"].data.decode("utf-8")
    assert "msiteSearch" in html  # index survived the cache round trip


# -- subpage_extras ----------------------------------------------------------


def test_extras_repeat_on_every_subpage(services, manager):
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    spec.add("subpage", ObjectSelector.css("#loginform"),
             subpage_id="login")
    spec.add("subpage", ObjectSelector.css("#stats"), subpage_id="stats")
    spec.add(
        "subpage_extras",
        top_html='<div class="msite-ad">mobile ad</div>',
        bottom_html='<div id="crumbs">Home</div>',
    )
    adapted = AdaptationPipeline(spec, services, manager.create()).run()
    for name in ("login", "stats"):
        html = adapted.files[f"{name}.html"].data.decode("utf-8")
        assert "msite-ad" in html, name
        assert 'id="crumbs"' in html, name


def test_jump_menu_lists_all_subpages(services, manager):
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    spec.add("subpage", ObjectSelector.css("#loginform"),
             subpage_id="login", title="Log in")
    spec.add("subpage", ObjectSelector.css("#stats"),
             subpage_id="stats", title="Statistics")
    spec.add("subpage_extras", jump_menu=True)
    adapted = AdaptationPipeline(spec, services, manager.create()).run()
    html = adapted.files["login.html"].data.decode("utf-8")
    assert 'id="msite-jump"' in html
    assert "proxy.php?page=stats" in html
    assert "Statistics" in html
