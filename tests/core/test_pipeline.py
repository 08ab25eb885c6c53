"""The adaptation pipeline, run directly against the forum origin."""

import hashlib

import pytest

from repro.core.pipeline import (
    AdaptationPipeline,
    AuthenticationRequired,
    ProxyServices,
)
from repro.core.plan import TransformPlan
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.errors import CodegenError, FetchError
from tests.conftest import FORUM_HOST


@pytest.fixture()
def services(origins, clock):
    return ProxyServices(origins=origins, clock=clock)


@pytest.fixture()
def session(services):
    return SessionManager(clock=services.clock).create()


def standard_spec(**overrides):
    spec = AdaptationSpec(
        site="SawmillCreek", origin_host=FORUM_HOST, **overrides
    )
    spec.add("prerender")
    spec.add("cacheable", ttl_s=3600)
    spec.add(
        "subpage", ObjectSelector.css("#loginform"),
        subpage_id="login", title="Log in",
    )
    spec.add(
        "subpage", ObjectSelector.css("#forumbits"),
        subpage_id="forums", title="Forums",
    )
    return spec


def test_run_produces_entry_and_subpages(services, session):
    result = AdaptationPipeline(standard_spec(), services, session).run()
    assert result.used_browser
    assert result.snapshot_bytes > 10_000
    assert len(result.subpages) == 2
    assert {
        "index.html", "login.html", "forums.html", "snapshot.jpg",
    } <= set(result.files)


def test_entry_page_has_image_map(services, session):
    result = AdaptationPipeline(standard_spec(), services, session).run()
    assert "<map" in result.entry_html
    assert result.entry_html.count("<area") == 2
    assert "proxy.php?page=login" in result.entry_html
    assert 'src="proxy.php?file=snapshot.jpg"' in result.entry_html


def test_snapshot_cached_across_sessions(services, origins, clock):
    manager = SessionManager(clock=clock)
    first = AdaptationPipeline(
        standard_spec(), services, manager.create()
    ).run()
    second = AdaptationPipeline(
        standard_spec(), services, manager.create()
    ).run()
    assert first.used_browser
    assert not second.used_browser  # amortized via the shared cache
    assert second.snapshot_from_cache
    assert second.browser_core_seconds == 0.0
    assert first.snapshot_bytes == second.snapshot_bytes


def test_cache_expiry_forces_rerender(services, session, clock):
    spec = standard_spec()
    AdaptationPipeline(spec, services, session).run()
    clock.advance(3601)
    result = AdaptationPipeline(spec, services, session).run()
    assert result.used_browser


def test_force_refresh_bypasses_cache(services, session):
    spec = standard_spec()
    AdaptationPipeline(spec, services, session).run()
    result = AdaptationPipeline(spec, services, session).run(
        force_refresh=True
    )
    assert result.used_browser


def test_no_prerender_no_browser(services, session):
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    spec.add(
        "subpage", ObjectSelector.css("#loginform"), subpage_id="login"
    )
    result = AdaptationPipeline(spec, services, session).run()
    assert not result.used_browser
    assert result.browser_core_seconds == 0.0
    # Lightweight entry page: residual document plus a menu.
    assert "msite-menu" in result.entry_html
    assert "proxy.php?page=login" in result.entry_html


def test_filter_only_adaptation_never_parses_a_browser(services, session):
    """§3.2: 'The page could be completely adapted after just a few
    simple filters, avoiding a DOM parse altogether.'"""
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    spec.add("title_rewrite", title="Mobile Sawmill")
    spec.add("strip_scripts")
    result = AdaptationPipeline(spec, services, session).run()
    assert not result.used_browser
    assert "<title>Mobile Sawmill</title>" in result.entry_html
    assert "<script" not in result.entry_html.lower()


def test_ajax_subpage_emits_fragment_and_loader(services, session):
    spec = standard_spec()
    spec.add(
        "ajax_subpage", ObjectSelector.css("#navlinks"), subpage_id="nav"
    )
    result = AdaptationPipeline(spec, services, session).run()
    assert "nav.fragment.html" in result.files
    assert "msiteLoad" in result.entry_html
    assert "msite-ajax-nav" in result.entry_html


def test_prerendered_subpage_writes_image(services, session):
    spec = standard_spec()
    spec.add(
        "subpage", ObjectSelector.css("#stats"),
        subpage_id="stats", prerender=True,
    )
    result = AdaptationPipeline(spec, services, session).run()
    assert "images/stats.jpg" in result.files
    stats_artifact = [
        s for s in result.subpages if s.subpage_id == "stats"
    ][0]
    assert stats_artifact.prerendered
    # Two browser renders: page snapshot + object prerender.
    assert result.browser_core_seconds == pytest.approx(2 * 0.536)


def test_partial_prerender_emits_artifacts(services, session):
    spec = standard_spec()
    spec.add(
        "partial_css_prerender", ObjectSelector.css("#logobar"),
        name="logo",
    )
    result = AdaptationPipeline(spec, services, session).run()
    assert "images/logo.jpg" in result.files
    assert "images/logo.json" in result.files


def test_unnamed_partial_prerenders_are_numbered_by_position(
    services, origins, clock
):
    # The default name used to be ``id(element) & 0xFFFF``: different on
    # every run, and two unnamed targets could collide.
    def artifacts(session):
        result = AdaptationPipeline(spec, services, session).run()
        return sorted(
            (relpath.removeprefix("images/"),
             hashlib.sha256(item.data).hexdigest())
            for relpath, item in result.files.items()
            if relpath.startswith("images/")
        )

    spec = AdaptationSpec(site="SawmillCreek", origin_host=FORUM_HOST)
    spec.add("partial_css_prerender", ObjectSelector.css("#logobar"))
    spec.add("partial_css_prerender", ObjectSelector.css("#loginform"))
    spec.add(
        "partial_css_prerender", ObjectSelector.css("#stats"), name="stats"
    )
    manager = SessionManager(clock=clock)
    first = artifacts(manager.create())
    assert [name for name, __ in first] == [
        "partial1.jpg", "partial1.json",
        "partial2.jpg", "partial2.json",
        "stats.jpg", "stats.json",
    ]
    assert artifacts(manager.create()) == first


def test_subpage_dependencies_copied(services, session):
    spec = standard_spec()
    spec.add(
        "copy_dependency", ObjectSelector.css("#logobar"), into="login"
    )
    result = AdaptationPipeline(spec, services, session).run()
    login_html = result.files["login.html"].data.decode("utf-8")
    assert "logobar" in login_html
    assert "loginform" in login_html


def test_searchable_subpage_embeds_index(services, session):
    spec = standard_spec()
    spec.add(
        "searchable", ObjectSelector.css("#forumbits"),
        subpage_id="forums",
    )
    result = AdaptationPipeline(spec, services, session).run()
    forums_html = result.files["forums.html"].data.decode("utf-8")
    assert "msiteSearch" in forums_html
    assert "msiteWords" in forums_html
    assert "msite-search-trigger" in forums_html


def test_origin_error_raises_fetch_error(services, session):
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST,
                          page_path="/missing.php")
    with pytest.raises(FetchError):
        AdaptationPipeline(spec, services, session).run()


def test_unknown_host_raises(services, session):
    spec = AdaptationSpec(site="S", origin_host="nowhere.example")
    with pytest.raises(FetchError):
        AdaptationPipeline(spec, services, session).run()


def test_a_bad_spec_is_refused_when_the_plan_compiles(services, session):
    """A request does not re-validate the spec: ``MSiteProxy`` and
    ``TransformPlan.compile`` do, and a pipeline handed no plan compiles
    its own — so a bad spec still cannot get as far as ``run()``."""
    bad = AdaptationSpec(site="S", origin_host="")
    with pytest.raises(CodegenError):
        AdaptationPipeline(bad, services, session)
    with pytest.raises(CodegenError):
        TransformPlan.compile(bad)
    good = standard_spec()
    plan = TransformPlan.compile(good)
    validated = []
    good.validate = lambda: validated.append(1)
    AdaptationPipeline(good, services, session, plan=plan)
    assert validated == []  # the compiled plan already vouches for it


def test_http_auth_interposition(services, session):
    spec = AdaptationSpec(
        site="S", origin_host=FORUM_HOST, page_path="/private.php"
    )
    spec.add("http_auth", realm="private")
    with pytest.raises(AuthenticationRequired):
        AdaptationPipeline(spec, services, session).run()
    # With stored credentials the same pipeline succeeds.
    session.http_credentials[FORUM_HOST] = ("woodfan", "hunter2")
    result = AdaptationPipeline(spec, services, session).run()
    assert "Private messages for woodfan" in result.entry_html


def test_user_cookies_flow_to_origin(services, session, origins, clock):
    # Log the session's jar in first (as the proxy's auth page would).
    from repro.net.client import HttpClient

    login_client = HttpClient(origins, jar=session.jar, clock=clock)
    login_client.post(
        f"http://{FORUM_HOST}/login.php",
        {"vb_login_username": "woodfan", "vb_login_password": "hunter2"},
    )
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    result = AdaptationPipeline(spec, services, session).run()
    assert "Welcome back" in result.entry_html


def test_notes_propagate(services, session):
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    spec.add("rewrite_images", quality=30)
    result = AdaptationPipeline(spec, services, session).run()
    assert any("rewrite_images" in note for note in result.notes)
