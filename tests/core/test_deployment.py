"""Multi-page proxy deployments."""

import pytest

from repro.core.deployment import ProxyDeployment
from repro.core.pipeline import ProxyServices
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.errors import CodegenError
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from tests.conftest import FORUM_HOST, PROXY_HOST, session_page


def index_spec():
    spec = AdaptationSpec(site="S", origin_host=FORUM_HOST)
    spec.add("prerender")
    spec.add("cacheable", ttl_s=3600)
    spec.add(
        "subpage", ObjectSelector.css("#loginform"), subpage_id="login"
    )
    return spec


def thread_spec(forum_app):
    thread_id = next(iter(forum_app.community.threads_by_id))
    spec = AdaptationSpec(
        site="S", origin_host=FORUM_HOST,
        page_path=f"/showthread.php?t={thread_id}",
    )
    spec.add("ajax_rewrite")
    spec.add("media_thumbnail")
    return spec


@pytest.fixture()
def deployment(origins, clock, forum_app):
    services = ProxyServices(origins=origins, clock=clock)
    deployment = ProxyDeployment(services)
    deployment.add_page("index", index_spec())
    deployment.add_page("thread", thread_spec(forum_app))
    return deployment


@pytest.fixture()
def mobile(deployment, clock):
    return HttpClient({PROXY_HOST: deployment}, jar=CookieJar(), clock=clock)


def test_dispatch_by_page_name(deployment, mobile):
    index = mobile.get(f"http://{PROXY_HOST}/index.php")
    thread = mobile.get(f"http://{PROXY_HOST}/thread.php")
    assert index.ok and thread.ok
    assert "<map" in index.text_body  # snapshot menu
    assert "msite-media-thumb" in thread.text_body


def test_root_serves_default_page(deployment, mobile):
    response = mobile.get(f"http://{PROXY_HOST}/")
    assert response.ok
    assert "<map" in response.text_body


def test_unknown_page_404_lists_available(deployment, mobile):
    response = mobile.get(f"http://{PROXY_HOST}/ghost.php")
    assert response.status == 404
    assert "index" in response.text_body
    assert "thread" in response.text_body


def test_duplicate_page_rejected(deployment):
    with pytest.raises(CodegenError):
        deployment.add_page("index", index_spec())


def test_one_session_across_pages(deployment, mobile):
    mobile.get(f"http://{PROXY_HOST}/index.php")
    mobile.get(f"http://{PROXY_HOST}/thread.php")
    assert len(deployment.sessions) == 1


def test_generated_files_namespaced_per_page(deployment, mobile):
    mobile.get(f"http://{PROXY_HOST}/index.php")
    mobile.get(f"http://{PROXY_HOST}/thread.php")
    index = session_page(deployment.page("index"), mobile.jar)
    thread = session_page(deployment.page("thread"), mobile.jar)
    assert "index.html" in index.files and "index.html" in thread.files
    # Each page's artifacts stay with its own page.
    assert "snapshot.jpg" in index.files
    assert "snapshot.jpg" not in thread.files


def test_subpage_and_files_resolve_within_namespace(deployment, mobile):
    mobile.get(f"http://{PROXY_HOST}/index.php")
    login = mobile.get(f"http://{PROXY_HOST}/index.php?page=login")
    assert login.ok
    assert "loginform" in login.text_body
    snap = mobile.get(f"http://{PROXY_HOST}/index.php?file=snapshot.jpg")
    assert snap.ok
    thumb = mobile.get(f"http://{PROXY_HOST}/thread.php?file=media0.jpg")
    assert thumb.ok


def test_proxy_bases_point_back_to_own_page(deployment, mobile):
    index = mobile.get(f"http://{PROXY_HOST}/index.php").text_body
    assert "index.php?page=login" in index
    assert "thread.php" not in index


def test_jar_shared_across_pages(deployment, mobile, origins, clock):
    mobile.get(f"http://{PROXY_HOST}/index.php")
    session = next(iter(deployment.sessions._sessions.values()))
    # Log the shared jar in via the origin.
    HttpClient(origins, jar=session.jar, clock=clock).post(
        f"http://{FORUM_HOST}/login.php",
        {"vb_login_username": "woodfan", "vb_login_password": "hunter2"},
    )
    # Both page proxies now fetch as the logged-in user: the thread page
    # adaptation succeeds with the same jar (no new session created).
    mobile.get(f"http://{PROXY_HOST}/thread.php")
    assert len(deployment.sessions) == 1


def test_aggregate_counters(deployment, mobile):
    mobile.get(f"http://{PROXY_HOST}/index.php")
    mobile.get(f"http://{PROXY_HOST}/thread.php")
    total = deployment.total_counters()
    assert total.requests == 2
    assert total.entry_pages == 2
    assert total.browser_renders == 1  # only the prerendered index
