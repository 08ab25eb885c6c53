"""Shared fixtures: origin sites, clients, and a fully mobilized proxy."""

import pytest

from repro.admin.tool import AdminTool
from repro.cluster.sharedcache import InProcessSharedCache
from repro.core.cache import PrerenderCache
from repro.core.codegen import load_generated_proxy
from repro.core.pipeline import ProxyServices
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.sim.clock import Clock
from repro.sites.classifieds.app import ClassifiedsApplication
from repro.sites.forum.app import ForumApplication
from repro.sites.news.app import NewsApplication

FORUM_HOST = "www.sawmillcreek.org"
PROXY_HOST = "m.sawmillcreek.org"
CLASSIFIEDS_HOST = "portland.craigslist.org"
NEWS_HOST = "www.metroherald.com"


@pytest.fixture(scope="session")
def forum_app():
    """One forum origin shared across the whole run (generation is pure)."""
    return ForumApplication()


@pytest.fixture(scope="session")
def classifieds_app():
    return ClassifiedsApplication()


@pytest.fixture(scope="session")
def news_app():
    return NewsApplication()


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def make_cache():
    """Factory (``PrerenderCache`` keyword arguments) for the cache the
    contract suites pin TTL, stale-grace, single-flight and invalidation
    semantics against.  Here it builds the ``[memory]`` tier list;
    ``tests/cluster/contract_disk`` re-collects the same test functions
    under a ``make_cache`` that builds ``[memory, disk]``."""
    return PrerenderCache


@pytest.fixture()
def make_backend():
    """As :func:`make_cache`, for suites that drive the fleet backend
    (bus + cache) rather than a bare cache."""
    return InProcessSharedCache


@pytest.fixture()
def origins(forum_app, classifieds_app, news_app):
    return {
        FORUM_HOST: forum_app,
        CLASSIFIEDS_HOST: classifieds_app,
        NEWS_HOST: news_app,
    }


@pytest.fixture()
def client(origins, clock):
    return HttpClient(origins, jar=CookieJar(), clock=clock)


@pytest.fixture(scope="session")
def entry_page_html(forum_app):
    client = HttpClient({FORUM_HOST: forum_app})
    return client.get(f"http://{FORUM_HOST}/index.php").text_body


@pytest.fixture(scope="session")
def entry_document(entry_page_html):
    from repro.html.parser import parse_html

    return parse_html(entry_page_html)


def build_standard_spec(tool: AdminTool) -> None:
    """The §4.3 adaptation used by integration tests."""
    from repro.core.spec import ObjectSelector

    tool.assign_page("prerender")
    tool.assign_page("cacheable", ttl_s=3600)
    login = tool.select_css("#loginform")
    tool.assign(login, "subpage", subpage_id="login", title="Log in")
    tool.spec.add(
        "copy_dependency", ObjectSelector.css("#logobar"), into="login"
    )
    tool.assign(
        tool.select_css("#forumbits"),
        "subpage", subpage_id="forums", title="Forums",
    )
    tool.assign(
        tool.select_css("#navlinks"),
        "ajax_subpage", subpage_id="nav", title="Navigation",
    )
    tool.assign_page("ajax_rewrite")


@pytest.fixture()
def mobilized(origins, clock):
    """(proxy, services, mobile_client) with the standard adaptation."""
    admin_client = HttpClient(origins, clock=clock)
    tool = AdminTool(
        admin_client,
        f"http://{FORUM_HOST}/index.php",
        site_name="SawmillCreek",
    )
    build_standard_spec(tool)
    services = ProxyServices(origins=origins, clock=clock)
    proxy = load_generated_proxy(tool.generate_proxy_source()).create_proxy(
        services
    )
    mobile = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    return proxy, services, mobile
