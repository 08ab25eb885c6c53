"""What each workload runs against: spec, origin, deployment, oracle.

Every deployment is a default-configured ``ClusterDeployment(workers=2)``
— no ``ProxyServices`` knob is flipped to shape a workload; the trace
alone selects the code path.  The specs are the benchmark's own copies
(``repro.bench`` and ``repro.workload`` are slated for collapse), built
only from ``repro.core.spec`` and the site packages.

All traffic is one device class (an iPhone user agent): the axis the
workloads vary is the request mix, not the device mix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cluster import ClusterDeployment
from repro.core.pipeline import ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.sites.forum.app import ForumApplication
from repro.sites.news.app import NewsApplication
from repro.sites.news.spec import NEWS_HOST, news_fastpath_spec

from perfbench.traces import FORUM_SURFACE, NEWS_SURFACE, REFRESH_PATH

FORUM_HOST = "www.sawmillcreek.org"
PROXY_HOST = "m.perfbench.example"
PHONE_UA = (
    "Mozilla/5.0 (iPhone; U; CPU iPhone OS 4_0 like Mac OS X; en-us) "
    "AppleWebKit/532.9 (KHTML, like Gecko) Version/4.0.5 Mobile/8A293 "
    "Safari/6531.22.7"
)
CLUSTER_WORKERS = 2


def forum_paper_spec() -> AdaptationSpec:
    """The paper's forum mobilization: a cached pre-rendered snapshot
    entry page with login / forums / who's-online subpages and an
    asynchronously loaded navigation pane."""
    spec = AdaptationSpec(site="SawmillCreek", origin_host=FORUM_HOST)
    spec.add("prerender")
    spec.add("cacheable", ttl_s=3600)
    for selector, subpage_id, title in (
        ("#loginform", "login", "Log in"),
        ("#forumbits", "forums", "Forums"),
        ("#wol", "online", "Who's online"),
    ):
        spec.add(
            "subpage", ObjectSelector.css(selector),
            subpage_id=subpage_id, title=title,
        )
    spec.add(
        "ajax_subpage", ObjectSelector.css("#navlinks"),
        subpage_id="nav", title="Navigation",
    )
    return spec


def forum_dom_spec() -> AdaptationSpec:
    """DOM-phase forum adaptation with no browser render: the whole
    cost is fetch, parse, select/apply, serialize and store."""
    spec = AdaptationSpec(site="SawmillCreek", origin_host=FORUM_HOST)
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


@dataclass(frozen=True)
class Target:
    """The system under test for one workload."""

    origin_host: str
    make_spec: Callable[[], AdaptationSpec]
    make_origin: Callable[[], Application]
    #: Paths warmed during set-up and checked against the oracle.
    surface: tuple[str, ...]
    #: The spec pre-renders the page: a forced refresh is a real
    #: browser render.
    prerenders: bool = False
    #: The origin changes during the run, so bodies are only comparable
    #: to the oracle once traffic has quiesced.
    mutates_origin: bool = False


TARGETS: dict[str, Target] = {
    "warm-arrivals": Target(
        FORUM_HOST, forum_paper_spec, ForumApplication,
        FORUM_SURFACE, prerenders=True,
    ),
    "full-adapt": Target(
        FORUM_HOST, forum_dom_spec, ForumApplication,
        ("proxy.php",),
    ),
    "content-churn": Target(
        NEWS_HOST, news_fastpath_spec, NewsApplication,
        NEWS_SURFACE, mutates_origin=True,
    ),
    "browser-mix": Target(
        FORUM_HOST, forum_paper_spec, ForumApplication,
        FORUM_SURFACE, prerenders=True,
    ),
}


@dataclass
class Deployment:
    """One set-up: the cluster, the origin behind it, and its spec."""

    target: Target
    spec: AdaptationSpec
    origin: Application  # the real origin (unwrapped)
    cluster: ClusterDeployment

    def close(self) -> None:
        self.cluster.close()


def fetch(
    app: Application,
    path: str,
    jar: Optional[CookieJar] = None,
    **headers: str,
) -> Response:
    """One phone GET of ``path`` on the proxy host, served by ``app``."""
    client = HttpClient(
        {PROXY_HOST: app}, jar=jar if jar is not None else CookieJar()
    )
    request = Request.get(
        f"http://{PROXY_HOST}/{path}", User_Agent=PHONE_UA, **headers
    )
    return client.request(request)


def deploy(
    target: Target,
    wrap_origin: Callable[[Application], Application] = lambda app: app,
    wrap_proxy: Optional[Callable[[MSiteProxy], MSiteProxy]] = None,
) -> Deployment:
    """Origin + cluster + plan compile + one warm-up pass of the surface.

    The warm-up includes the cold first adaptation (on the pre-render
    spec, the first browser render), so the measured phase starts from
    a warm cache.  The wrappers are the traced run's boundary spans;
    both go in through public constructor arguments.
    """
    spec = target.make_spec()
    origin = target.make_origin()
    make_app = None
    if wrap_proxy is not None:
        make_app = lambda services: wrap_proxy(MSiteProxy(spec, services))
    cluster = ClusterDeployment(
        spec=spec,
        origins={target.origin_host: wrap_origin(origin)},
        workers=CLUSTER_WORKERS,
        make_app=make_app,
    )
    jar = CookieJar()
    for path in target.surface:
        response = fetch(cluster, path, jar)
        if response.status != 200:
            cluster.close()
            raise RuntimeError(
                f"warm-up of {path!r} answered {response.status}"
            )
    return Deployment(target, spec, origin, cluster)


def body_hash(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def oracle_hashes(target: Target, revisions: int = 0) -> dict[str, str]:
    """SHA-256 of the correct body per path: a fresh single
    ``MSiteProxy`` running the full pipeline over a fresh origin.

    ``revisions`` replays that many newsroom edits first (the edit
    stream is a pure function of the revision index), which is how the
    churn workload gets an oracle for its final origin state.  A forced
    refresh must answer with the same entry page as a plain visit.
    """
    origin = target.make_origin()
    for _ in range(revisions):
        origin.newsroom.revise()
    proxy = MSiteProxy(
        target.make_spec(),
        ProxyServices(origins={target.origin_host: origin}),
    )
    jar = CookieJar()
    hashes = {}
    for path in target.surface:
        response = fetch(proxy, path, jar)
        if response.status != 200:
            raise RuntimeError(
                f"oracle fetch of {path!r} answered {response.status}"
            )
        hashes[path] = body_hash(response.body)
    hashes[REFRESH_PATH] = hashes[target.surface[0]]
    return hashes
