"""Canonical adaptation specs for the forum family.

Two builders over the SawmillCreek front page:

* :func:`forum_demo_spec` — the built-in mobilization the single-proxy
  demo, the chaos harness and the multi-region deployments share:
  prerender the page, cache it, and detach the login form and the
  forum list into subpages.
* :func:`standard_forum_spec` — the same plus the who's-online box, the
  workload simulator's and the named forum scenarios' spec.

:func:`forum_demo_proxy` deploys the first behind a generated proxy;
``CHAOS_WARMUP`` and ``CHAOS_WORKLOAD`` are the paths both chaos
harnesses (``msite chaos`` and ``msite chaos --region-faults``) visit
on it.
"""

from __future__ import annotations

from repro.core.spec import AdaptationSpec, ObjectSelector

FORUM_HOST = "www.sawmillcreek.org"
FORUM_SITE = "SawmillCreek"


def forum_demo_spec(host: str = FORUM_HOST) -> AdaptationSpec:
    spec = AdaptationSpec(site=FORUM_SITE, origin_host=host)
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


def standard_forum_spec(host: str = FORUM_HOST) -> AdaptationSpec:
    spec = forum_demo_spec(host)
    spec.add(
        "subpage", ObjectSelector.css("#wol"),
        subpage_id="online", title="Who's online",
    )
    return spec


def forum_demo_proxy():
    """The demo spec's generated proxy over a fresh forum, plus a
    mobile client with its own cookie jar.

    The CLI's ``demo``, ``metrics`` and ``trace`` and the chaos harness
    all drive this one deployment.
    """
    from repro.core.codegen import generate_proxy_source, load_generated_proxy
    from repro.core.pipeline import ProxyServices
    from repro.net.client import HttpClient
    from repro.net.cookies import CookieJar
    from repro.sites.forum.app import ForumApplication

    proxy = load_generated_proxy(
        generate_proxy_source(forum_demo_spec())
    ).create_proxy(ProxyServices(origins={FORUM_HOST: ForumApplication()}))
    mobile = HttpClient({"m.sawmillcreek.org": proxy}, jar=CookieJar())
    return proxy, mobile


#: The chaos runs' request mix over the demo proxy, cycled.
#: ``?refresh=1`` forces renders, so a render fault schedule is actually
#: exercised against the warm cache and the invalidation log stays busy.
CHAOS_WORKLOAD = (
    "",
    "?page=forums",
    "?file=snapshot.jpg",
    "?refresh=1",
    "?page=login",
    "",
)

#: The paths a chaos run visits once to warm the cache before its faults.
CHAOS_WARMUP = ("", "?page=forums", "?page=login", "?file=snapshot.jpg")
