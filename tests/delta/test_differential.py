"""Differential conformance: delta on vs delta off, byte for byte.

Two deployments of every conformance spec share one set of origins and
replay the same request sequence while the newsroom publishes edits
between rounds.  The delta-enabled side may serve warm misses by
patching cached bundles; the delta-disabled side replays the full
pipeline every time.  Any divergence in status or body is a delta
invariant violation.

The news fast-path spec and a filter-only news spec (no DOM-phase step)
ride along because their bundles are storable *and* their origin
churns — the delta engine must genuinely apply patches there, not just
stay out of the way (the final assertions check it did, with no
fallback).  The news cases also interleave what replaces or ages a
stashed seed (``?refresh=1``, the clock) with the revisions that build
a memo from one.
"""

import pytest

from repro.core.codegen import generate_proxy_source, load_generated_proxy
from repro.core.pipeline import ProxyServices
from repro.core.spec import AdaptationSpec
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.sim.clock import Clock
from repro.sites.classifieds.app import ClassifiedsApplication
from repro.sites.forum.app import ForumApplication
from repro.sites.news.app import NewsApplication
from repro.sites.news.data import Newsroom
from repro.sites.news.spec import NEWS_SITE, news_fastpath_spec

from tests.cluster.specs import SPEC_CASES, subpage_ids
from tests.conftest import CLASSIFIEDS_HOST, FORUM_HOST, NEWS_HOST

PROXY_HOST = "m.example.test"

PHONE_UA = (
    "Mozilla/5.0 (iPhone; U; CPU iPhone OS 4_0 like Mac OS X; en-us) "
    "AppleWebKit/532.9 (KHTML, like Gecko) Version/4.0.5 Mobile/8A293 "
    "Safari/6531.22.7"
)

#: Four visits, the newsroom publishing between them.
ROUNDS = ["visit"] + ["revise", "visit"] * 3

#: Visits with the seed's whole lifecycle between them, on the news
#: TTL of 3600 s: stashes replaced unbuilt by refreshes, a memo built
#: from the survivor and patched forward, a refresh over a built memo,
#: a memo built half-way through its run's TTL and met again exactly at
#: that run's deadline, the stash after it, and a stash that expires
#: unbuilt.
INTERLEAVED = [
    "visit", "refresh", "refresh",
    "revise", "visit",
    ("advance", 1800.0), "revise", "visit",
    "refresh", ("advance", 1800.0),
    "revise", "visit",
    ("advance", 1800.0), "revise", "visit",
    "revise", "visit",
    "refresh", ("advance", 3600.0), "revise", "visit",
]

def news_filter_only_spec() -> AdaptationSpec:
    """Source filters and a cache flag, no DOM-phase step: the paper's
    filter-only adaptation, seeded and patched like any other."""
    spec = AdaptationSpec(
        site=NEWS_SITE, origin_host=NEWS_HOST, page_path="/section/tech/"
    )
    spec.add("strip_scripts")
    spec.add("cacheable", ttl_s=3600)
    return spec


#: The storable news specs whose churn the engine must patch.
PATCHED = {
    "news_fastpath": news_fastpath_spec,
    "news_filter_only": news_filter_only_spec,
}

CASES = [
    (name, factory, INTERLEAVED if name.startswith("news") else ROUNDS)
    for name, factory in SPEC_CASES + [
        (name, lambda origins, clock, make=make: make())
        for name, make in PATCHED.items()
    ]
]


def _fresh_origins() -> dict:
    """Per-test origins: revisions must not leak into shared fixtures."""
    return {
        FORUM_HOST: ForumApplication(),
        CLASSIFIEDS_HOST: ClassifiedsApplication(),
        NEWS_HOST: NewsApplication(Newsroom(seed=0xD1F_0FF)),
    }


def _paths(spec) -> list[str]:
    return ["proxy.php"] + [
        f"proxy.php?page={subpage_id}" for subpage_id in subpage_ids(spec)
    ]


def _deploy(module, origins, delta_enabled: bool):
    clock = Clock()
    services = ProxyServices(
        origins=origins, clock=clock, delta_enabled=delta_enabled
    )
    proxy = module.create_proxy(services)

    def fresh_session() -> HttpClient:
        # A proxy pins each session's adapted page, so re-adaptation —
        # the thing under test — happens on *new* sessions.
        return HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)

    return fresh_session, services, clock


@pytest.mark.parametrize(
    "name,factory,script", CASES, ids=[name for name, *_ in CASES]
)
def test_delta_deployment_is_byte_identical_to_full_replay(
    name, factory, script
):
    origins = _fresh_origins()
    spec = factory(origins, Clock())
    module = load_generated_proxy(generate_proxy_source(spec))
    delta_sessions, delta_services, delta_clock = _deploy(
        module, origins, True
    )
    full_sessions, full_services, full_clock = _deploy(
        module, origins, False
    )
    assert delta_services.delta is not None
    assert full_services.delta is None
    newsroom = origins[NEWS_HOST].newsroom
    for position, step in enumerate(script):
        if step == "revise":
            newsroom.revise()
            continue
        if isinstance(step, tuple):
            __, seconds = step
            delta_clock.advance(seconds)
            full_clock.advance(seconds)
            continue
        paths = ["proxy.php?refresh=1"] if step == "refresh" else _paths(spec)
        delta_client = delta_sessions()
        full_client = full_sessions()
        for path in paths:
            url = f"http://{PROXY_HOST}/{path}"
            ours = delta_client.get(url, headers={"User-Agent": PHONE_UA})
            theirs = full_client.get(url, headers={"User-Agent": PHONE_UA})
            assert ours.status == theirs.status, (name, path, position)
            assert ours.body == theirs.body, (
                f"{name}: delta output diverged on {path} "
                f"(step {position}: {step})"
            )
    if name in PATCHED:
        registry = delta_services.observability.registry

        def count(counter: str) -> float:
            return registry.counter(f"msite_delta_{counter}_total").value

        assert count("applied") > 0, (
            "the churn rounds never exercised the engine"
        )
        assert count("fallbacks") == 0, "a revision fell back to a replay"
        # Seven full runs stashed (the cold miss, four refreshes, two
        # expiries); only the three met by a revision inside their TTL
        # were ever built.
        assert (count("deferred"), count("seeds"), count("expired")) == (
            7, 3, 2
        )
