"""Replay shares, never copies: one decode per cache entry.

A bundle this process stores is its entry's decode; one admitted from a
lower tier is decoded on its first load.  That decode is what every
later replay's page points at: each warm first visit's page holds the
*same* file map, whichever proxy or fleet worker served it, and the
session's delta baseline is the entry body the response sent, not a
copy.  The decode belongs to the entry, so a
re-store (``?refresh=1``), an invalidation or a TTL expiry leaves the
next replay reading the new entry, never an old decode.
"""

import dataclasses
import gc
import sys
import threading
import tracemalloc
from contextlib import closing

import pytest

from repro.cluster.deployment import ClusterDeployment
from repro.cluster.sharedcache import InProcessSharedCache
from repro.core import fastpath
from repro.core.cache import PrerenderCache
from repro.core.fastpath import FastpathBundle
from repro.core.pipeline import ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.sessions import SESSION_COOKIE
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.sim.clock import Clock
from repro.sites.news.app import NewsApplication
from repro.sites.news.data import Newsroom
from repro.sites.news.spec import news_fastpath_spec
from tests.conftest import FORUM_HOST, NEWS_HOST, PROXY_HOST, session_page
from tests.fastpath.test_bundle_structure import _forum_paper_spec
from tests.fastpath.test_fastpath_cache import make_bundle
from tests.fastpath.test_proxy_304 import make_proxy

URL = f"http://{PROXY_HOST}/proxy.php"
#: Retained heap per warm first visit of the forum paper spec: its
#: session, jar and page, not a copy of the ~94 KB artifacts.
RETAINED_PER_VISIT = 16 * 1024
#: The same for the news fast-path spec: the session and its page,
#: with no copy of the entry page.
NEWS_RETAINED_PER_VISIT = 6 * 1024


def _visit(app, clock, params=""):
    """One first visit (a fresh jar, so a fresh session); its jar."""
    jar = CookieJar()
    response = HttpClient({PROXY_HOST: app}, jar=jar, clock=clock).get(
        URL + params
    )
    assert response.status == 200
    return jar


def _session_page(app, jar):
    """The page the proxy (in a fleet, the worker that served the jar)
    holds for the jar's session."""
    proxies = (
        [worker.app for worker in app.workers]
        if isinstance(app, ClusterDeployment) else [app]
    )
    (page,) = [
        page for page in (session_page(proxy, jar) for proxy in proxies)
        if page is not None
    ]
    return page


def _session_files(app, jar):
    """``{relpath: data}`` of every file the jar's session is served."""
    return {
        relpath: item.data
        for relpath, item in _session_page(app, jar).files.items()
    }


def _bundle_entry(cache):
    (key,) = [key for key in cache.keys() if key.startswith("fastpath:")]
    return key, cache.peek(key)


def _assert_shared(app, cache, jars):
    """Every jar's session page serves the entry decode's own file map;
    returns how many files that is."""
    _, entry = _bundle_entry(cache)
    bundle = entry.decoded
    assert bundle is not None and bundle.files
    for jar in jars:
        assert _session_page(app, jar).files is bundle.file_map
    return len(bundle.files)


@pytest.fixture(scope="module")
def paper_proxy(forum_app):
    """The forum paper spec (snapshot and all), adapted once."""
    clock = Clock()
    services = ProxyServices(origins={FORUM_HOST: forum_app}, clock=clock)
    proxy = MSiteProxy(_forum_paper_spec(), services, proxy_base="proxy.php")
    _visit(proxy, clock)
    return proxy, clock


def test_warm_first_visits_through_a_proxy_share_every_artifact(paper_proxy):
    proxy, clock = paper_proxy
    jars = [_visit(proxy, clock), _visit(proxy, clock)]
    assert _assert_shared(proxy, proxy.services.cache, jars) >= 6


def test_warm_first_visits_through_a_fleet_share_every_artifact(
    forum_app, clock
):
    with ClusterDeployment(
        spec=_forum_paper_spec(), origins={FORUM_HOST: forum_app},
        workers=2, clock=clock,
    ) as cluster:
        _visit(cluster, clock)
        jars = [_visit(cluster, clock), _visit(cluster, clock)]
        cache = cluster.shared_cache.cache
        assert _assert_shared(cluster, cache, jars) >= 6


def _counting_decodes(monkeypatch) -> list:
    """Count every ``FastpathBundle.from_bytes`` call from here on."""
    decodes = []
    real = FastpathBundle.from_bytes.__func__

    def counting(cls, raw):
        decodes.append(len(raw))
        return real(cls, raw)

    monkeypatch.setattr(FastpathBundle, "from_bytes", classmethod(counting))
    return decodes


def _recording_stores(monkeypatch) -> list:
    """Every bundle ``fastpath.store_bundle`` stores from here on."""
    stored = []
    real = fastpath.store_bundle

    def recording(cache, key, pointer_key, bundle, ttl_s):
        stored.append(bundle)
        real(cache, key, pointer_key, bundle, ttl_s=ttl_s)

    monkeypatch.setattr(fastpath, "store_bundle", recording)
    return stored


def _hits(proxy) -> float:
    return proxy.services.observability.registry.counter(
        "msite_fastpath_hits_total"
    ).value


def test_a_stored_entry_is_its_own_decode(origins, clock, monkeypatch):
    stored = _recording_stores(monkeypatch)
    decodes = _counting_decodes(monkeypatch)
    proxy = make_proxy(origins, clock)
    for _ in range(9):
        _visit(proxy, clock)
    assert _hits(proxy) == 8
    (bundle,) = stored
    _, entry = _bundle_entry(proxy.services.cache)
    assert entry.decoded is bundle
    assert decodes == []


def test_an_entry_admitted_from_the_disk_tier_is_decoded_once(
    origins, clock, monkeypatch, tmp_path
):
    spec = make_proxy(origins, clock).spec

    def proxy_over(backend):
        services = ProxyServices(
            origins=origins, clock=clock, cache=backend.cache
        )
        return MSiteProxy(spec, services, proxy_base="proxy.php")

    with closing(InProcessSharedCache(root=str(tmp_path), clock=clock)) as b:
        _visit(proxy_over(b), clock)
    decodes = _counting_decodes(monkeypatch)
    with closing(
        InProcessSharedCache(root=str(tmp_path), clock=clock)
    ) as restarted:
        assert restarted.preloaded > 0
        proxy = proxy_over(restarted)
        for _ in range(8):
            _visit(proxy, clock)
        assert _hits(proxy) == 8
        assert len(decodes) == 1


def test_the_session_baseline_is_the_served_body(origins, clock):
    """No session keeps a copy of its entry page: its delta baseline is
    the object the response sent, and on a replay that is the cache
    decode's own entry ``bytes``."""
    proxy = make_proxy(origins, clock)
    for _ in range(2):  # the storing run, then a replay
        jar = CookieJar()
        response = HttpClient({PROXY_HOST: proxy}, jar=jar, clock=clock).get(
            URL
        )
        assert response.headers.get("ETag") is not None
        session = proxy.sessions.get(jar.get(SESSION_COOKIE).value)
        assert session.last_entry_body is response.body
        bundle = _bundle_entry(proxy.services.cache)[1].decoded
        (entry,) = [
            item.data for item in bundle.files
            if item.relpath == bundle.entry_rel
        ]
        assert response.body is entry
    assert _hits(proxy) == 1


def _refresh(proxy, clock):
    _visit(proxy, clock, "?refresh=1")


def _invalidate(proxy, clock):
    key, _ = _bundle_entry(proxy.services.cache)
    assert proxy.services.cache.invalidate(key)
    _visit(proxy, clock)  # a miss: adapts and stores again


def _expire(proxy, clock):
    clock.advance(3601)
    _visit(proxy, clock)  # the bundle has lapsed: adapts and stores again


@pytest.mark.parametrize("event", [_refresh, _invalidate, _expire])
def test_the_replay_after_a_new_entry_reads_the_new_entry(
    origins, clock, event
):
    proxy = make_proxy(origins, clock)
    cache = proxy.services.cache
    _visit(proxy, clock)
    before = _session_files(proxy, _visit(proxy, clock))
    _, old = _bundle_entry(cache)
    event(proxy, clock)
    key, new = _bundle_entry(cache)
    assert new is not old
    jar = _visit(proxy, clock)
    _assert_shared(proxy, cache, [jar])
    assert new.decoded is not old.decoded
    assert _session_files(proxy, jar) == before
    # And a different container stored under the same key is what the
    # next replay serves: the old decode went with its entry.
    changed = fastpath.rebundle(new.decoded, b"<p>edited</p>", None)
    cache.put(key, changed.to_bytes(), ttl_s=3600)
    assert _session_files(proxy, _visit(proxy, clock))[
        changed.entry_rel
    ] == b"<p>edited</p>"


def test_racing_first_loads_of_one_entry_agree():
    """No lock guards the first decode: threads that race on it each
    decode an equal bundle, and the entry keeps one of theirs."""
    cache = PrerenderCache()
    expected = make_bundle()
    raw = expected.to_bytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            cache.put("k", raw, ttl_s=60)  # a new entry, not yet decoded
            start = threading.Barrier(8)
            loaded = []

            def load():
                start.wait(timeout=10)
                loaded.append(fastpath.load_bundle(cache, "k"))

            threads = [threading.Thread(target=load) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(loaded) == 8
            assert all(bundle == expected for bundle in loaded)
            kept = cache.peek("k").decoded
            assert any(bundle is kept for bundle in loaded)
    finally:
        sys.setswitchinterval(interval)


def test_a_bundle_is_read_only():
    bundle = make_bundle()
    with pytest.raises(dataclasses.FrozenInstanceError):
        bundle.entry_html = "<p>changed</p>"
    assert isinstance(bundle.files, tuple)
    assert isinstance(bundle.subpages, tuple)
    assert isinstance(bundle.notes, tuple)


def _retained_per_visit(proxy, clock, visits=200) -> float:
    """Traced heap each of ``visits`` warm first visits leaves behind."""
    for _ in range(5):  # every lazy table on the warm path filled
        _visit(proxy, clock)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(visits):
            _visit(proxy, clock)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(proxy.sessions) >= visits
    return retained / visits


def test_a_warm_first_visit_retains_its_session_not_a_copy(paper_proxy):
    proxy, clock = paper_proxy
    retained = _retained_per_visit(proxy, clock)
    assert retained <= RETAINED_PER_VISIT, retained


def test_a_warm_news_visit_retains_no_copy_of_its_entry_page():
    """The news entry page (~7 KB) is small beside the forum's
    artifacts, so a session that kept its own copy of it (as its delta
    baseline, say) would show here."""
    clock = Clock()
    services = ProxyServices(
        origins={NEWS_HOST: NewsApplication(Newsroom(seed=0x5E55_10))},
        clock=clock,
    )
    proxy = MSiteProxy(news_fastpath_spec(), services, proxy_base="proxy.php")
    retained = _retained_per_visit(proxy, clock)
    assert retained <= NEWS_RETAINED_PER_VISIT, retained
