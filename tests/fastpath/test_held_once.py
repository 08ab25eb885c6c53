"""Each artifact is held once.

The memory tier keeps a stored bundle in one form, decoded: the
container is encoded only when a lower tier persists the entry, once
per persist, and is not kept.  An entry page is one ``bytes`` object —
the run's, the replay's or the delta rebundle's ``entry_body`` is the
object the page's entry file and the bundle's entry file hold.  So a
stream of news revisions grows the heap by about one entry page each,
not three.
"""

import gc
import tracemalloc
from contextlib import closing

from repro.cluster.sharedcache import InProcessSharedCache
from repro.core.fastpath import FastpathBundle
from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.sessions import SessionManager
from repro.sim.clock import Clock
from repro.sites.news.app import NewsApplication
from repro.sites.news.data import Newsroom
from repro.sites.news.spec import NEWS_HOST, news_fastpath_spec
from tests.fastpath.test_proxy_304 import make_proxy
from tests.fastpath.test_replay_sharing import (
    _bundle_entry,
    _hits,
    _recording_stores,
    _visit,
)

#: Heap a news revision may retain beyond its entry page (~3.7 KB): the
#: bundle, file and cache records, the cache key, the memo's patched
#: parts and, for the odd full-run fallback, its fresh subpage files —
#: not a second or third copy of the page (that read ~26 KB a revision).
REVISION_ALLOWANCE = 6 * 1024


def _counting_encodes(monkeypatch) -> list:
    """Every ``FastpathBundle.to_bytes`` call from here on."""
    encodes = []
    real = FastpathBundle.to_bytes

    def counting(bundle):
        encodes.append(bundle)
        return real(bundle)

    monkeypatch.setattr(FastpathBundle, "to_bytes", counting)
    return encodes


def _holds_container(entry) -> bool:
    return any(
        isinstance(held, bytes) and held.startswith(b"MSFP")
        for held in gc.get_referents(entry)
    )


def test_the_memory_tier_holds_a_stored_bundle_decoded_and_never_encodes(
    origins, clock, monkeypatch
):
    stored = _recording_stores(monkeypatch)
    encodes = _counting_encodes(monkeypatch)
    proxy = make_proxy(origins, clock)
    for _ in range(5):  # one store, then four hits
        _visit(proxy, clock)
    assert _hits(proxy) == 4
    (bundle,) = stored
    _, entry = _bundle_entry(proxy.services.cache)
    assert entry.decoded is bundle
    assert not _holds_container(entry)
    assert encodes == []
    # The byte budget counts the container all the same, and ``data``
    # still reads it.
    assert entry.size == bundle.encoded_size()
    assert entry.data == bundle.to_bytes()
    assert len(encodes) == 2


def test_a_lower_tier_persist_encodes_once_and_keeps_nothing(
    origins, clock, monkeypatch, tmp_path
):
    spec = make_proxy(origins, clock).spec

    def proxy_over(backend):
        services = ProxyServices(
            origins=origins, clock=clock, cache=backend.cache
        )
        return MSiteProxy(spec, services, proxy_base="proxy.php")

    with closing(InProcessSharedCache(root=str(tmp_path), clock=clock)) as b:
        encodes = _counting_encodes(monkeypatch)
        proxy = proxy_over(b)
        _visit(proxy, clock)
        b.flush()
        assert len(encodes) == 1
        _, entry = _bundle_entry(b.cache)
        assert not _holds_container(entry)
        (persisted,) = [
            stored for stored in b.store.entries()
            if stored.key.startswith("fastpath:")
        ]
        assert persisted.data == entry.decoded.to_bytes()
    monkeypatch.undo()
    with closing(
        InProcessSharedCache(root=str(tmp_path), clock=clock)
    ) as restarted:
        # Admitted as the container; decoded on the first load, after
        # which the entry keeps the decode alone.
        proxy = proxy_over(restarted)
        _, admitted = _bundle_entry(restarted.cache)
        assert _holds_container(admitted)
        _visit(proxy, clock)
        assert _hits(proxy) == 1
        assert admitted.decoded is not None
        assert not _holds_container(admitted)
        # The decode's entry file shares the entry page's object.
        bundle = admitted.decoded
        (entry_file,) = [
            item for item in bundle.files if item.relpath == bundle.entry_rel
        ]
        assert entry_file.data is bundle.entry_body


def _news_run():
    """A news pipeline over one session; ``run()`` adapts (or replays,
    or patches) the current front page and returns the result."""
    clock = Clock()
    app = NewsApplication(Newsroom(seed=0x5E55_10))
    services = ProxyServices(origins={NEWS_HOST: app}, clock=clock)
    session = SessionManager(clock=clock).create()
    spec = news_fastpath_spec()

    def run():
        pipeline = AdaptationPipeline(spec, services, session)
        return pipeline.run(device_class="phone")

    return app, services, run


def _entry_objects(services, result):
    """The page's entry file's ``data``, the bundle stored for the
    result's content and that bundle's entry file's ``data``."""
    stored = result.file("index.html").data
    content_fp = result.etag.strip('"').rsplit(".", 1)[1]
    (key,) = [
        key for key in services.cache.keys()
        if key.startswith("fastpath:") and key.endswith(f":{content_fp}")
    ]
    bundle = services.cache.peek(key).decoded
    (entry_file,) = [
        item.data for item in bundle.files if item.relpath == bundle.entry_rel
    ]
    return stored, bundle, entry_file


def _delta(services, name):
    return services.observability.registry.counter(
        f"msite_delta_{name}_total"
    ).value


def test_a_run_a_replay_and_a_rebundle_hold_one_entry_page():
    app, services, run = _news_run()
    for label in ("run", "replay", "rebundle"):
        if label == "rebundle":
            app.newsroom.revise()
        result = run()
        assert result.fastpath_hit is (label != "run"), label
        stored, bundle, entry_file = _entry_objects(services, result)
        assert type(result.entry_body) is bytes
        assert result.entry_body is stored, label
        assert bundle.entry_body is stored, label
        assert entry_file is stored, label
        assert result.entry_html == stored.decode("utf-8")
    assert _delta(services, "applied") == 1


def test_news_delta_revisions_retain_about_one_entry_page_each():
    app, services, run = _news_run()
    for _ in range(3):  # the stored run, then revisions: tables warm
        run()
        app.newsroom.revise()
    revisions = 20
    applied = _delta(services, "applied")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sizes = []
        for _ in range(revisions):
            app.newsroom.revise()
            sizes.append(len(run().entry_body))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # Most revisions are patched; a structural one falls back to a full
    # run, which is held once too.
    assert _delta(services, "applied") - applied >= revisions * 3 // 4
    assert retained <= sum(sizes) + revisions * REVISION_ALLOWANCE, (
        retained, sum(sizes),
    )
