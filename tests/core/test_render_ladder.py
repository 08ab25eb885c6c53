"""The render-once ladder: one manifest + image pair, rendered once.

Unit tests of :func:`repro.core.prerender.render_once` and its lookup,
against a plain cache and a stub farm, plus the on-disk contract: a
snapshot store holding the keys and manifests this tree has always
written warm-starts a fresh process, which then serves a pre-render
spec without one browser render.
"""

import json
from contextlib import closing
from types import SimpleNamespace

from repro.cluster.sharedcache import InProcessSharedCache
from repro.core.cache import PrerenderCache
from repro.core.pipeline import ProxyServices
from repro.core.prerender import load_rendered, render_once
from repro.core.proxy import MSiteProxy
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.renderfarm.job import INTERACTIVE, REFRESH, RenderKey
from repro.sim.clock import Clock
from tests.conftest import FORUM_HOST, PROXY_HOST

KEY = "snapshot:S:/:w1024:s0.28:q25"
FARM_KEY = RenderKey(site="S", path="/", device_class="phone", spec_fp="f")


class StubFarm:
    """Runs the job inline, recording the lane it was queued on."""

    def __init__(self, before=None):
        self.lanes = []
        self._before = before

    def render(self, key, fn, lane):
        assert key is FARM_KEY
        self.lanes.append(lane)
        if self._before is not None:
            self._before()
        return fn()


def make_services(farm=None):
    clock = Clock()
    return SimpleNamespace(
        cache=PrerenderCache(clock=clock), renderfarm=farm, clock=clock
    )


def renderer(calls, image=b"jpeg"):
    def render():
        calls.append(1)
        return {"scale": 0.28, "regions": {}, "image_bytes": image}

    return render


def once(services, calls, **kwargs):
    kwargs.setdefault("ttl_s", 60.0)
    kwargs.setdefault("cacheable", True)
    return render_once(services, KEY, FARM_KEY, renderer(calls), **kwargs)


def test_an_uncacheable_artifact_renders_per_call_and_stores_nothing():
    services, calls = make_services(), []
    for _ in range(2):
        rendered, here = once(services, calls, cacheable=False)
        assert here and rendered["image_bytes"] == b"jpeg"
    assert len(calls) == 2
    assert services.cache.keys() == []


def test_a_cold_miss_renders_once_and_stores_the_pair():
    services, calls = make_services(), []
    rendered, here = once(services, calls)
    assert here and len(calls) == 1
    manifest = services.cache.peek(KEY)
    image = services.cache.peek(KEY + ":image")
    assert json.loads(manifest.data) == {"scale": 0.28, "regions": {}}
    assert manifest.content_type == "application/json"
    assert (image.data, image.content_type) == (b"jpeg", "image/jpeg")
    assert manifest.ttl_s == image.ttl_s == 60.0
    again, here = once(services, calls)
    assert not here and len(calls) == 1
    assert again == rendered


def test_lookup_kinds_account_differently():
    services, calls = make_services(), []
    cache = services.cache
    assert load_rendered(cache, KEY) is None  # manifest miss stops there
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    once(services, calls)
    before = (cache.stats.hits, cache.stats.misses)
    assert load_rendered(cache, KEY, "peek")["image_bytes"] == b"jpeg"
    assert (cache.stats.hits, cache.stats.misses) == before
    assert load_rendered(cache, KEY)["image_bytes"] == b"jpeg"
    assert cache.stats.hits == before[0] + 2
    services.clock.advance(61.0)
    assert load_rendered(cache, KEY, "peek") is None
    assert load_rendered(cache, KEY, "load_stale")["image_bytes"] == b"jpeg"


def test_a_manifest_without_its_image_is_a_miss():
    services, calls = make_services(), []
    once(services, calls)
    services.cache.invalidate(KEY + ":image")
    assert load_rendered(services.cache, KEY) is None
    __, here = once(services, calls)
    assert here and len(calls) == 2


def test_a_forced_refresh_rerenders_over_a_warm_artifact():
    services, calls = make_services(), []
    once(services, calls)
    rendered, here = render_once(
        services, KEY, FARM_KEY, renderer(calls, b"fresh"),
        ttl_s=60.0, cacheable=True, force_refresh=True,
    )
    assert here and len(calls) == 2
    assert rendered["image_bytes"] == b"fresh"
    assert services.cache.peek(KEY + ":image").data == b"fresh"


def test_the_farm_gets_cold_misses_interactive_and_refreshes_in_the_middle():
    farm = StubFarm()
    services, calls = make_services(farm), []
    once(services, calls)
    once(services, calls)  # warm: never reaches the farm
    once(services, calls, force_refresh=True)
    assert farm.lanes == [INTERACTIVE, REFRESH]
    assert len(calls) == 2


def test_the_loader_double_checks_before_rendering():
    # Another worker stored the artifact between this one's miss and
    # its turn on the farm: the loader finds it and renders nothing.
    services, calls = make_services(), []
    winner = []
    services.renderfarm = StubFarm(
        before=lambda: render_once(
            make_services_sharing(services), KEY, FARM_KEY,
            renderer(winner, b"theirs"), ttl_s=60.0, cacheable=True,
        )
    )
    misses_before = services.cache.stats.misses
    rendered, here = once(services, calls)
    assert not here and calls == [] and len(winner) == 1
    assert rendered["image_bytes"] == b"theirs"
    # Two accounted lookups (ours and the winner's), no third.
    assert services.cache.stats.misses == misses_before + 2


def make_services_sharing(services):
    return SimpleNamespace(cache=services.cache, renderfarm=None)


# -- the on-disk contract ---------------------------------------------------

SNAPSHOT_KEY = "snapshot:SawmillCreek:/index.php:w1024:s0.28:q25"
OBJRENDER_KEY = "objrender:SawmillCreek:/index.php:stats:q55:w1024"


def forum_prerender_spec() -> AdaptationSpec:
    spec = AdaptationSpec(
        site="SawmillCreek", origin_host=FORUM_HOST, page_path="/index.php"
    )
    spec.add("prerender")
    spec.add("cacheable", ttl_s=3600)
    spec.add(
        "subpage", ObjectSelector.css("#loginform"),
        subpage_id="login", title="Log in",
    )
    spec.add(
        "subpage", ObjectSelector.css("#stats"), subpage_id="stats",
        title="Statistics", prerender=True, cacheable=True,
    )
    return spec


def test_a_store_written_with_the_old_keys_serves_without_a_render(
    tmp_path, origins
):
    root = str(tmp_path)
    with closing(InProcessSharedCache(root=root)) as backend:
        cache = backend.attach("writer")
        cache.put(
            SNAPSHOT_KEY,
            json.dumps(
                {
                    "scale": 0.28, "width": 286, "height": 1488,
                    "page_height": 5317,
                    "regions": {"login": [10.0, 20.0, 300.0, 40.0]},
                }
            ),
            content_type="application/json", ttl_s=3600,
        )
        cache.put(
            SNAPSHOT_KEY + ":image", b"\xff\xd8page",
            content_type="image/jpeg", ttl_s=3600,
        )
        cache.put(
            OBJRENDER_KEY,
            json.dumps({"width": 200, "height": 90, "search_block": ""}),
            content_type="application/json", ttl_s=3600,
        )
        cache.put(
            OBJRENDER_KEY + ":image", b"\xff\xd8stats",
            content_type="image/jpeg", ttl_s=3600,
        )
        backend.flush()

    with closing(InProcessSharedCache(root=root)) as backend:
        assert backend.preloaded == 4
        services = ProxyServices(
            origins=origins, cache=backend.attach("reader"),
            fastpath_enabled=False,
        )
        proxy = MSiteProxy(forum_prerender_spec(), services)
        client = HttpClient({PROXY_HOST: proxy}, jar=CookieJar())
        entry = client.get(f"http://{PROXY_HOST}/proxy.php")
        assert entry.ok and entry.headers.get("X-MSite-Degraded") is None
        assert 'coords="3,6,87,17"' in entry.text_body  # the stored region
        for name, body in (("snapshot", b"page"), ("stats", b"stats")):
            image = client.get(f"http://{PROXY_HOST}/proxy.php?file={name}.jpg")
            assert image.body == b"\xff\xd8" + body
        stats = client.get(f"http://{PROXY_HOST}/proxy.php?page=stats")
        assert 'width="200" height="90"' in stats.text_body
        assert proxy.counters.snapshot().browser_renders == 0
