"""Pipeline-level fast-path behavior, plus the small hot-path fixes."""

from repro.core import fastpath
from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.net.client import HttpClient
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.sim.clock import Clock

HOST = "unit.example"

PAGE = (
    '<html><head><title>Unit</title></head><body>'
    '<div id="a"><p>alpha</p></div>'
    '<div id="b"><p>beta</p></div>'
    "</body></html>"
)


class ScriptedOrigin(Application):
    """Serves a settable page body; can be told to fail."""

    def __init__(self):
        self.page = PAGE
        self.failing = False

    def handle(self, request: Request) -> Response:
        if self.failing:
            return Response.text("boom", status=500)
        return Response.html(self.page)


def make_spec():
    spec = AdaptationSpec(site="Unit", origin_host=HOST)
    spec.add("cacheable", ttl_s=600)
    spec.add(
        "subpage", ObjectSelector.css("#a"), subpage_id="a", title="A"
    )
    return spec


def setup(**flags):
    origin = ScriptedOrigin()
    clock = Clock()
    services = ProxyServices(
        origins={HOST: origin}, clock=clock, **flags
    )
    manager = SessionManager(services.storage, clock=clock)
    return origin, services, manager


def run_once(services, manager, spec=None, **kwargs):
    pipeline = AdaptationPipeline(
        spec or make_spec(), services, manager.create()
    )
    return pipeline.run(**kwargs)


def counter(services, name):
    return services.observability.registry.counter(
        f"msite_fastpath_{name}_total"
    ).value


def test_second_session_replays_the_bundle():
    __, services, manager = setup()
    first = run_once(services, manager)
    second = run_once(services, manager)
    assert not first.fastpath_hit and second.fastpath_hit
    assert second.etag == first.etag
    assert second.entry_html == first.entry_html
    assert [s.subpage_id for s in second.subpages] == ["a"]
    assert counter(services, "hits") == 1
    assert counter(services, "stores") == 1


def test_replay_restores_session_artifacts():
    __, services, manager = setup()
    run_once(services, manager)
    session = manager.create()
    adapted = AdaptationPipeline(make_spec(), services, session).run()
    assert adapted.fastpath_hit
    stored = services.storage.read(f"{session.directory}/a.html")
    assert b"alpha" in stored.data


def test_reindented_origin_is_still_a_hit():
    origin, services, manager = setup()
    origin.page = PAGE.replace("</head>", "</head>\n").replace(
        "</div>", "</div>\n"
    )
    first = run_once(services, manager)
    # The template got reindented; the rendered content did not change.
    origin.page = origin.page.replace("\n", "\n\t\t")
    second = run_once(services, manager)
    assert second.fastpath_hit
    assert second.etag == first.etag
    assert second.entry_html == first.entry_html
    assert counter(services, "hits") == 1


def test_changed_origin_content_misses():
    origin, services, manager = setup()
    first = run_once(services, manager)
    origin.page = PAGE.replace("alpha", "gamma")
    second = run_once(services, manager)
    assert not second.fastpath_hit
    assert second.etag != first.etag
    assert counter(services, "misses") == 2  # cold + content change


def test_device_classes_do_not_share_bundles():
    __, services, manager = setup()
    run_once(services, manager, device_class="phone")
    other = run_once(services, manager, device_class="tablet")
    assert not other.fastpath_hit
    again = run_once(services, manager, device_class="tablet")
    assert again.fastpath_hit


def test_force_refresh_skips_replay_but_restores_bundle():
    __, services, manager = setup()
    run_once(services, manager)
    forced = run_once(services, manager, force_refresh=True)
    assert not forced.fastpath_hit
    assert counter(services, "stores") == 2


def test_fastpath_disabled_runs_full_every_time():
    __, services, manager = setup(fastpath_enabled=False)
    first = run_once(services, manager)
    second = run_once(services, manager)
    assert first.etag is None and second.etag is None
    assert not second.fastpath_hit
    assert counter(services, "hits") == 0


def test_origin_failure_serves_stale_bundle():
    origin, services, manager = setup()
    run_once(services, manager)
    origin.failing = True
    stale = run_once(services, manager)
    assert stale.degraded == "stale"
    assert stale.fastpath_hit
    assert stale.etag is None  # nothing to revalidate against
    assert counter(services, "stale_serves") == 1
    assert any("stale fast-path bundle" in n for n in stale.notes)


def test_degraded_results_are_never_stored():
    origin, services, manager = setup()
    run_once(services, manager)
    origin.failing = True
    run_once(services, manager)  # stale serve
    assert counter(services, "stores") == 1  # only the healthy run


def test_origin_url_parsed_once_per_pipeline():
    __, services, manager = setup()
    pipeline = AdaptationPipeline(make_spec(), services, manager.create())
    assert str(pipeline.origin_url.host) == HOST


def test_a_pointer_that_is_not_utf8_is_a_miss_on_the_stale_rung():
    """The stale rung absorbs an outage; a garbled ``fastpath-latest``
    pointer must not turn that outage into a raise."""
    origin, services, manager = setup()
    run_once(services, manager)
    (pointer_key,) = [
        key for key in services.cache.keys()
        if key.startswith("fastpath-latest:")
    ]
    services.cache.put(pointer_key, b"\xff\xfe", ttl_s=600)
    assert fastpath.load_stale_bundle(services.cache, pointer_key) is None
    origin.failing = True
    proxy = MSiteProxy(make_spec(), services, proxy_base="proxy.php")
    response = HttpClient({"m.unit.example": proxy}).get(
        "http://m.unit.example/proxy.php"
    )
    assert response.status in (502, 503, 504)
