"""Stage replay: time each layer's public function on the run's inputs.

After the traced pass, the workload's real inputs — the origin page as
fetched now, its filtered source and parsed document, the bundle the
run left in the fleet cache, two consecutive revisions — are fed to
each layer's public entry point, one call per stage per sample, under a
``stage-replay`` root span per sample.  Cheap stages get
``CHEAP_SAMPLES`` interleaved samples; a stage that costs a browser
render gets one.

Every stage is timed on every workload, on that workload's own page:
the README's layer table says for which workload a stage is on the
request path.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable

from repro.browser.webkit import ServerBrowser
from repro.cluster import request_shard_key
from repro.core import fastpath
from repro.core.delta import scan_segments
from repro.core.detect import device_class
from repro.core.identify import identify
from repro.core.pipeline import (
    AdaptationPipeline,
    PipelineContext,
    ProxyServices,
)
from repro.core.plan import TransformPlan
from repro.core.prerender import produce_snapshot
from repro.core.sessions import SessionManager
from repro.dom.diff import changeset
from repro.dom.index import QueryIndex
from repro.html.parser import parse_html
from repro.html.serializer import serialize
from repro.html.stream import StreamUnsupported, stream_serialize
from repro.html.tokenizer import tokenize
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.net.messages import Request
from repro.render.snapshot import render_snapshot

from perfbench.spans import Tracer
from perfbench.workloads import PHONE_UA, PROXY_HOST, Deployment

CHEAP_SAMPLES = 20
#: Stages `AdaptationPipeline.run(force_refresh=True)` executes and the
#: replay times on their own; the rest of the run is "unattributed".
#: A pre-render spec's browser render is deliberately not in this list
#: (one ~2.5 s sample each would swamp the difference), so there it
#: shows up as unattributed time: read ``render.*`` beside it.
RUN_STAGES = (
    "net.fetch",
    "core.fastpath.fingerprint",
    "core.filters.apply",
    "html.parse",
    "dom.select",
    "html.serialize",
    "core.fastpath.bundle_store",
)


class StageTimes:
    """Stage name -> sampled durations (ns), plus byte-size facts."""

    def __init__(self) -> None:
        self.samples: dict[str, list[int]] = defaultdict(list)
        self.sizes: dict[str, int] = {}


def stage_replay(
    deployment: Deployment, tracer: Tracer, prerenders: bool
) -> StageTimes:
    spec = deployment.spec
    origin = deployment.origin
    cluster = deployment.cluster
    host = deployment.target.origin_host
    page_url = f"http://{host}{spec.page_path}"
    device = device_class(PHONE_UA)
    plan = TransformPlan.compile(spec)
    cache = cluster.shared_cache.attach("perfbench-stage-replay")
    pointer_key = fastpath.latest_key(
        spec.site, spec.page_path, device, plan.fingerprint
    )
    css_selectors = [
        step.binding.selector
        for step in plan.dom_steps
        if step.binding.selector is not None
        and step.binding.selector.kind == "css"
    ]
    revise = getattr(getattr(origin, "newsroom", None), "revise", None)
    times = StageTimes()
    clock = time.perf_counter_ns

    def run_pipeline(delta_enabled: bool) -> None:
        services = ProxyServices(
            origins={host: origin}, delta_enabled=delta_enabled
        )
        session = SessionManager(services.storage).create()
        pipeline = AdaptationPipeline(spec, services, session, plan=plan)
        timed(
            "core.pipeline.run" if delta_enabled else "core.pipeline.run_nodelta",
            lambda: pipeline.run(force_refresh=True, device_class=device),
        )

    previous_doc = parse_html(_filtered(spec, plan, _fetch(origin, host, page_url)))
    heavy_samples = 1 if prerenders else CHEAP_SAMPLES
    for sample in range(CHEAP_SAMPLES):
        request_id = -1 - sample
        root = tracer.next_id()
        root_start = clock()

        def timed(name: str, call: Callable[[], object]):
            start = clock()
            value = call()
            end = clock()
            tracer.record(
                tracer.next_id(), root, request_id,
                name.rsplit(".", 1)[0], name, start, end,
            )
            times.samples[name].append(end - start)
            return value

        if revise is not None:
            revise()  # a fresh consecutive revision per sample
        source = timed("net.fetch", lambda: _fetch(origin, host, page_url))
        normalized = timed(
            "core.fastpath.fingerprint", lambda: _fingerprint(source)
        )
        bundle_key = cache.peek(pointer_key).data.decode("utf-8")
        entry = timed("core.cache.get", lambda: cache.get(bundle_key))
        times.sizes["core.fastpath.bundle_bytes"] = len(entry.data)
        bundle = timed(
            "core.fastpath.bundle_load",
            lambda: fastpath.load_bundle(cache, bundle_key),
        )
        timed(
            "core.fastpath.bundle_store",
            lambda: fastpath.store_bundle(
                cache, "perfbench:stage:bundle", "perfbench:stage:latest",
                bundle, ttl_s=60.0,
            ),
        )
        timed(
            "core.cache.put",
            lambda: cache.put(
                "perfbench:stage:entry", entry.data[:1024],
                content_type="application/octet-stream", ttl_s=60.0,
            ),
        )
        filtered = timed(
            "core.filters.apply", lambda: _filtered(spec, plan, normalized)
        )
        timed("html.tokenize", lambda: sum(1 for _ in tokenize(filtered)))
        document = timed("html.parse", lambda: parse_html(filtered))
        timed("html.serialize", lambda: serialize(document))
        timed("html.stream_serialize", lambda: _stream(filtered))
        timed("dom.select", lambda: _select(document, css_selectors))
        timed("dom.diff", lambda: changeset(previous_doc, document))
        previous_doc = document
        timed("core.delta.scan", lambda: scan_segments(filtered))
        timed("cluster.route", lambda: _route(cluster))
        if sample < heavy_samples:
            # Alternate which variant goes first so drift cancels.
            for delta_enabled in ((True, False), (False, True))[sample % 2]:
                run_pipeline(delta_enabled)
        if sample == 0:
            _browser_stages(spec, origin, host, page_url, source, timed, times)
        tracer.record(
            root, 0, request_id, "loadgen", "stage-replay",
            root_start, clock(),
        )
    return times


def _fetch(origin, host: str, page_url: str) -> str:
    return HttpClient({host: origin}).get(page_url).text_body


def _fingerprint(source: str) -> str:
    normalized = fastpath.normalize_origin(source)
    fastpath.content_fingerprint(normalized)
    return normalized


def _filtered(spec, plan: TransformPlan, normalized: str) -> str:
    context = PipelineContext(spec, normalized, plan.proxy_base)
    for step in plan.steps_for("filter"):
        step.definition.applier(context, step.binding)
    return context.source


def _stream(filtered: str) -> None:
    try:
        stream_serialize(filtered)
    except StreamUnsupported:
        pass  # the time to find out is the stage's cost on this page


def _select(document, selectors) -> None:
    index = QueryIndex(document)
    for selector in selectors:
        identify(document, selector, index=index)


def _route(cluster) -> None:
    request = Request.get(
        f"http://{PROXY_HOST}/proxy.php?page=forums", User_Agent=PHONE_UA
    )
    cluster.router.preference(request_shard_key(cluster.site, request))


def _browser_stages(
    spec, origin, host: str, page_url: str, source: str, timed, times
) -> None:
    client = HttpClient({host: origin})
    with ServerBrowser(
        client, jar=CookieJar(), viewport_width=spec.viewport_width
    ) as browser:
        loaded = timed("browser.load", lambda: browser.load(page_url))
    document = parse_html(source)
    stylesheets = {}
    for element in document.all_elements():
        href = element.get("href") if element.tag == "link" else None
        if href and (element.get("rel") or "").lower() == "stylesheet":
            response = client.get(Request.get(page_url).url.join(href))
            if response.ok:
                stylesheets[href] = response.text_body
    timed(
        "render.snapshot",
        lambda: render_snapshot(
            document,
            viewport_width=spec.viewport_width,
            external_css=stylesheets,
        ),
    )
    artifact = timed(
        "render.encode",
        lambda: produce_snapshot(
            loaded.snapshot,
            scale=spec.snapshot_scale,
            quality=spec.snapshot_quality,
        ),
    )
    times.sizes["render.snapshot_bytes"] = artifact.encoded.size_bytes
