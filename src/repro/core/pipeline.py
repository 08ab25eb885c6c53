"""The adaptation pipeline: what runs on a miss.

One adaptation turns an originating page into the mobile bundle for one
session — filter → DOM → attributes → emit: a cached (or freshly
rendered) snapshot entry page with an image-map menu, the generated
subpages (HTML or pre-rendered images), AJAX fragments, and any
partial-prerender artifacts, all held by the :class:`AdaptedPage` the
user's session keeps: the paper's per-user directory (§3.2, Figure 3).

:meth:`AdaptationPipeline.run` is the whole request, as a composition:
the gate in :mod:`repro.core.fastpath` decides *whether* to adapt
(conditional fetch, 304 replay, fingerprint, bundle lookup, delta
attempt) and is handed :meth:`~AdaptationPipeline._fetch_origin`, the
one place that talks to the origin; on a miss this module adapts and
emits; the gate stores what may be replayed.  The heavyweight browser
is reached through the render-once ladder in :mod:`repro.core.prerender`,
and the entry page is assembled by :mod:`repro.core.subpages`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.browser.costs import BrowserCostModel, DEFAULT_COST_MODEL
from repro.core import fastpath
from repro.core.ajax import AjaxActionTable
from repro.core.cache import PrerenderCache
from repro.core.identify import identify, identify_one
from repro.core.plan import TransformPlan
from repro.core.prerender import (
    PartialPrerender,
    load_rendered,
    obtain_snapshot,
    partial_css_prerender,
    prerender_subpage,
    snapshot_cache_key,
)
from repro.core.search import (
    build_word_index_from_document,
    search_script,
    search_trigger_html,
)
from repro.core.sessions import MobileSession
from repro.core.spec import AdaptationSpec
from repro.core.subpages import (
    ENTRY_FILE,
    AdaptedPage,
    SubpageArtifact,
    SubpageDefinition,
    SubpagePlan,
    ajax_injection_html,
    assemble_entry,
    build_subpage_document,
    detach_for_subpage,
    fragment_html,
    menu_html,
    snapshot_entry_html,
)
from repro.dom.document import Document
from repro.dom.element import Element
from repro.dom.index import QueryIndex
from repro.dom.node import Text
from repro.errors import (
    AdaptationError,
    CircuitOpenError,
    FetchError,
    PoolTimeoutError,
    RenderError,
    RenderFarmError,
    TransientFetchError,
)
from repro.html.parser import parse_fragment, parse_html
from repro.html.serializer import serialize
from repro.net.client import HttpClient
from repro.net.messages import Request, Response
from repro.net.url import URL
from repro.observability import Observability
from repro.observability.tracing import span
from repro.resilience.faults import (
    FaultPlan,
    FaultyBrowser,
    FaultyHttpClient,
    inject_render_fault,
)
from repro.resilience.policy import HTML_ONLY, SKIPPED, STALE, ResiliencePolicy


class AuthenticationRequired(FetchError):
    """The origin demanded HTTP auth and the session has no credentials."""


@dataclass
class ProxyServices:
    """Shared infrastructure one proxy deployment owns."""

    origins: dict[str, Any]
    cache: PrerenderCache = field(default_factory=PrerenderCache)
    clock: Any = None
    costs: BrowserCostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    observability: Observability = field(default_factory=Observability)
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    faults: Optional[FaultPlan] = None
    #: When set (a :class:`repro.renderfarm.RenderFarm`), snapshot and
    #: cacheable-object renders are queued on the farm's priority lanes
    #: instead of blocking the request thread on the pool semaphore;
    #: farm backpressure degrades down the existing render ladder.
    renderfarm: Optional[Any] = None
    #: Whole-adapted-response cache (content-addressed; see
    #: :mod:`repro.core.fastpath`).  Off ⇒ every request adapts fully.
    fastpath_enabled: bool = True
    #: Incremental re-adaptation of warm cache misses (see
    #: :mod:`repro.core.delta`).  Off ⇒ every content change replays the
    #: full pipeline.  Requires the fastpath.
    delta_enabled: bool = True
    #: A session patch manifest larger than this fraction of the full
    #: entry body is not worth shipping; serve the full body instead.
    session_delta_max_fraction: float = 0.5
    #: The deployment's :class:`repro.core.delta.DeltaEngine`
    #: (constructed on first use; ``None`` when delta is disabled).
    delta: Optional[Any] = None

    def __post_init__(self) -> None:
        # A default-constructed cache must share the deployment's clock,
        # or TTLs would never expire in simulated time.
        if self.cache.clock is None and self.clock is not None:
            self.cache.clock = self.clock
        # One registry per deployment: the cache's counters surface on
        # the same /metrics endpoint as the proxy's.
        self.cache.bind_metrics(self.observability.registry)
        self.resilience.bind(self.observability.registry, clock=self.clock)
        if self.faults is not None:
            self.faults.bind_metrics(self.observability.registry)
        if self.delta_enabled and self.fastpath_enabled and self.delta is None:
            from repro.core.delta import DeltaEngine

            self.delta = DeltaEngine(self.observability.registry)
        elif not (self.delta_enabled and self.fastpath_enabled):
            self.delta = None

    def install_faults(self, plan: Optional[FaultPlan]) -> None:
        """Install (or clear) a fault plan on a live deployment."""
        self.faults = plan
        if plan is not None:
            plan.bind_metrics(self.observability.registry)

    def make_client(self, jar) -> HttpClient:
        if self.faults is not None:
            return FaultyHttpClient(
                self.faults, origins=self.origins, jar=jar, clock=self.clock
            )
        return HttpClient(origins=self.origins, jar=jar, clock=self.clock)

    def make_browser(self, jar, viewport_width: int):
        from repro.browser.webkit import ServerBrowser

        client = self.make_client(jar)
        browser = ServerBrowser(
            client, jar=jar, viewport_width=viewport_width, costs=self.costs
        )
        if self.faults is not None:
            return FaultyBrowser(browser, self.faults)
        return browser

    @property
    def now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    @property
    def storage(self) -> None:
        """Always ``None``: a session's files live in its page.

        Not a field.  Kept, read-only, only because
        ``perfbench/stages.py:103`` still runs
        ``SessionManager(services.storage).create()``, from before the
        ``VirtualFileSystem`` session store was deleted; it goes when
        that call does.
        """
        return None


class PipelineContext:
    """Mutable state threaded through the attribute appliers."""

    def __init__(
        self,
        spec: AdaptationSpec,
        source: str,
        proxy_base: str = "proxy.php",
    ) -> None:
        self.spec = spec
        self.source = source
        self.document: Optional[Document] = None
        self.plan = SubpagePlan()
        self.ajax_table = AjaxActionTable()
        self.fidelity: dict[str, Any] = {}
        self.partial_prerender_targets: list = []
        self.media_thumbnails: dict[str, bytes] = {}
        self.notes: list[str] = []
        self.proxy_base = proxy_base
        # page-level flags
        self.prerender_page = False
        self.prerender_params: dict[str, Any] = {}
        self.cache_snapshot = False
        self.cache_ttl_s = spec.snapshot_ttl_s
        self.http_auth_enabled = False
        self.http_auth_realm = "restricted"
        self.form_login: Optional[dict[str, Any]] = None
        self._index: Optional[QueryIndex] = None

    def note(self, message: str) -> None:
        self.notes.append(message)

    # -- object identification -----------------------------------------
    # Appliers route their selector lookups through the context so CSS
    # selections share one lazily-built per-document query index.  An
    # applier that may mutate the tree drops it after its step (see
    # apply_steps); one that only selects leaves it for the next.

    def _query_index(self) -> Optional[QueryIndex]:
        if self.document is None:
            return None
        if self._index is None or self._index.root is not self.document:
            self._index = QueryIndex(self.document)
        return self._index

    def invalidate_index(self) -> None:
        self._index = None

    def identify(self, selector) -> list:
        index = (
            self._query_index() if selector.kind == "css" else None
        )
        return identify(self.document, selector, index=index)

    def identify_one(self, selector):
        index = (
            self._query_index() if selector.kind == "css" else None
        )
        return identify_one(self.document, selector, index=index)

    def page_url_for(self, subpage_id: Optional[str]) -> str:
        if subpage_id is None:
            return self.proxy_base
        return f"{self.proxy_base}?page={subpage_id}"


def apply_steps(steps: Iterable, ctx: PipelineContext) -> None:
    """Run compiled plan steps against a context, in order.

    The plan resolved registry lookups and phase grouping at deployment
    time; request time walks ``plan.steps_for(phase)``, and the delta
    engine walks the few steps a changed fragment implicates.
    """
    for step in steps:
        try:
            step.definition.applier(ctx, step.binding)
        except AdaptationError:
            raise
        except Exception as exc:
            raise AdaptationError(
                f"attribute {step.binding.attribute!r} failed: {exc}"
            ) from exc
        finally:
            if step.definition.mutates_tree:
                # A select-then-mutate step: whatever tree shape the
                # index memoized may be gone after it.
                ctx.invalidate_index()


class AdaptationPipeline:
    """Runs one spec against one session."""

    def __init__(
        self,
        spec: AdaptationSpec,
        services: ProxyServices,
        session: MobileSession,
        proxy_base: str = "proxy.php",
        namespace: str = "",
        plan: Optional[TransformPlan] = None,
    ) -> None:
        self.spec = spec
        self.services = services
        self.session = session
        self.proxy_base = proxy_base
        # The compiled plan is normally shared across requests by the
        # proxy; direct pipeline constructions compile their own.  Either
        # way ``compile`` has validated the spec, so a request does not.
        if plan is None or plan.spec is not spec:
            plan = TransformPlan.compile(
                spec, proxy_base=proxy_base, namespace=namespace
            )
        self.plan = plan
        #: The origin URL never changes for a deployment — parsed once
        #: instead of on every fetch/render.
        self.origin_url = URL.parse(
            f"http://{spec.origin_host}{spec.page_path}"
        )
        #: The requesting device class, captured by :meth:`run` so the
        #: farm's render keys coalesce per (site, path, device, spec).
        self.device_class = "default"

    # ------------------------------------------------------------------

    def run(
        self, force_refresh: bool = False, device_class: str = "default"
    ) -> AdaptedPage:
        self.device_class = device_class
        try:
            outcome = fastpath.serve_or_miss(
                self, self._fetch_origin, force_refresh, device_class
            )
            if not isinstance(outcome, fastpath.Miss):
                return outcome
            ctx = PipelineContext(self.spec, outcome.source, self.proxy_base)
            result = self._adapt_and_emit(
                ctx, outcome.origin_bytes, force_refresh
            )
            outcome.store(self, ctx, result)
            return result
        except AuthenticationRequired:
            raise  # an auth challenge is a feature, not a failure
        except (FetchError, AdaptationError, CircuitOpenError) as exc:
            # Bottom rung of the entry-page ladder: the origin (or the
            # adaptation itself) is gone, but a stale fast-path bundle or
            # snapshot may still make the page navigable.  No stale copy
            # ⇒ re-raise, and the proxy maps the error to an honest
            # 502/503/504.
            return self._serve_stale_entry(exc, device_class)

    def _adapt_and_emit(
        self, ctx: PipelineContext, origin_bytes: int, force_refresh: bool
    ) -> AdaptedPage:
        plan = self.plan
        with span("filter"):
            apply_steps(plan.steps_for("filter"), ctx)
        with span("adapt"):
            ctx.document = parse_html(ctx.source)
            apply_steps(plan.steps_for("dom"), ctx)
            apply_steps(plan.steps_for("page"), ctx)

        result = AdaptedPage(
            entry_body=b"",
            device_class=self.device_class,
            origin_bytes=origin_bytes,
            ajax_table=ctx.ajax_table,
        )
        result.lightweight_core_seconds += (
            self.services.costs.lightweight_request_s
        )

        snapshot = None
        if ctx.prerender_page:
            snapshot = obtain_snapshot(self, ctx, result, force_refresh)

        self._emit_partial_prerenders(ctx, result)
        self._emit_media_thumbnails(ctx, result)
        self._emit_subpages(ctx, result)
        self._emit_entry(ctx, result, snapshot)
        result.notes = ctx.notes
        self.session.pages_served += 1
        return result

    def _counter(self, name: str):
        return fastpath.fastpath_counter(
            self.services.observability.registry, name
        )

    @staticmethod
    def _write(
        result: AdaptedPage, relpath: str, data, content_type: str
    ) -> None:
        """Add an artifact to the page's files (``str`` as UTF-8): the
        map a stored bundle freezes."""
        if isinstance(data, str):
            data = data.encode("utf-8")
        result.files[relpath] = fastpath.BundleFile(
            relpath, content_type, data
        )

    # ------------------------------------------------------------------
    # fetching

    def _fetch_origin(self, if_none_match: Optional[str] = None) -> Response:
        """The origin's 200 — or, to ``if_none_match``, its 304."""
        client = self.services.make_client(self.session.jar)
        url = self.origin_url
        credentials = self.session.http_credentials.get(self.spec.origin_host)
        resilience = self.services.resilience

        def _attempt():
            request = Request.get(url)
            if credentials is not None:
                request.with_basic_auth(*credentials)
            if if_none_match is not None:
                request.headers.set("If-None-Match", if_none_match)
            response = client.request(request)
            if response.status == 401:
                # Returned (not raised) so an auth challenge is never
                # retried and never counts against the origin breaker.
                return response
            if response.status == 304 and if_none_match is not None:
                return response
            if not response.ok:
                # An unsolicited 304 lands here too: a definitive,
                # useless answer.
                raise FetchError(
                    f"origin returned {response.status} for {url}"
                )
            if b"\x00" in response.body:
                # A truncated/corrupt payload is as useless as a refused
                # connection — surface it as a retriable fetch failure.
                raise TransientFetchError(
                    f"origin returned a corrupt body for {url}"
                )
            return response

        response = resilience.retry.call(
            _attempt,
            breaker=resilience.origin_breaker(self.spec.origin_host),
            target=f"origin:{self.spec.origin_host}",
        )
        if response.status == 401:
            raise AuthenticationRequired(
                f"origin {self.spec.origin_host} requires HTTP authentication"
            )
        return response

    # ------------------------------------------------------------------
    # the stale rungs

    def _serve_stale_entry(
        self, exc: BaseException, device_class: str = "default"
    ) -> AdaptedPage:
        """Entry page served from stale caches when the run failed.

        Top rung: the last fast-path bundle for this (page, device,
        spec), fresh or stale — it replays the complete artifact set,
        not just the snapshot entry.  Below it, the stale-snapshot rung
        from the resilience ladder.  Nothing stale ⇒ re-raise.
        """
        services = self.services
        if services.fastpath_enabled:
            bundle = fastpath.load_stale_bundle(
                services.cache,
                fastpath.latest_key(
                    self.spec.site, self.spec.page_path, device_class,
                    self.plan.fingerprint,
                ),
            )
            if bundle is not None:
                with span("degrade"):
                    result = fastpath.replay_bundle(self, bundle, 0, None)
                    result.degraded = STALE
                    result.snapshot_from_cache = True
                    result.notes.append(
                        f"degraded: stale fast-path bundle served; "
                        f"upstream failure: {exc}"
                    )
                self._counter("stale_serves").inc()
                services.resilience.record_degraded(STALE)
                return result
        snapshot = load_rendered(
            services.cache, snapshot_cache_key(self.spec), "load_stale"
        )
        if snapshot is None:
            raise exc
        with span("degrade"):
            result = AdaptedPage(
                entry_body=snapshot_entry_html(
                    self.spec.mobile_title or self.spec.site,
                    (
                        (subpage_id, f"{self.proxy_base}?page={subpage_id}",
                         subpage_id)
                        for subpage_id in sorted(snapshot["regions"])
                    ),
                    snapshot,
                    self.proxy_base,
                ).encode("utf-8"),
                device_class=device_class,
                snapshot_from_cache=True,
                snapshot_bytes=len(snapshot["image_bytes"]),
                degraded=STALE,
            )
            self._write(
                result, "snapshot.jpg", snapshot["image_bytes"], "image/jpeg"
            )
            self._write(
                result, ENTRY_FILE, result.entry_body,
                "text/html; charset=utf-8",
            )
        result.notes.append(
            f"degraded: stale entry page served; upstream failure: {exc}"
        )
        services.resilience.record_degraded(STALE)
        self.session.pages_served += 1
        return result

    # ------------------------------------------------------------------
    # emission

    def _emit_partial_prerenders(
        self, ctx: PipelineContext, result: AdaptedPage
    ) -> None:
        for position, (binding, element) in enumerate(
            ctx.partial_prerender_targets, start=1
        ):
            try:
                inject_render_fault(self.services.faults)
                with span("render"):
                    artifact: PartialPrerender = partial_css_prerender(
                        ctx.document,
                        element,
                        viewport_width=self.spec.viewport_width,
                        quality=int(binding.param("quality", 55)),
                    )
            except (RenderError, CircuitOpenError) as exc:
                # Partial prerenders are an enhancement; a failed one is
                # dropped rather than failing the page.
                result.degraded = result.degraded or SKIPPED
                self.services.resilience.record_degraded(SKIPPED)
                ctx.note(
                    f"degraded: partial prerender skipped after render "
                    f"failure ({exc})"
                )
                continue
            result.used_browser = True
            result.browser_core_seconds += (
                self.services.costs.browser_request_s
            )
            # An unnamed target is numbered by its place in the spec, so
            # every run, worker and oracle writes the same file.
            name = binding.param("name", f"partial{position}")
            base = f"images/{name}"
            with span("serialize"):
                self._write(
                    result, f"{base}.jpg", artifact.background.data,
                    "image/jpeg",
                )
                self._write(
                    result,
                    f"{base}.json",
                    json.dumps(artifact.text_runs),
                    "application/json",
                )
            ctx.note(
                f"partial_css_prerender: {name} background "
                f"{len(artifact.background.data)} bytes, "
                f"{len(artifact.text_runs)} client text runs"
            )

    def _emit_media_thumbnails(
        self, ctx: PipelineContext, result: AdaptedPage
    ) -> None:
        if not ctx.media_thumbnails:
            return
        with span("serialize"):
            for name, data in ctx.media_thumbnails.items():
                self._write(result, f"images/{name}", data, "image/jpeg")
        if ctx.media_thumbnails:
            total = sum(len(d) for d in ctx.media_thumbnails.values())
            ctx.note(
                f"media thumbnails: {len(ctx.media_thumbnails)} images, "
                f"{total} bytes"
            )

    def _emit_subpages(
        self, ctx: PipelineContext, result: AdaptedPage
    ) -> None:
        taken_by_id: dict[str, list] = {}
        for subpage_id in ctx.plan.order:
            definition = ctx.plan.subpages[subpage_id]
            taken = detach_for_subpage(definition)
            taken_by_id[subpage_id] = taken
        engines = None
        for subpage_id in ctx.plan.order:
            definition = ctx.plan.subpages[subpage_id]
            taken = taken_by_id[subpage_id]
            if definition.prerender:
                try:
                    artifact = self._emit_prerendered_subpage(
                        ctx, result, definition, taken
                    )
                except (
                    RenderError,
                    CircuitOpenError,
                    PoolTimeoutError,
                    RenderFarmError,
                ) as exc:
                    # Middle rung of the render ladder: an unrenderable
                    # subpage still ships, just as plain HTML.
                    with span("degrade"):
                        artifact = self._emit_html_subpage(
                            ctx, result, definition, taken
                        )
                    result.degraded = result.degraded or HTML_ONLY
                    self.services.resilience.record_degraded(HTML_ONLY)
                    ctx.note(
                        f"degraded: subpage {definition.subpage_id} emitted "
                        f"as HTML after render failure ({exc})"
                    )
            elif definition.ajax:
                artifact = self._emit_ajax_fragment(
                    ctx, result, definition, taken
                )
            elif definition.engine != "html":
                if engines is None:
                    # Lazy: importing the engines loads scipy.
                    from repro.render.engines import EngineRegistry

                    engines = EngineRegistry()
                artifact = self._emit_engine_subpage(
                    ctx, result, definition, taken, engines
                )
            else:
                artifact = self._emit_html_subpage(
                    ctx, result, definition, taken
                )
            result.subpages.append(artifact)

    def _emit_engine_subpage(
        self,
        ctx: PipelineContext,
        result: AdaptedPage,
        definition: SubpageDefinition,
        taken: list,
        engines,
    ) -> SubpageArtifact:
        """Subpages rendered through an alternative output engine (§1:
        'HTML, static images, PDF, plain text ... at any point in the
        rendering process')."""
        with span("serialize"):
            document = build_subpage_document(
                definition, ctx.plan, ctx.page_url_for, taken
            )
            output = engines.get(definition.engine).render(document)
            extensions = {"text": "txt", "pdf": "pdf"}
            extension = extensions.get(definition.engine, definition.engine)
            path = f"{definition.subpage_id}.{extension}"
            self._write(result, path, output.data, output.content_type)
        return SubpageArtifact(
            subpage_id=definition.subpage_id,
            title=definition.title,
            path=path,
            content_type=output.content_type,
            bytes_written=len(output.data),
            prerendered=False,
            ajax=False,
        )

    def _emit_html_subpage(
        self,
        ctx: PipelineContext,
        result: AdaptedPage,
        definition: SubpageDefinition,
        taken: list,
    ) -> SubpageArtifact:
        document = build_subpage_document(
            definition, ctx.plan, ctx.page_url_for, taken
        )
        if definition.searchable:
            index = build_word_index_from_document(document)
            script = document.body
            if script is not None:
                block = Element("script", {"type": "text/javascript"})
                block.append(Text(search_script(index)))
                script.append(block)
                for node in parse_fragment(
                    search_trigger_html(definition.search_trigger_label)
                ):
                    script.prepend(node)
        with span("serialize"):
            html = serialize(document)
            path = definition.file_name
            self._write(result, path, html, "text/html; charset=utf-8")
        return SubpageArtifact(
            subpage_id=definition.subpage_id,
            title=definition.title,
            path=path,
            content_type="text/html",
            bytes_written=len(html.encode("utf-8")),
            prerendered=False,
            ajax=False,
        )

    def _emit_prerendered_subpage(
        self,
        ctx: PipelineContext,
        result: AdaptedPage,
        definition: SubpageDefinition,
        taken: list,
    ) -> SubpageArtifact:
        """Subpage + prerender: a page of simple pre-rendered images."""
        rendered = prerender_subpage(self, ctx, result, definition, taken)
        image_bytes = rendered["image_bytes"]
        with span("serialize"):
            self._write(
                result,
                f"images/{definition.subpage_id}.jpg",
                image_bytes,
                "image/jpeg",
            )
        html = (
            f"<!DOCTYPE html><html><head><title>{definition.title}</title>"
            f"</head><body>"
            f'<div class="smallfont">'
            f'<a href="{ctx.page_url_for(definition.parent)}">← Back</a> '
            f"{rendered['search_block']}"
            f"</div>"
            f'<img src="{self.proxy_base}?file='
            f"{definition.subpage_id}.jpg\" "
            f'width="{rendered["width"]}" height="{rendered["height"]}" '
            f'alt="{definition.title}" />'
            f"</body></html>"
        )
        path = definition.file_name
        with span("serialize"):
            self._write(result, path, html, "text/html; charset=utf-8")
        return SubpageArtifact(
            subpage_id=definition.subpage_id,
            title=definition.title,
            path=path,
            content_type="text/html",
            bytes_written=len(html.encode("utf-8")) + len(image_bytes),
            prerendered=True,
            ajax=False,
        )

    def _emit_ajax_fragment(
        self,
        ctx: PipelineContext,
        result: AdaptedPage,
        definition: SubpageDefinition,
        taken: list,
    ) -> SubpageArtifact:
        with span("serialize"):
            fragment = fragment_html(definition, taken)
            path = f"{definition.subpage_id}.fragment.html"
            self._write(result, path, fragment, "text/html; charset=utf-8")
        return SubpageArtifact(
            subpage_id=definition.subpage_id,
            title=definition.title,
            path=path,
            content_type="text/html",
            bytes_written=len(fragment.encode("utf-8")),
            prerendered=False,
            ajax=True,
        )

    def _emit_entry(
        self,
        ctx: PipelineContext,
        result: AdaptedPage,
        snapshot: Optional[dict],
    ) -> None:
        if snapshot is not None:
            body_html = snapshot_entry_html(
                self.spec.mobile_title or self.spec.site,
                (
                    (d.subpage_id, self._region_href(ctx, d), d.title)
                    for d in ctx.plan.top_level()
                ),
                snapshot,
                self.proxy_base,
            )
            menu = ""
            with span("serialize"):
                self._write(
                    result, "snapshot.jpg", snapshot["image_bytes"],
                    "image/jpeg",
                )
        else:
            # No prerender: the residual document (post-splitting) plus a
            # simple subpage menu is the entry page.
            menu = menu_html(ctx)
            with span("serialize"):
                # Serialized exactly once (inside the span); its one
                # encoding is both the entry file and the entry body.
                body_html = serialize(ctx.document)
        entry_body = assemble_entry(
            body_html, menu, ajax_injection_html(ctx)
        ).encode("utf-8")
        with span("serialize"):
            self._write(
                result, ENTRY_FILE, entry_body, "text/html; charset=utf-8"
            )
        result.entry_body = entry_body

    @staticmethod
    def _region_href(ctx: PipelineContext, definition) -> str:
        """Where a snapshot region leads: the subpage, or for an AJAX
        subpage an in-place load."""
        url = ctx.page_url_for(definition.subpage_id)
        if not definition.ajax:
            return url
        return (
            f"#\" onclick=\"return msiteLoad('{url}', "
            f"'msite-ajax-{definition.subpage_id}');"
        )
