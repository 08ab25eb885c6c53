"""The adaptation pipeline: fetch → filter → DOM → attributes → emit.

One run of the pipeline turns an originating page into the mobile bundle
for one session: a cached (or freshly rendered) snapshot entry page with
an image-map menu, the generated subpages (HTML or pre-rendered images),
AJAX fragments, and any partial-prerender artifacts — all written into the
proxy's file store under the user's session directory (§3.2, Figure 3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.browser.costs import BrowserCostModel, DEFAULT_COST_MODEL
from repro.core import fastpath
from repro.core.ajax import AjaxActionTable
from repro.core.cache import PrerenderCache
from repro.core.identify import identify, identify_one
from repro.core.plan import TransformPlan
from repro.core.prerender import (
    PartialPrerender,
    partial_css_prerender,
    produce_snapshot,
)
from repro.core.search import (
    build_word_index_from_document,
    search_script,
    search_trigger_html,
)
from repro.core.sessions import MobileSession
from repro.core.spec import AdaptationSpec
from repro.core.storage import VirtualFileSystem
from repro.core.subpages import (
    AJAX_LOADER_JS,
    SubpageDefinition,
    SubpagePlan,
    ajax_container_html,
    build_subpage_document,
    detach_for_subpage,
    fragment_html,
)
from repro.dom.document import Document
from repro.dom.index import QueryIndex
from repro.errors import (
    AdaptationError,
    CircuitOpenError,
    FetchError,
    PoolTimeoutError,
    RenderError,
    RenderFarmError,
    TransientFetchError,
)
from repro.html.parser import parse_html
from repro.html.serializer import serialize
from repro.html.stream import StreamUnsupported, stream_serialize
from repro.net.client import HttpClient
from repro.net.messages import Request, Response
from repro.net.url import URL
from repro.observability import Observability
from repro.observability.tracing import span
from repro.renderfarm.job import (
    INTERACTIVE as FARM_INTERACTIVE,
    REFRESH as FARM_REFRESH,
    RenderKey,
)
from repro.render.box import Rect
from repro.render.imagemap import MapRegion, build_image_map
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
    storage: VirtualFileSystem = field(default_factory=VirtualFileSystem)
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
    #: One-pass streaming emission for filter-only specs (falls back to
    #: the DOM round-trip automatically when unsupported).
    stream_enabled: bool = True
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
        #: Entry HTML produced by the one-pass streaming serializer;
        #: set instead of ``document`` for stream-eligible specs.
        self.streamed_html: Optional[str] = None
        self._index: Optional[QueryIndex] = None

    def note(self, message: str) -> None:
        self.notes.append(message)

    # -- object identification -----------------------------------------
    # Appliers route their selector lookups through the context so CSS
    # selections share one lazily-built per-document query index.  Every
    # applier may mutate the tree after querying it, so the pipeline
    # invalidates the index between steps (see _apply_phase).

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


@dataclass
class SubpageArtifact:
    """One emitted subpage."""

    subpage_id: str
    title: str
    path: str
    content_type: str
    bytes_written: int
    prerendered: bool
    ajax: bool


@dataclass
class AdaptedPage:
    """The result of one pipeline run."""

    entry_path: str
    entry_html: str
    subpages: list[SubpageArtifact]
    snapshot_bytes: int = 0
    snapshot_from_cache: bool = False
    used_browser: bool = False
    browser_core_seconds: float = 0.0
    lightweight_core_seconds: float = 0.0
    origin_bytes: int = 0
    notes: list[str] = field(default_factory=list)
    ajax_table: Optional[AjaxActionTable] = None
    #: ``None`` for a full-fidelity page, else the degradation mode that
    #: produced it (``"stale"`` / ``"html_only"`` — see repro.resilience).
    degraded: Optional[str] = None
    #: Strong validator for If-None-Match revalidation; ``None`` when
    #: the fast path is disabled or the page was served degraded.
    etag: Optional[str] = None
    #: True when this result was replayed from the fast-path cache
    #: without running the adaptation at all.
    fastpath_hit: bool = False

    @property
    def total_core_seconds(self) -> float:
        return self.browser_core_seconds + self.lightweight_core_seconds


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
        spec.validate()
        self.spec = spec
        self.services = services
        self.session = session
        self.proxy_base = proxy_base
        # The compiled plan is normally shared across requests by the
        # proxy; direct pipeline constructions compile their own.
        if plan is None or plan.spec is not spec:
            plan = TransformPlan.compile(
                spec, proxy_base=proxy_base, namespace=namespace
            )
        self.plan = plan
        # The origin URL never changes for a deployment — parse it once
        # instead of on every fetch/render.
        self._origin = URL.parse(
            f"http://{spec.origin_host}{spec.page_path}"
        )
        # Multi-page deployments give each page proxy its own namespace
        # inside the shared session directory so generated files never
        # collide across pages.
        suffix = f"/{namespace.strip('/')}" if namespace.strip("/") else ""
        self.page_dir = f"{session.directory}{suffix}"
        self.image_dir = f"{self.page_dir}/images"
        #: While a run is capturing for the fast path, every emitted
        #: artifact is mirrored here as (relpath, content_type, bytes).
        self._capture: Optional[list[tuple[str, str, bytes]]] = None
        #: The requesting device class, captured by :meth:`run` so the
        #: farm's render keys coalesce per (site, path, device, spec).
        self._device_class = "default"
        #: Where this session's origin-validator record lives, and what
        #: the run's 200 proved (``None``: nothing to vouch with); every
        #: bundle store writes the one under the other.
        self._validator_key = ""
        self._validator: Optional[fastpath.OriginValidator] = None

    # ------------------------------------------------------------------

    def run(
        self, force_refresh: bool = False, device_class: str = "default"
    ) -> AdaptedPage:
        try:
            return self._run_full(force_refresh, device_class)
        except AuthenticationRequired:
            raise  # an auth challenge is a feature, not a failure
        except (FetchError, AdaptationError, CircuitOpenError) as exc:
            # Bottom rung of the entry-page ladder: the origin (or the
            # adaptation itself) is gone, but a stale fast-path bundle or
            # snapshot may still make the page navigable.  No stale copy
            # ⇒ re-raise, and the proxy maps the error to an honest
            # 502/503/504.
            return self._serve_stale_entry(exc, device_class)

    def _run_full(
        self, force_refresh: bool, device_class: str = "default"
    ) -> AdaptedPage:
        self._device_class = device_class
        services = self.services
        spec = self.spec
        spec_fp = self.plan.fingerprint
        resilience = services.resilience
        record = None
        audit = False
        self._validator = None
        trusted = services.fastpath_enabled and resilience.trusts_validators(
            spec.origin_host
        )
        if trusted:
            self._validator_key = fastpath.validator_key(
                spec.site, spec.page_path, spec_fp,
                self._requester_identity(),
            )
            if not force_refresh:
                record = fastpath.load_validator(
                    services.cache, self._validator_key
                )
            if record is not None:
                # The audit sample is fetched in full *instead of*
                # conditionally: a request never costs two fetches.
                audit = resilience.audit_due(spec.origin_host)
        # Spans are deliberately flat and sequential (never nested on
        # this path) so their durations sum to at most the request wall
        # time — each phase of the request is attributed exactly once.
        with span("detect") as detect:
            response = self._fetch_origin(
                record.etag if record is not None and not audit else None
            )
            if response.status == 304 and detect is not None:
                detect.annotate(revalidated=True)
        if response.status == 304:
            self._revalidation_counter("not_modified").inc()
            replayed = self._replay_revalidated(record, device_class)
            if replayed is not None:
                return replayed
            # The origin vouches for a bundle that is gone (evicted,
            # expired, invalidated, another device class's): fetch the
            # body after all and carry on as a normal miss.
            record = None
            with span("detect"):
                response = self._fetch_origin()
        origin_bytes = len(response.body)
        # Cosmetic origin churn (template reindentation) must not bust
        # the content fingerprint; applied unconditionally so the
        # adapted output is identical whether or not the fast/delta
        # paths are enabled.
        source = fastpath.normalize_origin(response.text_body)

        etag = bundle_key = pointer_key = None
        if services.fastpath_enabled:
            # A 200: hashing the source *is* the revalidation — a
            # changed page changes the content fingerprint and misses
            # naturally.
            content_fp = fastpath.content_fingerprint(source)
            if trusted:
                self._judge_validator(
                    record, audit, response.headers.get("ETag"), content_fp
                )
            etag, bundle_key = self._bundle_identity(device_class, content_fp)
            pointer_key = fastpath.latest_key(
                spec.site, spec.page_path, device_class, spec_fp
            )
            if not force_refresh:
                with span("fastpath"):
                    bundle = fastpath.load_bundle(
                        services.cache, bundle_key
                    )
                if bundle is not None:
                    self._fastpath_counter("hits").inc()
                    if self._validator not in (None, record):
                        # This 200 landed on a bundle stored under
                        # another validator (a reindented template, a
                        # page that flipped back): vouch for it for as
                        # long as the bundle lives.
                        entry = services.cache.peek(bundle_key)
                        if entry is not None:
                            self._store_validator(
                                entry.stored_at + entry.ttl_s - services.now
                            )
                    return self._replay_bundle(bundle, origin_bytes, etag)
                self._fastpath_counter("misses").inc()
                # A warm miss — the bundle scheme knows this page, only
                # the content changed.  Try patching the cached response
                # incrementally before paying for a full replay.
                if services.delta is not None:
                    with span("delta"):
                        delta_result = services.delta.attempt(
                            self, source, origin_bytes, device_class,
                            etag, bundle_key, pointer_key,
                        )
                    if delta_result is not None:
                        return delta_result

        ctx = PipelineContext(self.spec, source, self.proxy_base)
        self._capture = [] if services.fastpath_enabled else None
        try:
            result = self._adapt_and_emit(ctx, origin_bytes, force_refresh)
            result.etag = etag
            if services.fastpath_enabled and self._bundle_storable(ctx, result):
                # The bundle freezes every cached component it embeds,
                # so it must expire no later than the shortest one.
                ttl_s = ctx.cache_ttl_s
                for definition in ctx.plan.subpages.values():
                    if definition.cacheable:
                        ttl_s = min(ttl_s, definition.cache_ttl_s)
                with span("cache"):
                    stored_bundle = self._bundle_from(result, etag)
                    self.store_bundle(
                        bundle_key, pointer_key, stored_bundle, ttl_s
                    )
                self._fastpath_counter("stores").inc()
                if services.delta is not None:
                    # Hands ctx over: the engine stashes it and proves a
                    # memo against ctx.document on a later warm miss, so
                    # nothing may mutate it from here on.
                    services.delta.seed(
                        self, ctx, result, stored_bundle, ttl_s,
                        device_class, raw_source=source,
                    )
        finally:
            self._capture = None
        return result

    def _adapt_and_emit(
        self, ctx: PipelineContext, origin_bytes: int, force_refresh: bool
    ) -> AdaptedPage:
        with span("filter"):
            self._apply_phase(ctx, "filter")
        use_stream = (
            self.services.stream_enabled and self.plan.stream_eligible
        )
        with span("adapt"):
            if use_stream:
                # Filter-only spec: the adapted output is the filtered
                # source normalized — one tokenizer pass, no tree.
                try:
                    ctx.streamed_html = stream_serialize(ctx.source)
                except StreamUnsupported as exc:
                    self._fastpath_counter("stream_fallback").inc()
                    ctx.note(f"stream fallback: {exc}")
            if ctx.streamed_html is None:
                ctx.document = parse_html(ctx.source)
                self._apply_phase(ctx, "dom")
                self._fastpath_counter("dom").inc()
            else:
                self._fastpath_counter("stream").inc()
            self._apply_phase(ctx, "page")

        result = AdaptedPage(
            entry_path=f"{self.page_dir}/index.html",
            entry_html="",
            subpages=[],
            origin_bytes=origin_bytes,
            ajax_table=ctx.ajax_table,
        )
        result.lightweight_core_seconds += (
            self.services.costs.lightweight_request_s
        )

        snapshot_bundle = None
        if ctx.prerender_page:
            snapshot_bundle = self._obtain_snapshot(ctx, result, force_refresh)

        self._emit_partial_prerenders(ctx, result)
        self._emit_media_thumbnails(ctx, result)
        taken_by_id = self._emit_subpages(ctx, result)
        self._emit_entry(ctx, result, snapshot_bundle, taken_by_id)
        result.notes = ctx.notes
        self.session.pages_served += 1
        return result

    # ------------------------------------------------------------------
    # fast path

    def _fastpath_counter(self, name: str):
        return fastpath.fastpath_counter(
            self.services.observability.registry, name
        )

    def _bundle_storable(
        self, ctx: PipelineContext, result: AdaptedPage
    ) -> bool:
        """Whether this run's output may be replayed for later requests.

        Degraded results are never stored (a replay would pin the
        degradation past the outage).  AJAX pages are skipped: their
        action handlers are registered by the run itself, so a replayed
        entry after a restart would serve links with no handlers.  And
        anything the spec said to render per request — an uncached page
        snapshot, a prerendered subpage without ``cacheable`` — keeps
        that semantic by keeping the whole response out of the bundle
        cache.
        """
        if result.degraded is not None:
            return False
        if len(ctx.ajax_table):
            return False
        if ctx.prerender_page and not ctx.cache_snapshot:
            return False
        return all(
            definition.cacheable
            for definition in ctx.plan.subpages.values()
            if definition.prerender
        )

    def _replay_bundle(
        self,
        bundle: fastpath.FastpathBundle,
        origin_bytes: int,
        etag: Optional[str],
    ) -> AdaptedPage:
        """Restore a cached bundle into this session's directory."""
        for item in bundle.files:
            self.services.storage.write(
                f"{self.page_dir}/{item.relpath}",
                item.data,
                content_type=item.content_type,
                now=self.services.now,
            )
        subpages = [
            SubpageArtifact(
                subpage_id=meta["subpage_id"],
                title=meta["title"],
                path=f"{self.page_dir}/{meta['relpath']}",
                content_type=meta["content_type"],
                bytes_written=meta["bytes_written"],
                prerendered=meta["prerendered"],
                ajax=meta["ajax"],
            )
            for meta in bundle.subpages
        ]
        result = AdaptedPage(
            entry_path=f"{self.page_dir}/{bundle.entry_rel}",
            entry_html=bundle.entry_html,
            subpages=subpages,
            snapshot_bytes=bundle.snapshot_bytes,
            snapshot_from_cache=bundle.snapshot_bytes > 0,
            used_browser=False,
            lightweight_core_seconds=(
                self.services.costs.lightweight_request_s
            ),
            origin_bytes=origin_bytes,
            notes=[
                *bundle.notes,
                "fastpath: adapted response replayed from cache",
            ],
            etag=etag,
            fastpath_hit=True,
        )
        self.session.pages_served += 1
        return result

    # ------------------------------------------------------------------
    # origin revalidation

    def _revalidation_counter(self, result: str):
        return fastpath.revalidation_counter(
            self.services.observability.registry, result
        )

    def _requester_identity(self) -> str:
        """Who the origin will think is asking: what ``_fetch_origin``
        is about to send for this session, digested."""
        return fastpath.requester_identity(
            self.session.jar.cookie_header(self._origin, self.services.now),
            self.session.http_credentials.get(self.spec.origin_host),
        )

    def _bundle_identity(
        self, device_class: str, content_fp: str
    ) -> tuple[str, str]:
        """(client ETag, bundle key) of this page for one content
        fingerprint — computed from a 200, or recorded beside a 304."""
        spec, spec_fp = self.spec, self.plan.fingerprint
        return (
            fastpath.make_etag(spec_fp, device_class, content_fp),
            fastpath.fastpath_key(
                spec.site, spec.page_path, device_class, spec_fp, content_fp
            ),
        )

    def _replay_revalidated(
        self, record: fastpath.OriginValidator, device_class: str
    ) -> Optional[AdaptedPage]:
        """The origin answered 304: the record names the bundle."""
        etag, bundle_key = self._bundle_identity(
            device_class, record.content_fp
        )
        with span("fastpath"):
            bundle = fastpath.load_bundle(self.services.cache, bundle_key)
        if bundle is None:
            return None
        self._fastpath_counter("hits").inc()
        return self._replay_bundle(bundle, 0, etag)

    def _judge_validator(
        self,
        record: Optional[fastpath.OriginValidator],
        audit: bool,
        origin_etag: Optional[str],
        content_fp: str,
    ) -> None:
        """Take in what a 200 proved about the origin's validators.

        ``record`` is what the request was (or, on an audit, would have
        been) revalidated with.  The same ETag over a different
        fingerprint is an origin that would have answered 304 to
        changed bytes: its record goes, and so does its host's trust.
        """
        if record is not None and origin_etag == record.etag:
            if content_fp != record.content_fp:
                self._revalidation_counter("audit_mismatch").inc()
                self.services.cache.invalidate(self._validator_key)
                self.services.resilience.demote_origin(self.spec.origin_host)
                return
            if audit:
                self._revalidation_counter("audit_ok").inc()
        elif record is not None:
            self._revalidation_counter("modified").inc()
        # Only a strong validator is worth a conditional request.
        if origin_etag is not None and not origin_etag.startswith("W/"):
            self._validator = fastpath.OriginValidator(
                origin_etag, content_fp
            )

    def _store_validator(self, ttl_s: float) -> None:
        if self._validator is not None:
            fastpath.store_validator(
                self.services.cache, self._validator_key,
                self._validator, ttl_s,
            )

    def store_bundle(
        self,
        bundle_key: str,
        pointer_key: str,
        bundle: fastpath.FastpathBundle,
        ttl_s: float,
    ) -> None:
        """Store a bundle and, beside it and for as long, the origin
        validator of the fetch it was adapted from."""
        fastpath.store_bundle(
            self.services.cache, bundle_key, pointer_key, bundle,
            ttl_s=ttl_s,
        )
        self._store_validator(ttl_s)

    def _bundle_from(
        self, result: AdaptedPage, etag: Optional[str]
    ) -> fastpath.FastpathBundle:
        files = [
            fastpath.BundleFile(relpath, content_type, data)
            for relpath, content_type, data in self._capture or []
        ]
        subpages = [
            {
                "subpage_id": artifact.subpage_id,
                "title": artifact.title,
                "relpath": self._relpath(artifact.path),
                "content_type": artifact.content_type,
                "bytes_written": artifact.bytes_written,
                "prerendered": artifact.prerendered,
                "ajax": artifact.ajax,
            }
            for artifact in result.subpages
        ]
        return fastpath.FastpathBundle(
            etag=etag or "",
            entry_rel=self._relpath(result.entry_path),
            entry_html=result.entry_html,
            files=files,
            subpages=subpages,
            notes=list(result.notes),
            snapshot_bytes=result.snapshot_bytes,
            used_browser=result.used_browser,
        )

    def _relpath(self, path: str) -> str:
        prefix = f"{self.page_dir}/"
        return path[len(prefix):] if path.startswith(prefix) else path

    def _write(self, path: str, data, content_type: str) -> None:
        """Write an artifact, mirroring it into the fast-path capture."""
        self.services.storage.write(
            path, data, content_type=content_type, now=self.services.now
        )
        if self._capture is not None:
            payload = (
                data.encode("utf-8") if isinstance(data, str) else data
            )
            self._capture.append(
                (self._relpath(path), content_type, payload)
            )

    # ------------------------------------------------------------------
    # fetching

    def _origin_url(self) -> URL:
        return self._origin

    def _fetch_origin(self, if_none_match: Optional[str] = None) -> Response:
        """The origin's 200 — or, to ``if_none_match``, its 304."""
        client = self.services.make_client(self.session.jar)
        url = self._origin_url()
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
    # attribute phases

    def _apply_phase(self, ctx: PipelineContext, phase: str) -> None:
        # The plan resolved registry lookups and phase grouping at
        # deployment time; request time just walks the step list.
        for step in self.plan.steps_for(phase):
            try:
                step.definition.applier(ctx, step.binding)
            except AdaptationError:
                raise
            except Exception as exc:
                raise AdaptationError(
                    f"attribute {step.binding.attribute!r} failed: {exc}"
                ) from exc
            finally:
                # Appliers select-then-mutate: whatever tree shape the
                # index memoized may be gone after the step.
                ctx.invalidate_index()

    # ------------------------------------------------------------------
    # snapshot (the heavyweight path + cache)

    def _snapshot_cache_key(self, ctx: PipelineContext) -> str:
        spec = self.spec
        return (
            f"snapshot:{spec.site}:{spec.page_path}:w{spec.viewport_width}"
            f":s{spec.snapshot_scale}:q{spec.snapshot_quality}"
        )

    def _cached_snapshot_bundle(
        self, key: str, record_stats: bool = True
    ) -> Optional[dict]:
        """Reassemble a manifest+image bundle from the cache, or ``None``.

        ``record_stats=False`` uses :meth:`PrerenderCache.peek` so
        single-flight double-checks don't skew hit/miss accounting.
        """
        cache = self.services.cache
        lookup = cache.get if record_stats else cache.peek
        entry = lookup(key)
        if entry is None:
            return None
        image_entry = lookup(key + ":image")
        if image_entry is None:
            return None
        bundle = json.loads(entry.data.decode("utf-8"))
        bundle["image_bytes"] = image_entry.data
        return bundle

    def _store_snapshot_bundle(
        self, key: str, bundle: dict, ttl_s: float
    ) -> None:
        manifest = {
            key_: value
            for key_, value in bundle.items()
            if key_ != "image_bytes"
        }
        self.services.cache.put(
            key,
            json.dumps(manifest),
            content_type="application/json",
            ttl_s=ttl_s,
        )
        self.services.cache.put(
            key + ":image",
            bundle["image_bytes"],
            content_type="image/jpeg",
            ttl_s=ttl_s,
        )

    def _obtain_snapshot(
        self, ctx: PipelineContext, result: AdaptedPage, force_refresh: bool
    ) -> Optional[dict]:
        """Cached/fresh snapshot, degrading down the render ladder.

        Render fails (crash, hang, open breaker, exhausted pool) ⇒ serve
        the stale snapshot if one survives in the cache's grace store ⇒
        otherwise return ``None``, which makes :meth:`_emit_entry` build
        the HTML-only menu entry page.
        """
        key = self._snapshot_cache_key(ctx)
        try:
            return self._obtain_snapshot_fresh(ctx, result, force_refresh, key)
        except (
            RenderError,
            FetchError,
            CircuitOpenError,
            PoolTimeoutError,
            RenderFarmError,
        ) as exc:
            resilience = self.services.resilience
            with span("degrade"):
                bundle = (
                    self._stale_snapshot_bundle(key)
                    if ctx.cache_snapshot
                    else None
                )
                if bundle is not None:
                    result.snapshot_from_cache = True
                    result.snapshot_bytes = len(bundle["image_bytes"])
                    result.degraded = result.degraded or STALE
                    resilience.record_degraded(STALE)
                    ctx.note(
                        f"degraded: stale snapshot served after render "
                        f"failure ({exc})"
                    )
                    return bundle
                result.degraded = result.degraded or HTML_ONLY
                resilience.record_degraded(HTML_ONLY)
                ctx.note(
                    f"degraded: html-only entry after render failure ({exc})"
                )
                return None

    def _stale_snapshot_bundle(self, key: str) -> Optional[dict]:
        """A fresh-or-stale manifest+image bundle, or ``None``."""
        cache = self.services.cache
        entry = cache.load_stale(key)
        image = cache.load_stale(key + ":image")
        if entry is None or image is None:
            return None
        bundle = json.loads(entry.data.decode("utf-8"))
        bundle["image_bytes"] = image.data
        return bundle

    def _serve_stale_entry(
        self, exc: BaseException, device_class: str = "default"
    ) -> AdaptedPage:
        """Entry page served from stale caches when the run failed.

        Top rung: the last fast-path bundle for this (page, device,
        spec), fresh or stale — it replays the complete artifact set,
        not just the snapshot entry.  Below it, the stale-snapshot rung
        from the resilience ladder.  Nothing stale ⇒ re-raise.
        """
        if self.services.fastpath_enabled:
            bundle = fastpath.load_stale_bundle(
                self.services.cache,
                fastpath.latest_key(
                    self.spec.site, self.spec.page_path, device_class,
                    self.plan.fingerprint,
                ),
            )
            if bundle is not None:
                with span("degrade"):
                    result = self._replay_bundle(bundle, 0, None)
                    result.degraded = STALE
                    result.snapshot_from_cache = True
                    result.notes.append(
                        f"degraded: stale fast-path bundle served; "
                        f"upstream failure: {exc}"
                    )
                self._fastpath_counter("stale_serves").inc()
                self.services.resilience.record_degraded(STALE)
                return result
        key = self._snapshot_cache_key(None)
        bundle = self._stale_snapshot_bundle(key)
        if bundle is None:
            raise exc
        with span("degrade"):
            result = AdaptedPage(
                entry_path=f"{self.page_dir}/index.html",
                entry_html="",
                subpages=[],
                snapshot_from_cache=True,
                snapshot_bytes=len(bundle["image_bytes"]),
                degraded=STALE,
            )
            title = self.spec.mobile_title or self.spec.site
            regions = [
                MapRegion(
                    rect=Rect(*raw),
                    href=f"{self.proxy_base}?page={subpage_id}",
                    alt=subpage_id,
                )
                for subpage_id, raw in sorted(bundle["regions"].items())
            ]
            image_map = build_image_map(
                regions,
                snapshot_src=f"{self.proxy_base}?file=snapshot.jpg",
                scale=bundle["scale"],
                width=bundle["width"],
                height=bundle["height"],
            )
            result.entry_html = (
                f"<!DOCTYPE html><html><head><title>{title}</title>"
                f'<meta name="viewport" content="width=device-width, '
                f'initial-scale=1" /></head><body>'
                f"{image_map}"
                f"</body></html>"
            )
            self.services.storage.write(
                f"{self.page_dir}/snapshot.jpg",
                bundle["image_bytes"],
                content_type="image/jpeg",
                now=self.services.now,
            )
            self.services.storage.write(
                result.entry_path,
                result.entry_html,
                content_type="text/html; charset=utf-8",
                now=self.services.now,
            )
        result.notes.append(
            f"degraded: stale entry page served; upstream failure: {exc}"
        )
        self.services.resilience.record_degraded(STALE)
        self.session.pages_served += 1
        return result

    def _obtain_snapshot_fresh(
        self,
        ctx: PipelineContext,
        result: AdaptedPage,
        force_refresh: bool,
        key: str,
    ) -> dict:
        farm = self.services.renderfarm
        if not ctx.cache_snapshot:
            return self._render_snapshot(ctx, result)
        if force_refresh:

            def _refresh_render() -> dict:
                fresh = self._render_snapshot(ctx, result)
                with span("cache"):
                    self._store_snapshot_bundle(key, fresh, ctx.cache_ttl_s)
                return fresh

            if farm is None:
                return _refresh_render()
            # A forced refresh of a warm artifact rides the middle lane:
            # it must not starve interactive cold misses.
            return farm.render(
                self._farm_key(), _refresh_render, lane=FARM_REFRESH
            )
        with span("cache"):
            bundle = self._cached_snapshot_bundle(key)
        if bundle is not None:
            result.snapshot_from_cache = True
            result.snapshot_bytes = len(bundle["image_bytes"])
            return bundle

        rendered_here = False

        def _render_and_store() -> dict:
            nonlocal rendered_here
            cached = self._cached_snapshot_bundle(key, record_stats=False)
            if cached is not None:
                return cached
            rendered_here = True
            fresh = self._render_snapshot(ctx, result)
            with span("cache"):
                self._store_snapshot_bundle(key, fresh, ctx.cache_ttl_s)
            return fresh

        if farm is not None:
            # The farm supersedes the per-pool single flight: jobs
            # sharing this (site, path, device, spec) key coalesce on
            # one queued render, and a full queue raises into the
            # degradation ladder instead of parking this thread.
            bundle = farm.render(
                self._farm_key(), _render_and_store, lane=FARM_INTERACTIVE
            )
        else:
            # Single flight: concurrent sessions cold-missing on this
            # page share one browser render instead of stampeding the
            # pool.
            bundle = self.services.cache.load_or_join(key, _render_and_store)
        if not rendered_here:
            result.snapshot_from_cache = True
            result.snapshot_bytes = len(bundle["image_bytes"])
        return bundle

    def _farm_key(self, suffix: str = "") -> RenderKey:
        """This deployment's coalescing identity for farm submissions."""
        path = self.spec.page_path + (f"#{suffix}" if suffix else "")
        return RenderKey(
            site=self.spec.site,
            path=path,
            device_class=self._device_class,
            spec_fp=self.plan.fingerprint,
        )

    def _render_snapshot(
        self, ctx: PipelineContext, result: AdaptedPage
    ) -> dict:
        """The full browser path: launch, load subresources, paint."""
        from repro.render.snapshot import collect_stylesheets, render_snapshot

        # The breaker check happens before a browser is even constructed:
        # an open renderer breaker must never consume a pool slot.
        with self.services.resilience.render_breaker.guard(
            failure_on=(RenderError, FetchError, PoolTimeoutError)
        ):
            browser = self.services.make_browser(
                self.session.jar, self.spec.viewport_width
            )
            with span("render"), browser:
                external_css = browser._fetch_stylesheets(
                    ctx.document, self._origin_url()
                )[0]
                snapshot = render_snapshot(
                    ctx.document,
                    viewport_width=self.spec.viewport_width,
                    external_css=external_css,
                )
        result.used_browser = True
        result.browser_core_seconds += self.services.costs.browser_request_s

        scale = float(
            ctx.prerender_params.get("scale", self.spec.snapshot_scale)
        )
        quality = int(
            ctx.prerender_params.get("quality", self.spec.snapshot_quality)
        )
        artifact = produce_snapshot(snapshot, scale=scale, quality=quality)
        regions = {}
        for definition in ctx.plan.top_level():
            rect = None
            for element in definition.elements:
                geometry = snapshot.geometry_of(element)
                if geometry is not None:
                    rect = geometry if rect is None else _union(rect, geometry)
            if rect is not None:
                regions[definition.subpage_id] = [
                    rect.x, rect.y, rect.width, rect.height,
                ]
        result.snapshot_bytes = artifact.encoded.size_bytes
        return {
            "scale": scale,
            "width": artifact.scaled_width,
            "height": artifact.scaled_height,
            "page_height": snapshot.page_height,
            "regions": regions,
            "image_bytes": artifact.encoded.data,
        }

    # ------------------------------------------------------------------
    # emission

    def _emit_partial_prerenders(
        self, ctx: PipelineContext, result: AdaptedPage
    ) -> None:
        for binding, element in ctx.partial_prerender_targets:
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
            name = binding.param("name", f"partial{id(element) & 0xFFFF}")
            base = f"{self.image_dir}/{name}"
            with span("serialize"):
                self._write(
                    f"{base}.jpg", artifact.background.data, "image/jpeg"
                )
                self._write(
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
                self._write(f"{self.image_dir}/{name}", data, "image/jpeg")
        if ctx.media_thumbnails:
            total = sum(len(d) for d in ctx.media_thumbnails.values())
            ctx.note(
                f"media thumbnails: {len(ctx.media_thumbnails)} images, "
                f"{total} bytes"
            )

    def _emit_subpages(
        self, ctx: PipelineContext, result: AdaptedPage
    ) -> dict[str, list]:
        taken_by_id: dict[str, list] = {}
        for subpage_id in ctx.plan.order:
            definition = ctx.plan.subpages[subpage_id]
            taken = detach_for_subpage(definition)
            taken_by_id[subpage_id] = taken
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
                            ctx, definition, taken
                        )
                    result.degraded = result.degraded or HTML_ONLY
                    self.services.resilience.record_degraded(HTML_ONLY)
                    ctx.note(
                        f"degraded: subpage {definition.subpage_id} emitted "
                        f"as HTML after render failure ({exc})"
                    )
            elif definition.ajax:
                artifact = self._emit_ajax_fragment(ctx, definition, taken)
            elif definition.engine != "html":
                artifact = self._emit_engine_subpage(ctx, definition, taken)
            else:
                artifact = self._emit_html_subpage(ctx, definition, taken)
            result.subpages.append(artifact)
        return taken_by_id

    def _emit_engine_subpage(
        self,
        ctx: PipelineContext,
        definition: SubpageDefinition,
        taken: list,
    ) -> SubpageArtifact:
        """Subpages rendered through an alternative output engine (§1:
        'HTML, static images, PDF, plain text ... at any point in the
        rendering process')."""
        from repro.render.engines import EngineRegistry

        with span("serialize"):
            document = build_subpage_document(
                definition, ctx.plan, ctx.page_url_for, taken
            )
            output = EngineRegistry().get(definition.engine).render(document)
            extensions = {"text": "txt", "pdf": "pdf"}
            extension = extensions.get(definition.engine, definition.engine)
            path = f"{self.page_dir}/{definition.subpage_id}.{extension}"
            self._write(path, output.data, output.content_type)
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
                from repro.dom.element import Element
                from repro.dom.node import Text

                block = Element("script", {"type": "text/javascript"})
                block.append(Text(search_script(index)))
                script.append(block)
                from repro.html.parser import parse_fragment

                for node in parse_fragment(
                    search_trigger_html(definition.search_trigger_label)
                ):
                    script.prepend(node)
        with span("serialize"):
            html = serialize(document)
            path = f"{self.page_dir}/{definition.file_name}"
            self._write(path, html, "text/html; charset=utf-8")
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
        from repro.core.search import build_word_index, shift_index
        from repro.render.image import RasterImage, encode_jpeg
        from repro.render.snapshot import render_snapshot

        quality = int(ctx.fidelity.get("quality", 55))
        cache_key = (
            f"objrender:{self.spec.site}:{self.spec.page_path}"
            f":{definition.subpage_id}:q{quality}"
            f":w{self.spec.viewport_width}"
        )
        def _cached_objrender(record_stats: bool = True) -> Optional[dict]:
            lookup = (
                self.services.cache.get
                if record_stats
                else self.services.cache.peek
            )
            manifest_entry = lookup(cache_key)
            image_entry = lookup(cache_key + ":image")
            if manifest_entry is None or image_entry is None:
                return None
            bundle = json.loads(manifest_entry.data.decode("utf-8"))
            bundle["image_bytes"] = image_entry.data
            return bundle

        def _render_objrender() -> dict:
            inject_render_fault(self.services.faults)
            document = build_subpage_document(
                definition, ctx.plan, ctx.page_url_for, taken
            )
            container = document.get_element_by_id(
                f"msite-subpage-{definition.subpage_id}"
            )
            snapshot = render_snapshot(
                document, viewport_width=self.spec.viewport_width
            )
            rect = snapshot.geometry_of(container)
            if rect is None or rect.width < 1 or rect.height < 1:
                encoded = encode_jpeg(
                    RasterImage.blank(1, 1), quality=quality
                )
                rect = None
            else:
                x, y, width, height = rect.rounded()
                width = max(
                    1, min(width, snapshot.image.width - max(0, x))
                )
                height = max(
                    1, min(height, snapshot.image.height - max(0, y))
                )
                encoded = encode_jpeg(
                    snapshot.image.cropped(
                        max(0, x), max(0, y), width, height
                    ),
                    quality=quality,
                )
            result.used_browser = True
            result.browser_core_seconds += (
                self.services.costs.browser_request_s
            )
            search_block = ""
            if definition.searchable and rect is not None:
                # §3.3: "the search attribute effectively allows
                # pre-rendered images to be searched" — index words at
                # their rendered locations, translated into the cropped
                # image's coordinates.
                box = snapshot.layout_root.find_box_for(container)
                if box is not None:
                    index = shift_index(
                        build_word_index(box),
                        dx=-int(rect.x),
                        dy=-int(rect.y),
                    )
                    search_block = (
                        f'<script type="text/javascript">'
                        f"{search_script(index)}</script>"
                        f"{search_trigger_html(definition.search_trigger_label)}"
                    )
            image_bytes = encoded.data
            image_width = encoded.width
            image_height = encoded.height
            if definition.cacheable:
                self.services.cache.put(
                    cache_key,
                    json.dumps(
                        {
                            "width": image_width,
                            "height": image_height,
                            "search_block": search_block,
                        }
                    ),
                    content_type="application/json",
                    ttl_s=definition.cache_ttl_s,
                )
                self.services.cache.put(
                    cache_key + ":image",
                    image_bytes,
                    content_type="image/jpeg",
                    ttl_s=definition.cache_ttl_s,
                )
            return {
                "image_bytes": image_bytes,
                "width": image_width,
                "height": image_height,
                "search_block": search_block,
            }

        if definition.cacheable:
            # §3.3 object caching: "Once a cacheable object is rendered,
            # it is placed into a pre-render cache on the server and can
            # be used by the attribute system as needed."  Cold misses
            # from concurrent sessions collapse into one render.
            with span("cache"):
                bundle = _cached_objrender()
            if bundle is None:

                def _load() -> dict:
                    double_check = _cached_objrender(record_stats=False)
                    if double_check is not None:
                        return double_check
                    with span("render"):
                        return _render_objrender()

                farm = self.services.renderfarm
                if farm is not None:
                    bundle = farm.render(
                        self._farm_key(suffix=definition.subpage_id),
                        _load,
                        lane=FARM_INTERACTIVE,
                    )
                else:
                    bundle = self.services.cache.load_or_join(
                        cache_key, _load
                    )
        else:
            with span("render"):
                bundle = _render_objrender()
        image_bytes = bundle["image_bytes"]
        image_width = bundle["width"]
        image_height = bundle["height"]
        search_block = bundle["search_block"]
        image_path = (
            f"{self.image_dir}/{definition.subpage_id}.jpg"
        )
        with span("serialize"):
            self._write(image_path, image_bytes, "image/jpeg")
        html = (
            f"<!DOCTYPE html><html><head><title>{definition.title}</title>"
            f"</head><body>"
            f'<div class="smallfont">'
            f'<a href="{ctx.page_url_for(definition.parent)}">← Back</a> '
            f"{search_block}"
            f"</div>"
            f'<img src="{self.proxy_base}?file='
            f"{definition.subpage_id}.jpg\" "
            f'width="{image_width}" height="{image_height}" '
            f'alt="{definition.title}" />'
            f"</body></html>"
        )
        path = f"{self.page_dir}/{definition.file_name}"
        with span("serialize"):
            self._write(path, html, "text/html; charset=utf-8")
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
        definition: SubpageDefinition,
        taken: list,
    ) -> SubpageArtifact:
        with span("serialize"):
            fragment = fragment_html(definition, taken)
            path = f"{self.page_dir}/{definition.subpage_id}.fragment.html"
            self._write(path, fragment, "text/html; charset=utf-8")
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
        snapshot_bundle: Optional[dict],
        taken_by_id: dict[str, list],
    ) -> None:
        title = self.spec.mobile_title or self.spec.site
        if snapshot_bundle is not None:
            entry_html = self._entry_from_snapshot(
                ctx, snapshot_bundle, title
            )
            image_path = f"{self.page_dir}/snapshot.jpg"
            with span("serialize"):
                self._write(
                    image_path,
                    snapshot_bundle["image_bytes"],
                    "image/jpeg",
                )
        else:
            # No prerender: the residual document (post-splitting) plus a
            # simple subpage menu is the entry page.
            menu_items = "".join(
                f'<li><a href="{ctx.page_url_for(d.subpage_id)}">'
                f"{d.title}</a></li>"
                for d in ctx.plan.top_level()
                if not d.ajax
            )
            menu = (
                f'<ul id="msite-menu">{menu_items}</ul>' if menu_items else ""
            )
            with span("serialize"):
                # Serialized exactly once (inside the span) and reused
                # below for both the stored file and entry_html.  The
                # stream path already produced the normalized HTML.
                if ctx.streamed_html is not None:
                    body_html = ctx.streamed_html
                elif ctx.document is not None:
                    body_html = serialize(ctx.document)
                else:
                    body_html = ctx.source
            entry_html = body_html.replace(
                "<body>", f"<body>{menu}", 1
            ) if "<body>" in body_html else menu + body_html
        entry_html = self._inject_ajax_support(ctx, entry_html)
        with span("serialize"):
            self._write(
                result.entry_path, entry_html, "text/html; charset=utf-8"
            )
        result.entry_html = entry_html

    def _entry_from_snapshot(
        self, ctx: PipelineContext, bundle: dict, title: str
    ) -> str:
        regions = []
        for definition in ctx.plan.top_level():
            raw = bundle["regions"].get(definition.subpage_id)
            if raw is None:
                continue
            rect = Rect(*raw)
            if definition.ajax:
                href = (
                    f"#\" onclick=\"return msiteLoad("
                    f"'{ctx.page_url_for(definition.subpage_id)}', "
                    f"'msite-ajax-{definition.subpage_id}');"
                )
            else:
                href = ctx.page_url_for(definition.subpage_id)
            regions.append(
                MapRegion(rect=rect, href=href, alt=definition.title)
            )
        image_map = build_image_map(
            regions,
            snapshot_src=f"{self.proxy_base}?file=snapshot.jpg",
            scale=bundle["scale"],
            width=bundle["width"],
            height=bundle["height"],
        )
        return (
            f"<!DOCTYPE html><html><head><title>{title}</title>"
            f'<meta name="viewport" content="width=device-width, '
            f'initial-scale=1" /></head><body>'
            f"{image_map}"
            f"</body></html>"
        )

    def _inject_ajax_support(
        self, ctx: PipelineContext, entry_html: str
    ) -> str:
        ajax_defs = [d for d in ctx.plan.top_level() if d.ajax]
        if not ajax_defs:
            return entry_html
        containers = "".join(
            ajax_container_html(d.subpage_id) for d in ajax_defs
        )
        script = (
            f'<script type="text/javascript">{AJAX_LOADER_JS}</script>'
        )
        injection = containers + script + "</body>"
        if "</body>" in entry_html:
            return entry_html.replace("</body>", injection, 1)
        return entry_html + containers + script


def _union(a: Rect, b: Rect) -> Rect:
    x1 = min(a.x, b.x)
    y1 = min(a.y, b.y)
    x2 = max(a.right, b.right)
    y2 = max(a.bottom, b.bottom)
    return Rect(x1, y1, x2 - x1, y2 - y1)
