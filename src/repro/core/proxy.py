"""The m.Site proxy runtime: a multi-session, stateful content-adaptation
proxy.

This is the Python analog of the generated PHP proxy: it "handles user
session authentication, cookie jars, and high-level session
administration, ... downloading of the originating page on demand, http
authentication on behalf of the client, and any error handling should the
page be unavailable" (§3.2).  One URL (``proxy.php``) serves every role
through query parameters, exactly like the generated shell the paper
describes:

* ``proxy.php`` — the mobile entry point (snapshot + image-map menu),
* ``proxy.php?page=<id>`` — a generated subpage (``&fragment=1`` returns
  the raw fragment for asynchronous loads),
* ``proxy.php?file=<name>`` — the session's page's own files (snapshot
  image, pre-rendered subpage images),
* ``proxy.php?img=<url>&q=<quality>`` — the shared low-fidelity image
  cache behind the rewrite-images filter,
* ``proxy.php?action=<n>&p=<x>`` — rewritten AJAX calls (§4.4),
* ``proxy.php?logout=1`` — clears the user's proxy-held cookies,
* ``proxy.php?auth=1`` — the lightweight HTTP-authentication page.
"""

from __future__ import annotations

import threading
import weakref

from dataclasses import dataclass
from typing import Optional

from repro.core.ajax import AjaxActionTable
from repro.core.delta import delta_counter
from repro.core.detect import device_class
from repro.core.fastpath import etag_matches, fastpath_counter
from repro.net.conditional import not_modified
from repro.core.pipeline import (
    AdaptationPipeline,
    AuthenticationRequired,
    ProxyServices,
)
from repro.core.plan import TransformPlan
from repro.core.sessions import SESSION_COOKIE, MobileSession, SessionManager
from repro.core.spec import AdaptationSpec
from repro.core.subpages import AdaptedPage
from repro.dom import diff
from repro.errors import (
    AdaptationError,
    CircuitOpenError,
    DegradedServeError,
    FetchError,
    RenderFarmError,
    RetryExhaustedError,
)
from repro.html.parser import parse_html
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.net.url import unquote
from repro.observability import tracing
from repro.observability.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.observability.metrics import CounterView
from repro.resilience.policy import DEFAULT_RETRY_AFTER_S, PASSTHROUGH, STALE

#: Media type of a session patch manifest (a serialized
#: :class:`repro.dom.diff.ChangeSet` the client applies to the entry
#: body it already holds).
SESSION_DELTA_CONTENT_TYPE = "application/x-msite-delta+json"


@dataclass(frozen=True)
class CounterSnapshot:
    """A consistent point-in-time copy of :class:`ProxyCounters`."""

    requests: int = 0
    entry_pages: int = 0
    subpages: int = 0
    ajax_actions: int = 0
    browser_renders: int = 0
    lightweight_requests: int = 0
    errors: int = 0
    browser_core_seconds: float = 0.0
    lightweight_core_seconds: float = 0.0


class ProxyCounters(CounterView):
    """Load accounting for the scalability analysis.

    A :class:`~repro.observability.metrics.CounterView` table (each
    counter individually atomic), so the same numbers surface on the
    ``/metrics`` endpoint; the bench layer reads a copy through
    :meth:`snapshot`.  In a multi-page deployment each page proxy labels
    its series with ``page="<namespace>"`` so they coexist in one
    registry.
    """

    FIELDS = {
        "requests": ("msite_proxy_requests_total",
                     "Requests handled by the generated proxy."),
        "entry_pages": ("msite_proxy_entry_pages_total",
                        "Adapted entry pages served."),
        "subpages": ("msite_proxy_subpages_total",
                     "Generated subpages served."),
        "ajax_actions": ("msite_proxy_ajax_actions_total",
                         "Rewritten AJAX actions proxied."),
        "browser_renders": ("msite_proxy_browser_renders_total",
                            "Requests that paid a full browser render."),
        "lightweight_requests": (
            "msite_proxy_lightweight_requests_total",
            "Requests served on the lightweight path."),
        "errors": ("msite_proxy_errors_total",
                   "Requests that failed (fetch or adaptation)."),
        "browser_core_seconds": ("msite_proxy_browser_core_seconds",
                                 "Core seconds spent in browser renders."),
        "lightweight_core_seconds": (
            "msite_proxy_lightweight_core_seconds",
            "Core seconds spent on the lightweight path."),
    }

    def snapshot(self) -> CounterSnapshot:
        return CounterSnapshot(**self.values())


class MSiteProxy(Application):
    """The generated proxy for one adapted page.

    Safe to drive from many threads at once (see
    ``docs/CONCURRENCY.md``): sessions are guarded by per-session locks,
    shared tables by one proxy-wide lock, counters are atomic, and the
    expensive snapshot render collapses concurrent cold misses into a
    single flight through the shared pre-render cache.  Wrap it in
    :class:`repro.runtime.ConcurrentProxy` for a bounded thread pool
    with admission control.
    """

    def __init__(
        self,
        spec: AdaptationSpec,
        services: ProxyServices,
        proxy_base: str = "proxy.php",
        namespace: str = "",
    ) -> None:
        spec.validate()
        self.spec = spec
        self.services = services
        self.proxy_base = proxy_base
        self.namespace = namespace.strip("/")
        self.sessions = SessionManager(clock=services.clock)
        # Compiled once per deployment and shared by every request's
        # pipeline: registry lookups, phase grouping, and CSS selector
        # parsing all happen here instead of per request.
        self.plan = TransformPlan.compile(
            spec,
            proxy_base=proxy_base,
            namespace=self.namespace,
            registry=services.observability.registry,
        )
        self.ajax_table = AjaxActionTable()
        self.counters = ProxyCounters(
            registry=services.observability.registry,
            labels={"page": self.namespace} if self.namespace else None,
        )
        # Each session's memoized adapted page, which holds the files
        # the session is served, kept only as long as the session
        # itself: when the session manager destroys a session (on
        # expiry or an idle sweep), its entry goes with it.
        self._adapted: weakref.WeakKeyDictionary[
            MobileSession, AdaptedPage
        ] = weakref.WeakKeyDictionary()
        # Guards _adapted and the shared ajax table; per-session work is
        # serialized by each session's own lock (always acquired first).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------

    @staticmethod
    def _request_kind(params) -> str:
        for key in ("logout", "auth", "action", "img", "file", "page"):
            if params.get(key):
                return key
        return "entry"

    def handle(self, request: Request) -> Response:
        path = request.url.path
        if path == "/metrics":
            return self.metrics_response()
        if path == "/traces":
            return self.traces_response()
        observability = self.services.observability
        trace = observability.start_trace(self._request_kind(request.params))
        with tracing.activate(trace):
            try:
                return self._handle_traced(request, trace)
            finally:
                observability.finish_trace(trace)
                observability.registry.histogram(
                    "msite_request_duration_seconds",
                    "End-to-end proxy request time, by request kind.",
                    labels={"kind": trace.name},
                ).observe(trace.duration_s or 0.0)

    def metrics_response(self) -> Response:
        """Prometheus exposition of the deployment's registry."""
        return Response.binary(
            render_prometheus(self.services.observability.registry).encode(
                "utf-8"
            ),
            PROMETHEUS_CONTENT_TYPE,
        )

    def traces_response(self) -> Response:
        """JSON dump of recent and slow request traces."""
        return Response.binary(
            self.services.observability.traces.dump_json().encode("utf-8"),
            "application/json; charset=utf-8",
        )

    def _handle_traced(self, request: Request, trace) -> Response:
        self.counters.add(requests=1)
        params = request.params
        with tracing.span("session"):
            session, is_new = self.sessions.checkout(
                request.cookies.get(SESSION_COOKIE)
            )
        try:
            if params.get("logout"):
                return self._finish(self._handle_logout(session), session, is_new)
            if params.get("auth"):
                return self._finish(
                    self._handle_auth(session, request), session, is_new
                )
            if params.get("action"):
                return self._finish(
                    self._handle_action(session, request), session, is_new
                )
            if params.get("img"):
                return self._finish(
                    self._handle_image_cache(session, request), session, is_new
                )
            if params.get("file"):
                return self._finish(
                    self._handle_file(session, request, params["file"]),
                    session,
                    is_new,
                )
            if params.get("page"):
                return self._finish(
                    self._handle_subpage(
                        session,
                        request,
                        params["page"],
                        fragment=bool(params.get("fragment")),
                    ),
                    session,
                    is_new,
                )
            return self._finish(
                self._handle_entry(
                    session, request, force=bool(params.get("refresh"))
                ),
                session,
                is_new,
            )
        except AuthenticationRequired:
            return Response.redirect(f"{self.proxy_base}?auth=1")
        except CircuitOpenError as exc:
            # An open breaker is load shedding, not a crash: an honest
            # 503 with a Retry-After estimate of when probes resume.
            self.counters.add(errors=1)
            return self._retry_later(
                f"m.Site proxy: temporarily refusing calls ({exc})",
                exc.retry_after_s,
            )
        except DegradedServeError as exc:
            self.counters.add(errors=1)
            return self._retry_later(
                f"m.Site proxy: degraded and unable to serve ({exc})", None
            )
        except RenderFarmError as exc:
            # Backstop: farm backpressure normally degrades inside the
            # pipeline; one that escapes is still load shedding (503),
            # never an internal error.
            self.counters.add(errors=1)
            return self._retry_later(
                f"m.Site proxy: render farm refusing work ({exc})", None
            )
        except RetryExhaustedError as exc:
            # Ordered before FetchError (its base): the origin never
            # answered across every attempt — a gateway timeout, not a
            # bad gateway.
            self.counters.add(errors=1)
            return Response.text(
                f"m.Site proxy: originating page timed out ({exc})",
                status=504,
            )
        except FetchError as exc:
            self.counters.add(errors=1)
            return Response.text(
                f"m.Site proxy: originating page unavailable ({exc})",
                status=502,
            )
        except AdaptationError as exc:
            # The originating page no longer matches the spec (content
            # drift, malformed markup): fail this request, not the proxy.
            self.counters.add(errors=1)
            return Response.text(
                f"m.Site proxy: adaptation failed ({exc}); "
                f"the administrator should refresh the spec",
                status=502,
            )
        finally:
            self.sessions.release(session)

    @staticmethod
    def _retry_later(message: str, retry_after_s: Optional[float]) -> Response:
        response = Response.text(message, status=503)
        seconds = (
            DEFAULT_RETRY_AFTER_S if retry_after_s is None else retry_after_s
        )
        response.headers.set("Retry-After", str(max(1, round(seconds))))
        return response

    # ------------------------------------------------------------------
    # sessions

    def _finish(
        self, response: Response, session: MobileSession, is_new: bool
    ) -> Response:
        if is_new:
            response.set_cookie(
                SESSION_COOKIE, session.session_id, http_only=True
            )
        return response

    # ------------------------------------------------------------------
    # entry page and subpages

    @staticmethod
    def _device_class(request: Request) -> str:
        """Bucket the requesting device for fast-path cache keys."""
        return device_class(request.headers.get("User-Agent"))

    def forget_adapted(self) -> None:
        """Drop every session's memoized adapted page.

        The cluster invalidation bus calls this when ``?refresh=1`` or an
        explicit invalidation lands anywhere in the fleet, so a peer
        worker never keeps serving a superseded memo for a page another
        worker just re-adapted.  The next request per session re-resolves
        through the shared fast-path cache (cheap when nothing changed).
        Delta memos for the site drop too: an invalidation supersedes
        the cached bundle a memo would keep patching forward.
        """
        with self._lock:
            self._adapted.clear()
        if self.services.delta is not None:
            self.services.delta.forget(self.spec.site)

    def _ensure_adapted(
        self,
        session: MobileSession,
        device_class: str,
        force: bool = False,
    ) -> AdaptedPage:
        """The session's adapted page, adapting it for ``device_class``
        (the requesting device's, :meth:`_device_class`) when there is
        none.  Every handler passes it: a subpage, file or action request
        that adapts first must key the fast path as the entry would.  A
        page adapted for another device class counts as none, also as
        the fallback when the adaptation fails."""
        # The session lock makes the check-then-adapt atomic per session:
        # two concurrent requests from one device run the pipeline once.
        # Requests from *different* sessions adapt in parallel, and their
        # concurrent snapshot renders collapse in the cache's single
        # flight.
        with session.lock:
            with self._lock:
                previous = self._adapted.get(session)
            if previous is not None and previous.device_class != device_class:
                previous = None
            if previous is not None and not force and previous.degraded is None:
                return previous
            pipeline = AdaptationPipeline(
                self.spec, self.services, session,
                proxy_base=self.proxy_base, namespace=self.namespace,
                plan=self.plan,
            )
            try:
                adapted = pipeline.run(
                    force_refresh=force, device_class=device_class
                )
            except (FetchError, AdaptationError, CircuitOpenError):
                # Stale-while-revalidate at the session level: a page we
                # served before (degraded or not) beats an error page.
                # The revalidation is re-attempted on the next request.
                if previous is not None:
                    self.services.resilience.record_degraded(STALE)
                    return previous
                raise
            with self._lock:
                # Merge discovered AJAX actions into the proxy-wide table
                # so the rewritten links on every session's pages resolve.
                for action in adapted.ajax_table or []:
                    self.ajax_table.register(
                        action.name,
                        action.origin_template,
                        transform=action.transform,
                        cacheable=action.cacheable,
                        cache_ttl_s=action.cache_ttl_s,
                    )
                self._adapted[session] = adapted
            self._account(adapted)
            return adapted

    def _account(self, adapted: AdaptedPage) -> None:
        if adapted.used_browser:
            self.counters.add(
                browser_renders=1,
                browser_core_seconds=adapted.browser_core_seconds,
                lightweight_core_seconds=adapted.lightweight_core_seconds,
            )
        else:
            self.counters.add(
                lightweight_requests=1,
                browser_core_seconds=adapted.browser_core_seconds,
                lightweight_core_seconds=adapted.lightweight_core_seconds,
            )

    def _handle_entry(
        self, session: MobileSession, request: Request, force: bool = False
    ) -> Response:
        # One adaptation per response: the body, its ETag and the
        # session's patch baseline are read and written under the
        # session lock (reentrant; ``_ensure_adapted`` takes it too), so
        # a same-session refresh cannot replace the session's page
        # between them.
        with session.lock:
            adapted = self._ensure_adapted(
                session, force=force,
                device_class=self._device_class(request),
            )
            self.counters.add(entry_pages=1)
            etag = adapted.etag
            if etag is not None and not force:
                validator = request.headers.get("If-None-Match")
                if validator and etag_matches(validator, etag):
                    # The adapted result is current for these origin
                    # bytes, this device class, and this spec — nothing
                    # to resend.
                    fastpath_counter(
                        self.services.observability.registry, "not_modified"
                    ).inc()
                    return self._mark_degraded(not_modified(etag), adapted)
            body = adapted.entry_body
            if etag is not None and not force:
                patched = self._entry_delta(
                    session, request, body, etag, adapted
                )
                if patched is not None:
                    session.last_entry_body = body
                    session.last_entry_etag = etag
                    return patched
            response = Response.binary(body, "text/html; charset=utf-8")
            if etag is not None:
                response.headers.set("ETag", etag)
                if self.services.delta_enabled:
                    # Remember what this session now holds, so its next
                    # visit can be answered with a patch manifest: the
                    # served object itself, not a copy of it.
                    session.last_entry_body = body
                    session.last_entry_etag = etag
            return self._mark_degraded(response, adapted)

    def _entry_delta(
        self,
        session: MobileSession,
        request: Request,
        body: bytes,
        etag: str,
        adapted: AdaptedPage,
    ) -> Optional[Response]:
        """A session patch manifest for this entry, or ``None``.

        A returning client that kept its last entry body advertises it
        with ``X-MSite-Delta-Since: <etag>``.  When that validator is
        exactly what this session was last served, the response is the
        stable-identity change-set taking the old body to the current
        one (``application/x-msite-delta+json``) instead of the full
        page.  Falls back to the full body — counting
        ``msite_delta_session_fallback_total`` — when the client's
        baseline is unknown, the page changed structurally, or the
        manifest would not be meaningfully smaller than the page.
        Both bodies are decoded here, and only once a manifest is really
        computed; the size limit counts characters of the decoded page.
        """
        if not self.services.delta_enabled:
            return None
        since = request.headers.get("X-MSite-Delta-Since")
        if not since:
            return None
        registry = self.services.observability.registry
        if etag_matches(since, etag):
            # The client's baseline *is* the current page: the delta
            # header doubles as a validator.
            fastpath_counter(registry, "not_modified").inc()
            return self._mark_degraded(not_modified(etag), adapted)
        if (
            session.last_entry_etag is None
            or session.last_entry_body is None
            or not etag_matches(since, session.last_entry_etag)
        ):
            delta_counter(registry, "session_fallback").inc()
            return None
        try:
            page = body.decode("utf-8")
            old_doc = parse_html(session.last_entry_body.decode("utf-8"))
            new_doc = parse_html(page)
            manifest = diff.changeset(old_doc, new_doc)
        except Exception:
            delta_counter(registry, "session_fallback").inc()
            return None
        payload = manifest.to_json()
        limit = self.services.session_delta_max_fraction * len(page)
        if manifest.upheaval() or len(payload) > limit:
            delta_counter(registry, "session_fallback").inc()
            return None
        delta_counter(registry, "session_served").inc()
        response = Response.binary(
            payload.encode("utf-8"), SESSION_DELTA_CONTENT_TYPE
        )
        response.headers.set("ETag", etag)
        return self._mark_degraded(response, adapted)

    @staticmethod
    def _mark_degraded(response: Response, adapted: AdaptedPage) -> Response:
        """The 206-style partial-service marker: still a 200, but the
        client (and the chaos harness) can tell fidelity was reduced."""
        if adapted.degraded is not None:
            response.headers.set("X-MSite-Degraded", adapted.degraded)
        return response

    def _handle_subpage(
        self,
        session: MobileSession,
        request: Request,
        subpage_id: str,
        fragment: bool,
    ) -> Response:
        adapted = self._ensure_adapted(
            session, device_class=self._device_class(request)
        )
        self.counters.add(
            subpages=1,
            lightweight_requests=1,
            lightweight_core_seconds=self.services.costs.lightweight_request_s,
        )
        if fragment:
            candidates = [f"{subpage_id}.fragment.html"]
        else:
            # Subpages may have been emitted by any output engine; AJAX
            # subpages only exist as fragments.
            candidates = [
                f"{subpage_id}.html",
                f"{subpage_id}.txt",
                f"{subpage_id}.pdf",
                f"{subpage_id}.fragment.html",
            ]
        for name in candidates:
            found = adapted.file(name)
            if found is not None:
                return self._mark_degraded(
                    Response.binary(found.data, found.content_type), adapted
                )
        return Response.not_found(f"no subpage {subpage_id!r}")

    def _handle_file(
        self, session: MobileSession, request: Request, name: str
    ) -> Response:
        # Checked before adapting: a bad name costs no pipeline run.
        if "/" in name or ".." in name:
            return Response.text("bad file name", status=400)
        adapted = self._ensure_adapted(
            session, device_class=self._device_class(request)
        )
        self.counters.add(
            lightweight_requests=1,
            lightweight_core_seconds=self.services.costs.lightweight_request_s,
        )
        found = adapted.file(name)
        if found is None:
            return Response.not_found(f"no file {name!r}")
        return Response.binary(found.data, found.content_type)

    # ------------------------------------------------------------------
    # the shared low-fidelity image cache

    def _handle_image_cache(
        self, session: MobileSession, request: Request
    ) -> Response:
        source = unquote(request.params.get("img", ""))
        quality = request.params.get("q", "40")
        self.counters.add(
            lightweight_requests=1,
            lightweight_core_seconds=self.services.costs.lightweight_request_s,
        )
        key = f"lowfi:{source}:q{quality}"
        entry = self.services.cache.get(key)
        if entry is not None:
            return Response.binary(entry.data, entry.content_type)

        resilience = self.services.resilience

        def _fetch_and_reduce() -> Response:
            # Single-flight loader: a stampede of misses for one image
            # fetches the origin once; joiners share the Response.
            cached = self.services.cache.peek(key)
            if cached is not None:
                return Response.binary(cached.data, cached.content_type)
            client = self.services.make_client(session.jar)
            origin_url = (
                f"http://{self.spec.origin_host}{source}"
                if source.startswith("/")
                else f"http://{self.spec.origin_host}/{source}"
            )
            try:
                origin_response = resilience.retry.call(
                    lambda: client.get(origin_url),
                    breaker=resilience.origin_breaker(self.spec.origin_host),
                    target=f"origin:{self.spec.origin_host}",
                )
            except (FetchError, CircuitOpenError):
                # A missing decoration stays a 404, exactly as before the
                # resilience layer; the page around it still works.
                return Response.not_found("image origin unreachable")
            if not origin_response.ok:
                return Response.not_found("origin image missing")
            try:
                reduced = self._reduce_image(origin_response.body, quality)
            except AdaptationError:
                # Bottom rung of the image ladder: an unreducible payload
                # ships at original fidelity rather than not at all.
                resilience.record_degraded(PASSTHROUGH)
                passthrough = Response.binary(
                    origin_response.body,
                    origin_response.headers.get("Content-Type")
                    or "application/octet-stream",
                )
                passthrough.headers.set("X-MSite-Degraded", PASSTHROUGH)
                return passthrough
            self.services.cache.put(
                key, reduced, content_type="image/jpeg", ttl_s=3600.0
            )
            return Response.binary(reduced, "image/jpeg")

        return self.services.cache.load_or_join(key, _fetch_and_reduce)

    @staticmethod
    def _reduce_image(data: bytes, quality: str) -> bytes:
        """Fidelity model: a reduced-quality image ships a fraction of
        the original bytes (re-encoding real GIF/JPEG payloads is the
        post-processor's job; the proxy cares about cacheable size).
        Raises :class:`AdaptationError` for payloads the reducer cannot
        re-encode (e.g. corrupted mid-transfer)."""
        if data[:2] == b"\x00\xff":
            raise AdaptationError("image payload corrupt; cannot re-encode")
        try:
            fraction = max(5, min(100, int(quality))) / 100.0
        except ValueError:
            fraction = 0.4
        return data[: max(64, int(len(data) * fraction))]

    # ------------------------------------------------------------------
    # AJAX actions (§4.4)

    def _handle_action(
        self, session: MobileSession, request: Request
    ) -> Response:
        self.counters.add(
            ajax_actions=1,
            lightweight_requests=1,
            lightweight_core_seconds=self.services.costs.lightweight_request_s,
        )
        self._ensure_adapted(
            session, device_class=self._device_class(request)
        )
        try:
            action_id = int(request.params.get("action", ""))
        except ValueError:
            return Response.text("bad action id", status=400)
        action = self.ajax_table.get(action_id)
        if action is None:
            return Response.not_found(f"no action {action_id}")
        parameter = request.params.get("p", "")
        cache_key = f"action:{action.action_id}:{parameter}"
        if action.cacheable:
            entry = self.services.cache.get(cache_key)
            if entry is not None:
                return Response.binary(entry.data, entry.content_type)

        resilience = self.services.resilience
        target = f"http://{self.spec.origin_host}" + action.origin_target(
            parameter
        )

        def _attempt() -> Response:
            client = self.services.make_client(session.jar)
            origin_response = client.get(target)
            if not origin_response.ok:
                raise FetchError(
                    f"origin ajax call failed ({origin_response.status})"
                )
            return origin_response

        def _call_origin() -> Response:
            if action.cacheable:
                cached = self.services.cache.peek(cache_key)
                if cached is not None:
                    return Response.binary(cached.data, cached.content_type)
            try:
                origin_response = resilience.retry.call(
                    _attempt,
                    breaker=resilience.origin_breaker(self.spec.origin_host),
                    target=f"origin:{self.spec.origin_host}",
                )
            except (FetchError, CircuitOpenError):
                if action.cacheable:
                    stale = self.services.cache.load_stale(cache_key)
                    if stale is not None:
                        resilience.record_degraded(STALE)
                        response = Response.binary(
                            stale.data, stale.content_type
                        )
                        response.headers.set("X-MSite-Degraded", STALE)
                        return response
                raise
            body = origin_response.text_body
            if action.transform is not None:
                body = action.transform(body)
            if action.cacheable:
                self.services.cache.put(
                    cache_key,
                    body,
                    content_type="text/html; charset=utf-8",
                    ttl_s=action.cache_ttl_s,
                )
            return Response.html(body)

        if not action.cacheable:
            # Non-cacheable actions may carry session state — never share
            # one origin call across users.
            return _call_origin()
        return self.services.cache.load_or_join(cache_key, _call_origin)

    # ------------------------------------------------------------------
    # session administration

    def _handle_logout(self, session: MobileSession) -> Response:
        with session.lock:
            cleared = len(session.jar)
            session.jar.clear()
            session.http_credentials.clear()
            with self._lock:
                self._adapted.pop(session, None)
        return Response.html(
            f"<html><body>Logged out ({cleared} cookies cleared). "
            f'<a href="{self.proxy_base}">Return</a>.</body></html>'
        )

    def _handle_auth(
        self, session: MobileSession, request: Request
    ) -> Response:
        """The lightweight authentication page (§3.3).

        Covers both interposition modes: HTTP Basic credentials stored
        per session, and origin *form* login performed by the proxy on
        the user's behalf (the resulting cookies live in the session's
        jar, exactly like the paper's vBulletin deployment).
        """
        if request.method == "POST":
            form = request.form
            username = form.get("username", "")
            password = form.get("password", "")
            login_binding = next(
                iter(self.spec.bindings_for("form_login")), None
            )
            with session.lock:
                if login_binding is not None:
                    self._perform_form_login(
                        session, login_binding, username, password
                    )
                else:
                    session.http_credentials[self.spec.origin_host] = (
                        username,
                        password,
                    )
                with self._lock:
                    self._adapted.pop(session, None)
            return Response.redirect(self.proxy_base)
        return Response.html(
            f"""<html><head><title>Authentication required</title></head>
<body><form method="post" action="{self.proxy_base}?auth=1">
<p>The site requires authentication:</p>
<p>Username <input type="text" name="username" /></p>
<p>Password <input type="password" name="password" /></p>
<p><input type="submit" value="Authenticate" /></p>
</form></body></html>"""
        )

    def _perform_form_login(
        self,
        session: MobileSession,
        binding,
        username: str,
        password: str,
    ) -> bool:
        """Post the origin's login form with the user's credentials; the
        origin's session cookies land in this user's jar."""
        client = self.services.make_client(session.jar)
        fields = {
            binding.param("username_field", "username"): username,
            binding.param("password_field", "password"): password,
        }
        fields.update(binding.param("extra_fields", {}) or {})
        action = binding.param("action")
        target = (
            action
            if action.startswith("http")
            else f"http://{self.spec.origin_host}{action}"
        )
        try:
            response = client.post(target, fields)
        except FetchError:
            return False
        marker = binding.param("success_marker", "")
        if marker and marker not in response.text_body:
            return False
        return response.ok
