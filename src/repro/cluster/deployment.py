"""A sharded fleet of proxy workers behind one front end.

:class:`ClusterDeployment` is the horizontal version of a single
:class:`ConcurrentProxy <repro.runtime.executor.ConcurrentProxy>`: N
workers, each a full proxy (own thread pool, own metrics registry, own
breakers), sharing the fleet-wide state that makes m.Site's economics
hold at fleet scale — one :class:`PrerenderCache
<repro.core.cache.PrerenderCache>` (render once *per fleet*, not per
worker) and one session universe.

Routing: the front end derives ``site:path:device`` from each request,
asks the :class:`ShardRouter` for the owning worker, and **spills over**
down the preference order when the owner is out: marked down, admission
queue saturated, or render breaker open.  When every worker is down the
cluster answers an honest 503 with ``Retry-After`` — the top rung of
the resilience ladder, not a hang.

Observability: ``/metrics`` is the fleet rollup (identity-deduplicated,
see :mod:`repro.cluster.rollup`), ``/metrics/<worker>`` a single
worker's registry, and every routed request records a ``route`` trace
with a ``shard`` span naming the worker that served it.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Optional

from repro.cluster.rollup import fleet_rollup
from repro.cluster.router import ShardRouter, request_shard_key
from repro.cluster.sharedcache import (
    REFRESH,
    InProcessSharedCache,
    InvalidationEvent,
)
from repro.cluster.worker import ClusterWorker
from repro.core.pipeline import ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec
from repro.errors import AdmissionError
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.observability import Observability
from repro.observability.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import activate, span
from repro.ops import (
    INVALIDATION,
    WORKER_ATTACHED,
    WORKER_DETACHED,
    WORKER_DRAINING,
    SequencedLog,
    ops_events_response,
)
from repro.resilience.policy import DEFAULT_RETRY_AFTER_S


class ClusterDeployment(Application):
    """N sharded proxy workers over one shared cache and session universe."""

    def __init__(
        self,
        spec: Optional[AdaptationSpec] = None,
        origins: Optional[dict[str, Any]] = None,
        workers: int = 4,
        worker_threads: int = 4,
        queue_limit: int = 64,
        request_timeout_s: Optional[float] = None,
        spill_depth: Optional[int] = None,
        clock: Any = None,
        proxy_base: str = "proxy.php",
        site: Optional[str] = None,
        shared_cache: Optional[InProcessSharedCache] = None,
        make_app: Optional[Callable[[ProxyServices], Application]] = None,
        key_fn: Optional[Callable[[Request], str]] = None,
        farm_consumers: int = 0,
        farm_queue_limit: int = 64,
        farm_wait_s: Optional[float] = None,
        sessions: Optional[SessionManager] = None,
        worker_prefix: str = "",
        ops: Optional[SequencedLog] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("a cluster needs at least one worker")
        if spec is None and make_app is None:
            raise ValueError("need an AdaptationSpec or a make_app factory")
        self.site = site or (spec.site if spec is not None else "cluster")
        self.clock = clock
        obs_clock = (lambda: clock.now) if clock is not None else None
        # Fleet-level registry/tracer: route/shard spans and cluster
        # counters live here; worker registries are rolled in per scrape.
        self.registry = MetricsRegistry()
        self.observability = Observability(
            registry=self.registry, clock=obs_clock
        )
        self.shared_cache = shared_cache or InProcessSharedCache(
            clock=clock, metrics=self.registry
        )
        # The fleet-wide ops event log: every scale decision, worker
        # attach/drain/detach, breaker transition, degradation, and
        # invalidation appends one sequenced event here.  A multi-region
        # deployment passes one shared log in so the whole fleet's
        # history interleaves in a single sequence space.
        self.ops = ops if ops is not None else SequencedLog(
            name="ops", clock=clock, metrics=self.registry
        )
        self.shared_cache.bus.subscribe(self._emit_invalidation)
        # One session universe: a user keeps their cookie jar no matter
        # which worker a given request spills to.  A multi-region
        # deployment passes it in so a failover to another region keeps
        # it too.
        self.sessions = (
            sessions if sessions is not None else SessionManager(clock=clock)
        )
        # Optional fleet-shared render farm: one queue of priority
        # lanes drained by dedicated consumers, so render work never
        # ties up the workers' admission threads.  Its
        # msite_renderfarm_* instruments live on the fleet registry and
        # surface through /metrics and /cluster.
        self.renderfarm = None
        if farm_consumers > 0:
            from repro.renderfarm import RenderFarm

            self.renderfarm = RenderFarm(
                consumers=farm_consumers,
                queue_limit=farm_queue_limit,
                default_wait_s=farm_wait_s,
                metrics=self.registry,
                clock=clock,
                name=self.site,
                ops=self.ops,
            )
        self.router = ShardRouter()
        self._key_fn = key_fn or (
            lambda request: request_shard_key(self.site, request)
        )
        # Everything _make_worker needs, kept so the fleet can grow
        # after construction (the autoscaler's add_worker).
        self._spec = spec
        self._origins = dict(origins or {})
        self._make_app = make_app
        self._proxy_base = proxy_base
        self._obs_clock = obs_clock
        self._worker_threads = worker_threads
        self._queue_limit = queue_limit
        self._request_timeout_s = request_timeout_s
        self._spill_depth = spill_depth
        self._worker_prefix = worker_prefix
        self._worker_seq = 0
        # Guards fleet membership (_workers + router) against the
        # autoscaler attaching/draining concurrently with dispatch.
        self._membership = threading.Lock()
        self._workers: dict[str, ClusterWorker] = {}
        # A multi-region deployment prefixes worker ids with the region
        # name so worker-labeled metrics stay distinct in a fleet rollup.
        for _ in range(workers):
            self.add_worker()

    # -- elastic membership ------------------------------------------------

    def _make_worker(self, worker_id: str) -> ClusterWorker:
        registry = MetricsRegistry()
        services = ProxyServices(
            origins=dict(self._origins),
            cache=self.shared_cache.attach(worker_id),
            clock=self.clock,
            observability=Observability(
                registry=registry, clock=self._obs_clock
            ),
            renderfarm=self.renderfarm,
        )
        # Breaker transitions and degradation rungs from this worker
        # land in the fleet ops log, labeled with the worker id.
        services.resilience.bind_ops(self.ops, worker=worker_id)
        if self._make_app is not None:
            app = self._make_app(services)
        else:
            app = MSiteProxy(
                self._spec, services, proxy_base=self._proxy_base
            )
        # Share the session universe (same move ProxyDeployment
        # makes for its member proxies).
        if hasattr(app, "sessions"):
            app.sessions = self.sessions
        return ClusterWorker(
            worker_id,
            app,
            services,
            registry,
            threads=self._worker_threads,
            queue_limit=self._queue_limit,
            request_timeout_s=self._request_timeout_s,
            spill_depth=self._spill_depth,
        )

    def add_worker(self) -> str:
        """Attach one new worker to the routed fleet; returns its id.

        Rendezvous hashing means the newcomer steals only the keys it
        now wins — every other worker's assignment is untouched.
        """
        with self._membership:
            worker_id = f"{self._worker_prefix}w{self._worker_seq}"
            self._worker_seq += 1
        worker = self._make_worker(worker_id)
        with self._membership:
            self._workers[worker_id] = worker
            self.router.add_worker(worker_id)
        self.shared_cache.bus.subscribe(worker.on_invalidation)
        self.ops.emit(
            WORKER_ATTACHED,
            worker=worker_id,
            fleet_size=len(self.router),
        )
        return worker_id

    def drain_worker(self, worker_id: str, wait: bool = True) -> None:
        """Gracefully remove one worker: stop admission, finish
        in-flight work, spill its shards via the router remap, detach.

        The ``worker_draining`` event is emitted *after* admission is
        off, so no request is accepted after the drain event — the
        invariant the autoscale property suite pins.
        """
        with self._membership:
            worker = self._workers.get(worker_id)
            if worker is None:
                raise KeyError(f"no worker {worker_id!r} to drain")
            if len(self._workers) <= 1:
                raise ValueError("cannot drain the last worker")
        worker.drain()  # admission off before the event, by contract
        with self._membership:
            self.router.remove_worker(worker_id)
        self.ops.emit(
            WORKER_DRAINING,
            worker=worker_id,
            fleet_size=len(self.router),
            queued=worker.executor.queue_depth,
        )
        worker.close(wait=wait)  # queued + in-flight requests finish
        self.shared_cache.bus.unsubscribe(worker.on_invalidation)
        with self._membership:
            self._workers.pop(worker_id, None)
        self.ops.emit(
            WORKER_DETACHED,
            worker=worker_id,
            fleet_size=len(self.router),
        )

    def _emit_invalidation(self, event: InvalidationEvent) -> None:
        self.ops.emit(
            INVALIDATION,
            kind=event.kind,
            key=event.key,
            replayed=event.replayed,
        )

    # -- fleet introspection ----------------------------------------------

    @property
    def workers(self) -> list[ClusterWorker]:
        with self._membership:
            return [self._workers[wid] for wid in sorted(self._workers)]

    def worker(self, worker_id: str) -> ClusterWorker:
        return self._workers[worker_id]

    @property
    def worker_ids(self) -> list[str]:
        with self._membership:
            return sorted(self._workers)

    @property
    def fleet_size(self) -> int:
        """Workers currently in the routed fleet (drained ones excluded)."""
        return len(self.router)

    def shard_key_for(self, request: Request) -> str:
        return self._key_fn(request)

    def rollup(self) -> MetricsRegistry:
        """Fresh fleet-wide registry: cluster + every worker, deduped."""
        return fleet_rollup(
            [self.registry]
            + [worker.registry for worker in self.workers]
        )

    def _counter(self, name: str, help_text: str, **labels: str):
        return self.registry.counter(
            name, help_text, labels=labels or None
        )

    # -- dispatch ----------------------------------------------------------

    def handle(self, request: Request) -> Response:
        path = request.url.path.strip("/")
        if path == "metrics":
            return Response.binary(
                render_prometheus(self.rollup()).encode("utf-8"),
                PROMETHEUS_CONTENT_TYPE,
            )
        if path.startswith("metrics/"):
            worker = self._workers.get(path.removeprefix("metrics/"))
            if worker is None:
                return Response.not_found(f"no worker {path!r}")
            return Response.binary(
                render_prometheus(worker.registry).encode("utf-8"),
                PROMETHEUS_CONTENT_TYPE,
            )
        if path == "traces":
            return Response.binary(
                self.observability.traces.dump_json().encode("utf-8"),
                "application/json; charset=utf-8",
            )
        if path in ("ops/events", "ops/events.ndjson"):
            return ops_events_response(self.ops, request)
        if path == "cluster":
            return self._status_response()
        return self._route(request)

    def _route(self, request: Request) -> Response:
        trace = self.observability.start_trace("route")
        started = self._now_s()
        try:
            with activate(trace):
                with span("route"):
                    key = self._key_fn(request)
                    preference = self.router.preference(key)
                if request.params.get("refresh"):
                    # ?refresh=1 anywhere invalidates fleet-wide: peers
                    # drop their session memos before the re-render.
                    self.shared_cache.bus.publish(
                        InvalidationEvent(REFRESH, key)
                    )
                response = self._dispatch(request, key, preference)
        finally:
            self.observability.finish_trace(trace)
        self._counter(
            "msite_cluster_requests_total",
            "Requests routed through the cluster front end.",
        ).inc()
        self.registry.histogram(
            "msite_cluster_request_seconds",
            "Front-end latency of cluster-routed requests.",
        ).observe(self._now_s() - started)
        return response

    def _dispatch(
        self, request: Request, key: str, preference: list[str]
    ) -> Response:
        any_healthy = False
        for position, worker_id in enumerate(preference):
            worker = self._workers.get(worker_id)
            if worker is None:
                continue  # detached between preference() and dispatch
            if not worker.healthy:
                self._counter(
                    "msite_cluster_reroutes_total",
                    "Requests skipped past a down worker.",
                ).inc()
                continue
            any_healthy = True
            if worker.saturated or worker.busy or worker.render_breaker_open:
                self._counter(
                    "msite_cluster_spillovers_total",
                    "Requests spilled past a saturated or breaker-open "
                    "worker.",
                    worker=worker_id,
                ).inc()
                continue
            try:
                future = worker.executor.submit(request)
            except AdmissionError:
                # Raced past the advisory check; same spill-over.
                self._counter(
                    "msite_cluster_spillovers_total",
                    "Requests spilled past a saturated or breaker-open "
                    "worker.",
                    worker=worker_id,
                ).inc()
                continue
            if position > 0:
                self._counter(
                    "msite_cluster_offshard_total",
                    "Requests served by a worker other than the shard "
                    "owner.",
                ).inc()
            return self._serve(worker, future)
        if any_healthy:
            # Every healthy worker is saturated/refusing: stop spilling
            # and let the owner-most healthy worker's admission control
            # answer honestly (503 queue full, or serve if it drained).
            for worker_id in preference:
                worker = self._workers.get(worker_id)
                if worker is None:
                    continue
                if worker.healthy:
                    self._counter(
                        "msite_cluster_forced_total",
                        "Requests forced onto a saturated worker because "
                        "no peer could admit them.",
                    ).inc()
                    return worker.executor.handle(request)
        self._counter(
            "msite_cluster_unrouteable_total",
            "Requests refused because every worker was down.",
        ).inc()
        response = Response.text(
            f"cluster unavailable: all {len(self._workers)} workers down",
            status=503,
        )
        response.headers.set(
            "Retry-After", str(max(1, round(DEFAULT_RETRY_AFTER_S)))
        )
        return response

    def _serve(self, worker: ClusterWorker, future) -> Response:
        with span("shard") as record:
            response = worker.executor.resolve(future)
            if record is not None and response.status >= 500:
                record.status = "error"
                record.error = f"{worker.worker_id}: {response.status}"
        self._counter(
            "msite_cluster_routed_total",
            "Requests served per worker.",
            worker=worker.worker_id,
        ).inc()
        response.headers.set("X-MSite-Worker", worker.worker_id)
        return response

    def _status_response(self) -> Response:
        status = {
            "site": self.site,
            "workers": {
                worker.worker_id: {
                    "healthy": worker.healthy,
                    "saturated": worker.saturated,
                    "render_breaker_open": worker.render_breaker_open,
                    "queue_depth": worker.executor.queue_depth,
                }
                for worker in self.workers
            },
            "shared_cache": self.shared_cache.status(),
        }
        if self.renderfarm is not None:
            status["renderfarm"] = self.renderfarm.status()
        return Response.binary(
            json.dumps(status, indent=2, sort_keys=True).encode("utf-8"),
            "application/json; charset=utf-8",
        )

    def _now_s(self) -> float:
        return time.perf_counter()

    # -- lifecycle ---------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        for worker in self.workers:
            worker.close(wait=wait)
        if self.renderfarm is not None:
            self.renderfarm.close(wait=wait)

    def __enter__(self) -> "ClusterDeployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
