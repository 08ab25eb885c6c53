"""Two-plus regions, each a full :class:`ClusterDeployment
<repro.cluster.deployment.ClusterDeployment>`, behind one front end.

Each region owns its own worker fleet and its own two-tier cache (an
:class:`InProcessSharedCache
<repro.cluster.sharedcache.InProcessSharedCache>` whose memory tier sits
over a private snapshot directory).  The front end routes by
**region affinity** — the same rendezvous hashing the cluster uses for
workers, so a ``site:path:device`` key keeps one home region — and
fails over to the next region in preference order whenever the owner's
health probe fails.  Because snapshot persists are replicated into
connected peers' stores, the failover is *warm*: the "wrong" region
serves the already-rendered snapshot from its own disk tier instead of
re-rendering, and the response is marked with the ``remote_region``
degradation rung (fully-adapted content, just not from the owner).

Invalidation is event-sourced: every region's bus pumps its original
(non-replayed) events into one :class:`SequencedLog
<repro.ops.events.SequencedLog>` named ``"cdclog"``, and every
connected region replays the log from its last acked offset.  A
partitioned region buffers its local changes, serves what it has, and
on heal (a) publishes its buffered changes into the log and (b)
replays everything it missed — after which it serves zero stale
content.  A region whose offset has aged out of the log full-resyncs
(drop derived state, recopy a healthy peer's store) instead of
replaying a gap it cannot see.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from typing import Any, Callable, Iterable, Optional

from repro.cluster.deployment import ClusterDeployment
from repro.cluster.rollup import fleet_rollup
from repro.cluster.router import ShardRouter, request_shard_key
from repro.cluster.sharedcache import (
    CLEAR,
    REFRESH,
    InProcessSharedCache,
    InvalidationEvent,
)
from repro.core.cache import CacheEntry
from repro.core.pipeline import ProxyServices
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec
from repro.core.storage import VirtualFileSystem
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
    REGION_FAILOVER,
    REGION_HEALED,
    REGION_KILLED,
    REGION_PARTITIONED,
    REGION_RESYNC,
    REGION_REVIVED,
    Event,
    SequencedLog,
    ops_events_response,
)
from repro.resilience.policy import DEFAULT_RETRY_AFTER_S, REMOTE_REGION


class Region:
    """One region: a cluster fleet plus its disk-backed cache."""

    def __init__(
        self,
        name: str,
        cluster: ClusterDeployment,
        backend: InProcessSharedCache,
    ) -> None:
        self.name = name
        self.cluster = cluster
        self.backend = backend
        #: Process state: a killed region serves nothing.
        self.alive = True
        #: Network state: a partitioned region serves (possibly stale)
        #: local content but neither hears nor contributes CDC events.
        self.connected = True
        #: Last invalidation-log sequence this region has applied.
        self.acked_seq = 0
        #: Original events generated while partitioned, published into
        #: the log on heal.
        self.pending: list[tuple[str, Optional[str]]] = []

    @property
    def healthy(self) -> bool:
        """The health probe: alive with at least one healthy worker."""
        return self.alive and any(
            worker.healthy for worker in self.cluster.workers
        )

    def __repr__(self) -> str:
        state = (
            "down" if not self.alive
            else "partitioned" if not self.connected
            else "up"
        )
        return f"Region({self.name!r}, {state}, acked={self.acked_seq})"


class RegionalDeployment(Application):
    """Region-affinity routing + warm failover over N region fleets."""

    def __init__(
        self,
        regions: Iterable[str] = ("east", "west"),
        snapshot_root: Optional[str] = None,
        spec: Optional[AdaptationSpec] = None,
        origins: Optional[dict[str, Any]] = None,
        make_app: Optional[Callable[[ProxyServices], Application]] = None,
        workers_per_region: int = 2,
        worker_threads: int = 4,
        queue_limit: int = 64,
        clock: Any = None,
        site: Optional[str] = None,
        proxy_base: str = "proxy.php",
        key_fn: Optional[Callable[[Request], str]] = None,
        cache_bytes: int = 64 * 1024 * 1024,
        log_retention: int = 4096,
        preload: bool = True,
    ) -> None:
        region_names = list(regions)
        if len(region_names) < 2:
            raise ValueError("a regional deployment needs two+ regions")
        if len(set(region_names)) != len(region_names):
            raise ValueError("region names must be unique")
        self.site = site or (spec.site if spec is not None else "regional")
        self.clock = clock
        obs_clock = (lambda: clock.now) if clock is not None else None
        self.registry = MetricsRegistry()
        self.observability = Observability(
            registry=self.registry, clock=obs_clock
        )
        self.log = SequencedLog(
            name="cdclog",
            retention=log_retention,
            clock=clock,
            metrics=self.registry,
        )
        # One ops event log across every region's fleet: worker and
        # breaker events from all regions interleave in one sequence
        # space (worker ids are region-prefixed, so they stay
        # attributable), and region lifecycle events land beside them.
        self.ops = SequencedLog(
            name="ops", clock=clock, metrics=self.registry
        )
        if snapshot_root is None:
            snapshot_root = tempfile.mkdtemp(prefix="msite-regions-")
        self.snapshot_root = snapshot_root
        # One session universe and file store across regions: a user who
        # fails over mid-session keeps their cookies and artifacts.
        self.storage = VirtualFileSystem()
        self.sessions = SessionManager(self.storage, clock=clock)
        self.router = ShardRouter()
        self._key_fn = key_fn or (
            lambda request: request_shard_key(self.site, request)
        )
        # Serializes CDC replay so every region applies events in log
        # order.  Bus publishes never run under a cache/store lock (see
        # core/cache.py), so taking peer store locks inside is
        # deadlock-free.
        self._drain_lock = threading.Lock()
        self._regions: dict[str, Region] = {}
        for name in region_names:
            backend = InProcessSharedCache(
                clock=clock,
                max_bytes=cache_bytes,
                root=os.path.join(snapshot_root, name),
                name=name,
                preload=preload,
            )
            cluster = ClusterDeployment(
                spec=spec,
                origins=origins,
                workers=workers_per_region,
                worker_threads=worker_threads,
                queue_limit=queue_limit,
                clock=clock,
                proxy_base=proxy_base,
                site=self.site,
                shared_cache=backend,
                make_app=make_app,
                key_fn=key_fn,
                storage=self.storage,
                sessions=self.sessions,
                worker_prefix=f"{name}-",
                ops=self.ops,
            )
            region = Region(name, cluster, backend)
            self._regions[name] = region
            self.router.add_worker(name)
            backend.bus.subscribe(self._make_pump(region))
            backend.on_persist = self._make_replicator(region)

    # -- introspection ---------------------------------------------------

    @property
    def regions(self) -> list[Region]:
        return [self._regions[name] for name in sorted(self._regions)]

    @property
    def region_names(self) -> list[str]:
        return sorted(self._regions)

    def region(self, name: str) -> Region:
        return self._regions[name]

    def owner_of(self, request: Request) -> str:
        """The home region for one request's routing key."""
        return self.router.route(self._key_fn(request))

    def rollup(self) -> MetricsRegistry:
        """Fresh deployment-wide registry, identity-deduplicated across
        the front end, every region's cache, and every worker."""
        registries = [self.registry]
        for region in self.regions:
            registries.append(region.backend.metrics)
            registries.append(region.cluster.registry)
            registries.extend(
                worker.registry for worker in region.cluster.workers
            )
        return fleet_rollup(registries)

    def region_rollup(self, name: str) -> MetricsRegistry:
        region = self._regions[name]
        return fleet_rollup(
            [region.backend.metrics, region.cluster.registry]
            + [worker.registry for worker in region.cluster.workers]
        )

    def _counter(self, name: str, help_text: str, **labels: str):
        return self.registry.counter(name, help_text, labels=labels or None)

    # -- CDC: pump, replication, replay ----------------------------------

    def _make_pump(self, region: Region):
        """Subscribe a region's bus into the invalidation log.

        Only *original* events are pumped; replayed ones are the log
        talking back and must not re-append (that loop would never
        converge).  A partitioned region buffers locally and publishes
        on heal.
        """

        def pump(event: InvalidationEvent) -> None:
            if event.replayed:
                return
            if not region.connected:
                region.pending.append((event.kind, event.key))
                return
            self.log.emit(event.kind, key=event.key, origin=region.name)
            self._drain()

        return pump

    def _make_replicator(self, region: Region):
        """Copy every persisted snapshot into connected peers' stores,
        making their failover warm."""

        def replicate(entry: CacheEntry) -> None:
            if not region.connected:
                return
            for peer in self._regions.values():
                if peer is region or not peer.alive or not peer.connected:
                    continue
                peer.backend.store.put(entry)
                self._counter(
                    "msite_region_replications_total",
                    "Snapshot entries replicated into a peer region's "
                    "store.",
                    region=peer.name,
                ).inc()

        return replicate

    def _drain(self) -> None:
        """Bring every connected region up to the log head."""
        with self._drain_lock:
            for region in self._regions.values():
                if region.alive and region.connected:
                    self._catch_up(region)

    def _catch_up(self, region: Region) -> None:
        """Caller holds ``_drain_lock``."""
        events, truncated = self.log.events_after(region.acked_seq)
        if truncated:
            self._full_resync(region)
            region.acked_seq = self.log.head_seq
            return
        for event in events:
            if event.payload["origin"] != region.name:
                self._apply(region, event)
            region.acked_seq = event.sequence

    def _apply(self, region: Region, event: Event) -> None:
        """Apply one replayed change to every tier of a region's cache.

        The purge itself is silent (``invalidate_matching`` publishes
        nothing), then one *replayed-marked* event is announced on the
        region's bus so worker session memos drop too — without the
        pump re-appending it.
        """
        cache = region.backend.cache
        kind, key = event.type, event.payload["key"]
        if kind == CLEAR or key is None:
            cache.invalidate_matching(lambda k: True)
        elif kind == REFRESH:
            # REFRESH carries a routing key (``site:path|resource:dev``),
            # not a cache key; remote regions cannot point-invalidate.
            # Purge the whole site's derived keys — every fastpath/
            # snapshot key embeds ``:{site}:`` or starts with the site.
            site = key.split(":", 1)[0]
            cache.invalidate_matching(
                lambda k: f":{site}:" in k or k.startswith(f"{site}:")
            )
        else:  # invalidate / expire: point events carrying cache keys
            cache.invalidate_matching(lambda k: k == key)
        region.backend.bus.publish(
            InvalidationEvent(kind, key, replayed=True)
        )
        self._counter(
            "msite_region_applied_total",
            "Replayed invalidation-log events applied per region.",
            region=region.name,
            kind=kind,
        ).inc()

    def _full_resync(self, region: Region) -> None:
        """The offset aged out of the log: drop everything derived and
        recopy a healthy connected peer's snapshot store."""
        cache = region.backend.cache
        cache.invalidate_matching(lambda k: True)
        region.backend.bus.publish(InvalidationEvent(CLEAR, replayed=True))
        for peer in self._regions.values():
            if peer is region or not peer.alive or not peer.connected:
                continue
            for entry in peer.backend.store.entries():
                region.backend.store.put(entry)
            break
        self._counter(
            "msite_region_resyncs_total",
            "Full resyncs forced by invalidation-log truncation.",
            region=region.name,
        ).inc()
        self.ops.emit(
            REGION_RESYNC,
            region=region.name,
            log_head=self.log.head_seq,
        )

    # -- region lifecycle (fault injection surface) ----------------------

    def kill(self, name: str) -> None:
        """A region dies mid-run: workers down, link down."""
        region = self._regions[name]
        region.alive = False
        region.connected = False
        for worker in region.cluster.workers:
            worker.mark_down()
        self._counter(
            "msite_region_kills_total",
            "Regions killed by fault injection.",
            region=name,
        ).inc()
        self.ops.emit(REGION_KILLED, region=name)

    def revive(self, name: str, heal: bool = True) -> None:
        """Bring a killed region back; by default heal immediately so it
        replays the log before taking traffic."""
        region = self._regions[name]
        region.alive = True
        for worker in region.cluster.workers:
            worker.mark_up()
        self.ops.emit(REGION_REVIVED, region=name)
        if heal:
            self.heal(name)

    def partition(self, name: str) -> None:
        """Cut a region's link: it keeps serving local (possibly stale)
        content and buffers its own changes."""
        self._regions[name].connected = False
        self._counter(
            "msite_region_partitions_total",
            "Region network partitions injected.",
            region=name,
        ).inc()
        self.ops.emit(REGION_PARTITIONED, region=name)

    def heal(self, name: str) -> None:
        """Reconnect: publish changes buffered while away, then replay
        everything missed from the last acked offset."""
        region = self._regions[name]
        region.connected = True
        pending, region.pending = region.pending, []
        for kind, key in pending:
            self.log.emit(kind, key=key, origin=region.name)
        self._counter(
            "msite_region_heals_total",
            "Region partition heals (buffered events published, log "
            "replayed).",
            region=name,
        ).inc()
        self._drain()
        # Emitted after the drain: acked_seq here is the post-replay
        # offset, so the event itself proves replay-to-live — the
        # chaos suites assert acked_seq == log_head off this payload.
        self.ops.emit(
            REGION_HEALED,
            region=name,
            published=len(pending),
            acked_seq=region.acked_seq,
            log_head=self.log.head_seq,
        )

    # -- dispatch --------------------------------------------------------

    def handle(self, request: Request) -> Response:
        path = request.url.path.strip("/")
        if path == "regions":
            return self._regions_response()
        if path == "metrics":
            return Response.binary(
                render_prometheus(self.rollup()).encode("utf-8"),
                PROMETHEUS_CONTENT_TYPE,
            )
        if path.startswith("metrics/"):
            name = path.removeprefix("metrics/")
            if name not in self._regions:
                return Response.not_found(f"no region {name!r}")
            return Response.binary(
                render_prometheus(self.region_rollup(name)).encode("utf-8"),
                PROMETHEUS_CONTENT_TYPE,
            )
        if path == "traces":
            return Response.binary(
                self.observability.traces.dump_json().encode("utf-8"),
                "application/json; charset=utf-8",
            )
        if path in ("ops/events", "ops/events.ndjson"):
            return ops_events_response(self.ops, request)
        return self._route(request)

    def _route(self, request: Request) -> Response:
        trace = self.observability.start_trace("region-route")
        started = time.perf_counter()
        try:
            with activate(trace):
                with span("region-route"):
                    key = self._key_fn(request)
                    preference = self.router.preference(key)
                response = self._dispatch(request, preference)
        finally:
            self.observability.finish_trace(trace)
        self._counter(
            "msite_region_frontend_requests_total",
            "Requests routed through the regional front end.",
        ).inc()
        self.registry.histogram(
            "msite_region_request_seconds",
            "Front-end latency of regionally-routed requests.",
        ).observe(time.perf_counter() - started)
        return response

    def _dispatch(
        self, request: Request, preference: list[str]
    ) -> Response:
        owner = preference[0]
        for position, name in enumerate(preference):
            region = self._regions[name]
            if not region.healthy:
                # The health probe failed: fail over down the
                # preference order.
                self._counter(
                    "msite_region_reroutes_total",
                    "Requests skipped past an unhealthy region.",
                    region=name,
                ).inc()
                continue
            with span("region") as record:
                response = region.cluster.handle(request)
                if record is not None and response.status >= 500:
                    record.status = "error"
                    record.error = f"{name}: {response.status}"
            self._counter(
                "msite_region_requests_total",
                "Requests served per region.",
                region=name,
            ).inc()
            response.headers.set("X-MSite-Region", name)
            if position > 0:
                # Warm failover: served off-owner from a replicated
                # snapshot — the remote_region rung of the ladder.
                self._counter(
                    "msite_region_failovers_total",
                    "Requests failed over from their owner region.",
                    region=owner,
                ).inc()
                response.headers.set("X-MSite-Failover-From", owner)
                if not response.headers.get("X-MSite-Degraded"):
                    response.headers.set("X-MSite-Degraded", REMOTE_REGION)
                self.ops.emit(
                    REGION_FAILOVER, region=name, owner=owner
                )
            return response
        self._counter(
            "msite_region_unrouteable_total",
            "Requests refused because every region was down.",
        ).inc()
        response = Response.text(
            f"regional deployment unavailable: all "
            f"{len(self._regions)} regions down",
            status=503,
        )
        response.headers.set(
            "Retry-After", str(max(1, round(DEFAULT_RETRY_AFTER_S)))
        )
        return response

    def _regions_response(self) -> Response:
        head = self.log.head_seq
        status = {
            "site": self.site,
            "log": self.log.status(),
            "regions": {
                region.name: {
                    "alive": region.alive,
                    "connected": region.connected,
                    "healthy": region.healthy,
                    "acked_seq": region.acked_seq,
                    "behind": head - region.acked_seq,
                    "pending_events": len(region.pending),
                    "cache_entries": len(region.backend.cache),
                    "tiers": [
                        tier.tier_name for tier in region.backend.cache.tiers
                    ],
                    "preloaded": region.backend.preloaded,
                    "store": region.backend.store.status(),
                    "workers": {
                        worker.worker_id: worker.healthy
                        for worker in region.cluster.workers
                    },
                }
                for region in self.regions
            },
        }
        return Response.binary(
            json.dumps(status, indent=2, sort_keys=True).encode("utf-8"),
            "application/json; charset=utf-8",
        )

    # -- lifecycle -------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Shut down every region, flushing dirty snapshots to disk so
        the next deployment over the same root warm-starts."""
        for region in self.regions:
            region.cluster.close(wait=wait)
            region.backend.close()

    def __enter__(self) -> "RegionalDeployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
