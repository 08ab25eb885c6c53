"""The shared pre-render cache: one class over an ordered list of tiers.

"Certain areas of a site may be defined as cachable across sessions,
amortizing the initial pre-rendering cost across many users. ... a cached
snapshot of the main page of a site can be set to expire after an hour."
(§3.3)

:class:`PrerenderCache` *owns* its tiers instead of being subclassed: a
:class:`MemoryTier` (fresh + stale maps under byte budgets) always, and —
when a store is given — a durable tier below it (the cluster's
:class:`SnapshotStore <repro.cluster.snapshotstore.SnapshotStore>`), so
snapshots outlive the process that rendered them (DRIVESHAFT,
PAPERS.md).  Both sit behind the small :class:`Tier` protocol; freshness
is always read from the :class:`CacheEntry`, never from the tier that
held it.  Everything else exists exactly once, here:

* **single-flight** (:meth:`PrerenderCache.load_or_join`) — a stampede
  of cold misses on one key runs one loader; a store of the flight's
  own key by its leader after a mid-flight invalidation is served to
  the waiters but not kept;
* **stale grace** — expired entries retire to the stale map so the
  degradation ladder can still serve them (:meth:`load_stale`);
* **read-through** — ``get`` is one walk down the tier list, promoting
  what a lower tier answers into memory;
* **write-behind** — stores persist to the lower tiers from a bounded
  dirty queue on a flush thread; a full (or closed) queue degrades to
  write-through, never to a dropped write;
* **invalidation** — ``invalidate``/``clear``/``invalidate_matching``
  are one walk that deletes from every tier, then announces on the bus.

Lock order, stated once: ``_store_lock`` (lower-tier writes, deletes and
promotions — so the flusher can never resurrect what an invalidation
just removed) → ``_lock`` (memory tier + flight table).  Neither is held
while a loader runs, and bus events are published only after both are
released: subscribers (workers dropping memos, the regional CDC pump
taking *peer* store locks) may freely call back into the cache.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.observability.metrics import CounterView, MetricsRegistry

#: Event kinds the cache itself announces on its bus.
INVALIDATE = "invalidate"  # an explicit single-key invalidation
EXPIRE = "expire"  # a TTL lapsed and the entry was retired
CLEAR = "clear"  # the whole cache was dropped


class CacheEntry:
    """One stored value, held in one form: ``bytes``, or decoded.

    ``data`` is bytes, or a decoded value — anything with ``to_bytes()``
    and ``encoded_size()``; a reader that decodes an entry's bytes may
    hand the decode back with :meth:`keep_decoded`, and from then on the
    entry holds that instead.  Either way :attr:`data` reads the bytes
    (a decoded entry encodes on each read; the lower tiers get it
    encoded once per persist) and :attr:`size`, fixed at construction,
    is their length, so the byte budget does not depend on the form.
    An overwrite, eviction or invalidation drops the decode with the
    entry.  The cache never decodes anything itself.
    """

    __slots__ = (
        "key", "content_type", "stored_at", "ttl_s", "hits", "size", "_held",
    )

    def __init__(
        self,
        key: str,
        data,
        content_type: str,
        stored_at: float,
        ttl_s: float,
        hits: int = 0,
    ) -> None:
        self.key = key
        self.content_type = content_type
        self.stored_at = stored_at
        self.ttl_s = ttl_s
        self.hits = hits
        self._held = data
        self.size = (
            len(data) if isinstance(data, bytes) else data.encoded_size()
        )

    @property
    def data(self) -> bytes:
        held = self._held
        return held if isinstance(held, bytes) else held.to_bytes()

    @property
    def decoded(self) -> object:
        """The decoded value this entry holds, or ``None`` (bytes)."""
        held = self._held
        return None if isinstance(held, bytes) else held

    def keep_decoded(self, value) -> None:
        """Hold ``value``, the decode of :attr:`data`, instead of the
        bytes.  Racing readers decode equal values; one wins."""
        self._held = value

    def encoded(self) -> "CacheEntry":
        """This entry holding bytes: itself, or a one-off encoding."""
        if isinstance(self._held, bytes):
            return self
        return CacheEntry(
            self.key, self.data, self.content_type, self.stored_at,
            self.ttl_s, self.hits,
        )

    def fresh(self, now: float) -> bool:
        """Strictly-less-than freshness: an entry whose TTL has *exactly*
        elapsed is expired, and ``ttl_s <= 0`` is never fresh — even on a
        clock that has not advanced since the store."""
        if self.ttl_s <= 0:
            return False
        return now - self.stored_at < self.ttl_s


@dataclass(frozen=True)
class InvalidationEvent:
    """One fleet-wide cache invalidation announcement.

    ``replayed`` marks events re-delivered from the multi-region CDC
    log (``RegionalDeployment.log``, a :class:`SequencedLog
    <repro.ops.events.SequencedLog>` named ``"cdclog"``) during
    catch-up.  The regional pump appends only original events to
    the log and ignores replayed ones, so a heal never re-appends (and
    re-replays) its own catch-up traffic.
    """

    kind: str
    key: Optional[str] = None  # None = the whole cache (``clear``)
    replayed: bool = False


class CacheStats(CounterView):
    """Cache counters: a :class:`CounterView` table.

    The field names (``stats.hits`` etc.) are readable attributes; the
    numbers themselves live in thread-safe counters that can be
    ``bind``-ed into a deployment-wide registry so the ``/metrics``
    endpoint and the bench read the same values.

    Single-flight accounting: ``flights`` counts loader executions,
    ``stampedes_suppressed`` counts callers that joined an in-progress
    flight instead of rendering redundantly.
    """

    FIELDS = {
        "hits": ("msite_cache_hits_total",
                 "Cache lookups served from a fresh entry."),
        "misses": ("msite_cache_misses_total",
                   "Cache lookups that found nothing fresh."),
        "expirations": ("msite_cache_expirations_total",
                        "Entries dropped because their TTL elapsed."),
        "stores": ("msite_cache_stores_total",
                   "Entries written into the cache."),
        "evictions": ("msite_cache_evictions_total",
                      "Entries evicted by the byte-budget policy."),
        "flights": ("msite_cache_flights_total",
                    "Single-flight loader executions."),
        "stampedes_suppressed": (
            "msite_cache_stampedes_suppressed_total",
            "Callers that joined an in-progress flight instead of "
            "loading redundantly."),
        "stale_hits": (
            "msite_cache_stale_hits_total",
            "Stale lookups served from an expired entry kept for "
            "graceful degradation."),
        "stale_misses": (
            "msite_cache_stale_misses_total",
            "Stale lookups that found nothing servable."),
        "stale_evictions": (
            "msite_cache_stale_evictions_total",
            "Retired entries dropped from the stale store."),
        "invalidated_loads": (
            "msite_cache_invalidated_loads_total",
            "Single-flight loads whose key was invalidated mid-flight; "
            "the result was served to the waiting callers but never "
            "stored, so the invalidation is not resurrected."),
    }

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Tier(Protocol):
    """One storage level of the cache.

    A tier only stores and returns entries — it never judges freshness
    (that is read from the entry) and knows nothing of read-through or
    write-behind policy.  The protocol hides the storage format: dicts
    in :class:`MemoryTier`, checksummed files in the snapshot store.
    """

    tier_name: str

    def get(self, key: str) -> Optional[CacheEntry]: ...

    def put(self, entry: CacheEntry) -> None: ...

    def delete(self, key: str) -> bool: ...

    def keys(self) -> list[str]: ...


class _BudgetedMap:
    """Entries by key under a byte budget, with a running byte total so
    ``add`` and the total are O(1) while the budget holds."""

    def __init__(self, max_bytes: int, evicted: Callable[[], None]) -> None:
        self.max_bytes = max_bytes
        self.evicted = evicted
        self.entries: dict[str, CacheEntry] = {}
        self.bytes = 0

    def add(self, entry: CacheEntry) -> None:
        """Insert (an overwrite keeps its place in insertion order), then
        evict oldest-first while over budget, reporting each eviction."""
        previous = self.entries.get(entry.key)
        if previous is not None:
            self.bytes -= previous.size
        self.entries[entry.key] = entry
        self.bytes += entry.size
        while self.bytes > self.max_bytes and self.entries:
            oldest = min(self.entries.values(), key=lambda e: e.stored_at)
            self.pop(oldest.key)
            self.evicted()

    def pop(self, key: str) -> Optional[CacheEntry]:
        entry = self.entries.pop(key, None)
        if entry is not None:
            self.bytes -= entry.size
        return entry


class MemoryTier:
    """Tier 0: the live map plus the stale map expired entries retire
    to, each under its own byte budget.  Not thread-safe on its own —
    the owning cache's lock guards it."""

    tier_name = "memory"

    def __init__(
        self,
        max_bytes: int,
        stale_max_bytes: int,
        record: Callable[[str], None],
    ) -> None:
        self.fresh = _BudgetedMap(max_bytes, lambda: record("evictions"))
        self.stale = _BudgetedMap(
            stale_max_bytes, lambda: record("stale_evictions")
        )

    def get(self, key: str) -> Optional[CacheEntry]:
        return self.fresh.entries.get(key) or self.stale.entries.get(key)

    def put(self, entry: CacheEntry) -> None:
        """Store as the live entry, superseding any stale copy."""
        self.stale.pop(entry.key)
        self.fresh.add(entry)

    def delete(self, key: str) -> bool:
        live = self.fresh.pop(key)
        retired = self.stale.pop(key)
        return live is not None or retired is not None

    def keys(self) -> list[str]:
        return [*self.fresh.entries, *self.stale.entries]


class _Flight:
    """One in-progress loader execution that concurrent misses join."""

    __slots__ = ("done", "result", "error", "owner", "invalidated")

    def __init__(self, owner: int) -> None:
        self.done = threading.Event()
        self.result: object = None
        self.error: Optional[BaseException] = None
        self.owner = owner  # thread id of the leader, for reentrancy
        # Set when the key is invalidated while the loader runs: the
        # leader's store must then not resurrect the entry.
        self.invalidated = False


class PrerenderCache:
    """TTL cache for rendered snapshots and adapted fragments.

    Thread-safe; see the module docstring for the lock order.  ``bus``
    (anything with ``publish(InvalidationEvent)``) hears every
    invalidation, ``clear`` and TTL expiry; ``store`` adds a durable
    tier below memory and starts the write-behind flusher, whose dirty
    queue holds at most ``dirty_limit`` entries.
    """

    def __init__(
        self,
        clock=None,
        max_bytes: int = 64 * 1024 * 1024,
        metrics: Optional[MetricsRegistry] = None,
        stale_grace_s: float = 24 * 3600.0,
        stale_max_bytes: int = 16 * 1024 * 1024,
        bus=None,
        store: Optional[Tier] = None,
        dirty_limit: int = 256,
    ) -> None:
        self.clock = clock
        self.stale_grace_s = stale_grace_s
        self.bus = bus
        self.dirty_limit = dirty_limit
        #: Called with each entry after it reaches the lower tiers
        #: (cross-region replication hangs off it).
        self.on_persist: Optional[Callable[[CacheEntry], None]] = None
        registry = metrics or MetricsRegistry()
        self.stats = CacheStats(registry=registry)
        self._memory = MemoryTier(
            max_bytes, stale_max_bytes, self.stats.record
        )
        self._lower: list[Tier] = [] if store is None else [store]
        self.tiers = [self._memory, *self._lower]
        self._flights: dict[str, _Flight] = {}
        self._lock = threading.Lock()
        self._store_lock = threading.Lock()
        self._dirty: deque[CacheEntry] = deque()
        self._dirty_cond = threading.Condition()
        self._flush_lock = threading.Lock()
        self._closed = False
        self._flusher: Optional[threading.Thread] = None
        if self._lower:
            self._start_write_behind(registry)
        self._tier_hits = {
            tier.tier_name: registry.counter(
                "msite_cache_tier_hits_total",
                "Cache hits by the tier that answered (a lower tier's "
                "answer is promoted into memory).",
                labels={"tier": tier.tier_name},
            )
            for tier in self.tiers
        }

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Expose this cache's counters through a shared registry."""
        self.stats.bind(registry)
        for counter in self._tier_hits.values():
            registry.register(counter)

    @property
    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    # ------------------------------------------------------------------
    # lookups: one walk down the tier list

    def get(self, key: str) -> Optional[CacheEntry]:
        """The fresh entry for ``key``, or ``None`` — one walk down the
        tier list, counted as a hit (against the tier that answered) or
        a miss.  An entry found expired is retired to the stale map and
        its expiry announced."""
        source = self._read_through(key) or self._memory
        with self._lock:
            entry = self._memory.fresh.entries.get(key)
            expired = entry is not None and not entry.fresh(self._now)
            if expired:
                self._retire(entry)
                entry = None
            elif entry is not None:
                entry.hits += 1
        if expired:
            self.stats.record("expirations")
            self._announce(EXPIRE, key)
        if entry is None:
            self.stats.record("misses")
        else:
            self.stats.record("hits")
            self._tier_hits[source.tier_name].inc()
        return entry

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Memory-tier lookup without touching hit/miss statistics or
        entry hit counts.  Single-flight loaders use this for their
        double-check so a collapsed stampede is not double-counted as
        misses."""
        with self._lock:
            entry = self._memory.fresh.entries.get(key)
        if entry is None or not entry.fresh(self._now):
            return None
        return entry

    def _read_through(self, key: str) -> Optional[Tier]:
        """When memory has no opinion on ``key``, admit it from the
        first lower tier that holds it: live when fresh, stale-parked
        when expired within grace.  Returns that tier, or ``None`` when
        nothing was admitted.  ``_store_lock`` keeps an invalidation
        from landing between the read and the admission."""
        if not self._lower:
            return None
        with self._lock:
            if self._memory.get(key) is not None:
                return None
        with self._store_lock:
            for tier in self._lower:
                stored = tier.get(key)
                if stored is None:
                    continue
                with self._lock:
                    if self._memory.get(key) is not None:
                        return None
                    if stored.fresh(self._now):
                        self._memory.put(stored)
                        return tier
                    return tier if self._park(stored) else None
        return None

    def _park(self, entry: CacheEntry) -> bool:
        """Keep an expired entry for the degradation ladder (caller holds
        the lock).  Entries with no positive TTL were never servable,
        and ones beyond the grace window no longer are: both drop."""
        if entry.ttl_s <= 0 or self._stale_age(entry) > self.stale_grace_s:
            return False
        self._memory.stale.add(entry)
        return True

    def _retire(self, entry: CacheEntry) -> None:
        """Move an expired live entry to the stale map (caller holds the
        lock, and announces the expiry once it is released)."""
        self._memory.fresh.pop(entry.key)
        self._park(entry)

    def _stale_age(self, entry: CacheEntry) -> float:
        """Seconds past the entry's expiry instant (negative = fresh)."""
        return self._now - (entry.stored_at + entry.ttl_s)

    def _announce(self, kind: str, key: Optional[str] = None) -> None:
        """Publish on the bus; callers hold no cache lock."""
        if self.bus is not None:
            self.bus.publish(InvalidationEvent(kind, key))

    def load_stale(
        self, key: str, max_stale_s: Optional[float] = None
    ) -> Optional[CacheEntry]:
        """Best available entry for ``key``, expired entries included.

        A fresh entry is returned as-is (without touching hit/miss
        accounting — this path only runs when the fresh path already
        failed).  Otherwise an expired entry no more than ``max_stale_s``
        (default: the cache's ``stale_grace_s``) past its TTL is served
        and counted as a ``stale_hit``.  Returns ``None`` when nothing
        servable survives.
        """
        limit = self.stale_grace_s if max_stale_s is None else max_stale_s
        self._read_through(key)
        with self._lock:
            entry = self._memory.fresh.entries.get(key)
            expired = entry is not None and not entry.fresh(self._now)
            if expired:
                # Expired in place (no get noticed yet): retire it now,
                # then judge it as the stale entry it is.
                self._retire(entry)
            if entry is None or expired:
                entry = self._memory.stale.entries.get(key)
                if entry is not None and self._stale_age(entry) <= limit:
                    entry.hits += 1
                    self.stats.record("stale_hits")
                else:
                    if entry is not None:
                        self._memory.stale.pop(key)
                        self.stats.record("stale_evictions")
                    self.stats.record("stale_misses")
                    entry = None
        if expired:
            self._announce(EXPIRE, key)
        return entry

    def keys(self) -> list[str]:
        """Keys of the fresh entries (the current working set)."""
        with self._lock:
            return list(self._memory.fresh.entries)

    @property
    def total_bytes(self) -> int:
        return self._memory.fresh.bytes

    @property
    def stale_bytes(self) -> int:
        return self._memory.stale.bytes

    def __len__(self) -> int:
        return len(self._memory.fresh.entries)

    # ------------------------------------------------------------------
    # stores

    def put(
        self,
        key: str,
        data,
        content_type: str = "application/octet-stream",
        ttl_s: float = 3600.0,
    ) -> CacheEntry:
        """Store ``data``: bytes, a str (kept as UTF-8), or a decoded
        value the memory tier holds as is (see :class:`CacheEntry`)."""
        if isinstance(data, str):
            data = data.encode("utf-8")
        entry = CacheEntry(
            key=key,
            data=data,
            content_type=content_type,
            stored_at=self._now,
            ttl_s=ttl_s,
        )
        with self._lock:
            flight = self._flights.get(key)
            if (
                flight is not None
                and flight.invalidated
                and flight.owner == threading.get_ident()
            ):
                # The key was invalidated while this flight's loader
                # ran: its waiters still get the loaded bytes, but
                # keeping them would resurrect the invalidated entry —
                # the next lookup must re-load.
                self.stats.record("invalidated_loads")
                return entry
            self._memory.put(entry)
        self.stats.record("stores")
        if self._lower:
            self._schedule_persist(entry)
        return entry

    # ------------------------------------------------------------------
    # invalidation: one walk over every tier, then the announcement

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` from every tier; announced when any held it."""
        held = bool(self._purge(lambda k: k == key, only=key))
        if held:
            self._announce(INVALIDATE, key)
        return held

    def clear(self) -> None:
        self._purge(lambda k: True)
        self._announce(CLEAR)

    def invalidate_matching(self, predicate: Callable[[str], bool]) -> int:
        """Drop every entry, in every tier, whose key satisfies
        ``predicate``; returns the number of distinct keys removed.

        Unlike :meth:`invalidate`, this is a *silent* reconciliation
        primitive (no per-key bus events): the CDC replay path uses it
        to purge a region's derived state for a whole site, announcing
        the purge once itself.
        """
        return len(self._purge(predicate))

    def _purge(
        self, matches: Callable[[str], bool], only: Optional[str] = None
    ) -> set[str]:
        """Delete every matching key from every tier, top down, and mark
        matching in-progress flights so their results are served but not
        kept.  ``only`` names the single candidate key; without it each
        tier's keys are scanned.  Runs under ``_store_lock`` so neither
        the flusher nor a promotion can put back what this removes."""

        def delete_from(tier: Tier) -> set[str]:
            candidates = tier.keys() if only is None else (only,)
            return {k for k in candidates if matches(k) and tier.delete(k)}

        with self._store_lock:
            with self._lock:
                for key, flight in self._flights.items():
                    if matches(key):
                        flight.invalidated = True
                purged = delete_from(self._memory)
            for tier in self._lower:
                purged |= delete_from(tier)
        return purged

    # ------------------------------------------------------------------
    # single-flight

    def load_or_join(self, key: str, loader: Callable[[], object]) -> object:
        """Run ``loader`` once per key across concurrent callers.

        The first caller for ``key`` becomes the leader and executes
        ``loader`` (with no cache lock held); every caller that arrives
        while the flight is in progress blocks until the leader finishes
        and receives the same result (or the same exception).  The flight
        is forgotten once it completes, so a later expiry triggers a
        fresh load.  A leader that re-enters the same key on the same
        thread runs the loader directly rather than deadlocking on its
        own flight.

        The resurrection guard lives here and in :meth:`put`: if ``key``
        is invalidated while the loader runs, the leader's ``put`` of it
        returns the entry without keeping it.
        """
        me = threading.get_ident()
        with self._lock:
            existing = self._flights.get(key)
            if existing is not None and existing.owner == me:
                # Reentrant: the leader's loader consulted the cache
                # again; run directly rather than joining our own flight.
                existing = None
                flight = None
            elif existing is not None:
                self.stats.record("stampedes_suppressed")
                flight = None
            else:
                flight = _Flight(owner=me)
                self._flights[key] = flight
                self.stats.record("flights")
        if existing is not None:
            existing.done.wait()
            if existing.error is not None:
                raise existing.error
            return existing.result
        if flight is None:  # reentrant leader
            return loader()
        try:
            flight.result = loader()
        except BaseException as exc:
            flight.error = exc
        finally:
            with self._lock:
                self._flights.pop(key, None)
            flight.done.set()
        if flight.error is not None:
            raise flight.error
        return flight.result

    # ------------------------------------------------------------------
    # write-behind persistence to the lower tiers

    def _start_write_behind(self, registry: MetricsRegistry) -> None:
        self._preloaded = registry.counter(
            "msite_snapshotstore_preloaded_total",
            "Entries restored from disk by a warm-start preload.",
        )
        self._overflows = registry.counter(
            "msite_snapshotstore_writebehind_overflows_total",
            "Writes that degraded to write-through because the dirty "
            "queue was full.",
        )
        self._depth = registry.gauge(
            "msite_snapshotstore_writebehind_depth",
            "Entries waiting in the write-behind dirty queue.",
        )
        self._callback_errors = registry.counter(
            "msite_snapshotstore_persist_callback_errors_total",
            "on_persist callbacks (snapshot replication) that raised.",
        )
        self._flusher = threading.Thread(
            target=self._flush_loop, name="snapshot-writebehind", daemon=True
        )
        self._flusher.start()

    def _schedule_persist(self, entry: CacheEntry) -> None:
        with self._dirty_cond:
            if not self._closed and len(self._dirty) < self.dirty_limit:
                self._dirty.append(entry)
                self._depth.set(len(self._dirty))
                self._dirty_cond.notify()
                return
        # Queue full (or already closing): degrade to write-through
        # rather than dropping durability on the floor.
        self._overflows.inc()
        self._persist(entry)

    def _persist(self, entry: CacheEntry) -> bool:
        """Write one entry to the lower tiers iff it is still the live
        entry for its key; returns whether it was persisted.  A decoded
        entry is encoded once here, for every tier and the callback, and
        the encoding is not kept."""
        with self._store_lock:
            with self._lock:
                if self._memory.fresh.entries.get(entry.key) is not entry:
                    return False
            stored = entry.encoded()
            for tier in self._lower:
                tier.put(stored)
        callback = self.on_persist
        if callback is not None:
            try:
                callback(stored)
            except Exception:
                self._callback_errors.inc()
        return True

    def _flush_loop(self) -> None:
        while True:
            with self._dirty_cond:
                while not self._dirty and not self._closed:
                    self._dirty_cond.wait()
                if not self._dirty:
                    return
            self.flush()

    def flush(self) -> int:
        """Drain the dirty queue in the calling thread and return how
        many entries were persisted.  One drainer at a time holds
        ``_flush_lock`` from pop to persist, so when this returns every
        store made before the call is on disk (or was invalidated) —
        the barrier deterministic tests and shutdown lean on."""
        persisted = 0
        with self._flush_lock:
            while True:
                with self._dirty_cond:
                    if not self._dirty:
                        return persisted
                    entry = self._dirty.popleft()
                    self._depth.set(len(self._dirty))
                persisted += self._persist(entry)

    def close(self) -> None:
        """Stop the flusher and persist whatever is still dirty."""
        with self._dirty_cond:
            self._closed = True
            self._dirty_cond.notify_all()
        if self._flusher is not None:
            self._flusher.join(timeout=5.0)
        self.flush()

    def preload(self) -> int:
        """Warm start: read every lower-tier entry through into memory
        (live when fresh, stale-parked when in grace).  Returns the
        number admitted."""
        restored = sum(
            self._read_through(key) is not None
            for tier in self._lower
            for key in tier.keys()
        )
        if restored:
            self._preloaded.inc(restored)
        return restored
