"""The one sequenced log, and the fleet's operations taxonomy.

``/cluster`` and ``/regions`` are point-in-time snapshots: a test (or
an operator) polling them sees only the state that happens to hold at
the scrape instant, and transient facts — a breaker that opened and
closed between two polls, a worker that drained away, the exact order
of a failover — are simply invisible.  A :class:`SequencedLog` replaces
polling with **history**: every meaningful state change appends one
:class:`Event` with a strictly monotonic, gap-free sequence number, and
consumers assert on *what happened* instead of what is.

The log is append-only with bounded retention, and
:meth:`SequencedLog.events_after` returns ``(suffix, truncated)`` so a
consumer that fell behind the retention window knows it cannot
reconstruct the gap.  That contract is what makes the SSE
``after_sequence`` resume semantics (see :mod:`repro.ops.stream`) exact
— reconnecting with the last sequence you saw replays precisely the
missed suffix, no duplicates, no holes — and what makes a healed
region's catch-up deterministic.

The class is used twice, and the ``name`` says which role an instance
plays (it prefixes the instance's ``msite_{name}_*`` series):

* ``"ops"`` — the fleet's operations story, one per deployment, typed
  by the taxonomy below and served on ``/ops/events*``.
* ``"cdclog"`` — a :class:`RegionalDeployment
  <repro.regions.deployment.RegionalDeployment>`'s change-data-capture
  stream: every origin-content change, ``?refresh=1``, explicit
  invalidation and TTL purge is one ``refresh | invalidate | expire |
  clear`` event whose payload is ``{"key", "origin"}``; each region
  remembers the last sequence it applied and replays everything after
  it, and one whose offset aged out (``truncated=True``) full-resyncs
  instead of replaying a gap it cannot see.

The two roles stay two instances: an ops event is a fact the moment it
happens, while a partitioned region's changes must stay unpublished
until it heals, and per-request ``degradation`` events must not age
invalidations out of the replication window (docs/REGIONS.md).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.observability.metrics import MetricsRegistry

# -- event taxonomy --------------------------------------------------------

#: The autoscaler changed (or declined to change) the fleet size.
SCALE_DECISION = "scale_decision"
#: A worker joined the routed fleet.
WORKER_ATTACHED = "worker_attached"
#: A worker stopped admission and left the router (shards remapped).
WORKER_DRAINING = "worker_draining"
#: A drained worker finished its in-flight work and left the fleet.
WORKER_DETACHED = "worker_detached"
#: A circuit breaker moved between closed/open/half_open.
BREAKER_TRANSITION = "breaker_transition"
#: A request was served through a degradation-ladder rung.
DEGRADATION = "degradation"
#: An origin's validators failed the audit; it is fetched
#: unconditionally from here on.
ORIGIN_DEMOTED = "origin_demoted"
#: A cache invalidation was published on the fleet bus.
INVALIDATION = "invalidation"
#: A render-farm consumer was added by the autoscaler.
CONSUMER_STARTED = "consumer_started"
#: A render-farm consumer was retired by the autoscaler.
CONSUMER_RETIRED = "consumer_retired"
#: A render-farm consumer died to an injected mid-render crash.
CONSUMER_CRASHED = "consumer_crashed"
#: A render key was quarantined in the dead-letter lane.
DEAD_LETTER = "dead_letter"
#: Region lifecycle (multi-region deployments).
REGION_KILLED = "region_killed"
REGION_REVIVED = "region_revived"
REGION_PARTITIONED = "region_partitioned"
REGION_HEALED = "region_healed"
REGION_FAILOVER = "region_failover"
REGION_RESYNC = "region_resync"

EVENT_TYPES = frozenset({
    SCALE_DECISION,
    WORKER_ATTACHED,
    WORKER_DRAINING,
    WORKER_DETACHED,
    BREAKER_TRANSITION,
    DEGRADATION,
    ORIGIN_DEMOTED,
    INVALIDATION,
    CONSUMER_STARTED,
    CONSUMER_RETIRED,
    CONSUMER_CRASHED,
    DEAD_LETTER,
    REGION_KILLED,
    REGION_REVIVED,
    REGION_PARTITIONED,
    REGION_HEALED,
    REGION_FAILOVER,
    REGION_RESYNC,
})


@dataclass(frozen=True)
class Event:
    """One entry in a :class:`SequencedLog`.

    ``payload`` holds JSON-primitive values only (str/int/float/bool/
    None), so an event round-trips exactly through the NDJSON and SSE
    framings in :mod:`repro.ops.stream`.
    """

    sequence: int
    type: str
    created_at: float
    payload: dict[str, Any] = field(default_factory=dict)


class SequencedLog:
    """Append-only, bounded, strictly-sequenced event stream."""

    def __init__(
        self,
        name: str,
        retention: int = 8192,
        clock: Optional[Any] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if retention < 1:
            raise ValueError("retention must be at least 1 event")
        self.name = name
        self.retention = retention
        self.clock = clock
        self._lock = threading.Lock()
        self._events: deque[Event] = deque()
        self._seq = 0
        registry = metrics or MetricsRegistry()
        self._registry = registry
        self._head_gauge = registry.gauge(
            f"msite_{name}_head_seq",
            f"Highest sequence number appended to the {name} event log.",
        )
        self._retained_gauge = registry.gauge(
            f"msite_{name}_retained_events",
            f"Events currently retained by the {name} event log.",
        )
        self._dropped = registry.counter(
            f"msite_{name}_dropped_total",
            f"{name.capitalize()} events aged out of the log by the "
            "retention bound.",
        )
        self._truncated_reads = registry.counter(
            f"msite_{name}_truncated_reads_total",
            "events_after() calls from an offset older than retention.",
        )
        self._events_total = (
            f"msite_{name}_events_total",
            f"{name.capitalize()} events appended, by type.",
        )

    def emit(self, type: str, /, **payload: Any) -> Event:
        """Append one event; sequence numbers are gap-free under races.

        The sequence is assigned and the event stored under one lock,
        so sixteen threads emitting concurrently still produce a
        strictly monotonic, hole-free stream — the property the chaos
        suites, the SSE resume contract and CDC replay all lean on.
        """
        with self._lock:
            self._seq += 1
            now = self.clock.now if self.clock is not None else 0.0
            event = Event(self._seq, type, now, payload)
            self._events.append(event)
            if len(self._events) > self.retention:
                self._events.popleft()
                self._dropped.inc()
            self._head_gauge.set(self._seq)
            self._retained_gauge.set(len(self._events))
        self._registry.counter(
            *self._events_total, labels={"type": type}
        ).inc()
        return event

    @property
    def head_seq(self) -> int:
        with self._lock:
            return self._seq

    @property
    def earliest_seq(self) -> Optional[int]:
        """Sequence of the oldest retained event, or ``None`` if empty."""
        with self._lock:
            return self._events[0].sequence if self._events else None

    def retained(self) -> list[Event]:
        """Every retained event, in order.

        The read for a caller that holds no offset (a history dump, a
        report): it claims nothing about what came before, so it is
        never a truncated read.
        """
        with self._lock:
            return list(self._events)

    def events_after(self, offset: int) -> tuple[list[Event], bool]:
        """``(events with sequence > offset, truncated)`` for a consumer
        resuming from the last sequence it applied (0 = nothing yet).

        ``truncated=True`` means the suffix cannot be trusted to be
        everything the consumer missed: either events between
        ``offset`` and the oldest retained one have aged out, or
        ``offset`` is ahead of the head (it was handed out by a log
        that has since begun again at 1).  The consumer must start
        over — full-resync, or re-read from offset 0 accepting that the
        prefix is history it can no longer see.  A negative offset was
        never handed out by any log and is refused.
        """
        if offset < 0:
            raise ValueError("offset must not be negative")
        with self._lock:
            first = self._events[0].sequence if self._events else self._seq + 1
            truncated = offset < first - 1 or offset > self._seq
            events = [e for e in self._events if e.sequence > offset]
        if truncated:
            self._truncated_reads.inc()
        return events, truncated

    def events_of(self, *types: str) -> list[Event]:
        """Every retained event whose type is in ``types``, in order."""
        return [e for e in self.retained() if e.type in types]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def status(self) -> dict:
        with self._lock:
            return {
                "head_seq": self._seq,
                "retained": len(self._events),
                "earliest_seq": (
                    self._events[0].sequence if self._events else None
                ),
                "retention": self.retention,
            }

    def __repr__(self) -> str:
        return (
            f"SequencedLog({self.name!r}, head={self.head_seq}, "
            f"retained={len(self)}/{self.retention})"
        )
