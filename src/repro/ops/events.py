"""The fleet-wide operations event log.

``/cluster`` and ``/regions`` are point-in-time snapshots: a test (or
an operator) polling them sees only the state that happens to hold at
the scrape instant, and transient facts — a breaker that opened and
closed between two polls, a worker that drained away, the exact order
of a failover — are simply invisible.  The ops log replaces polling
with **history**: every operationally meaningful state change appends
one :class:`OpsEvent` with a strictly monotonic, gap-free sequence
number, and consumers assert on *what happened* instead of what is.

The log follows the same discipline as the CDC
:class:`InvalidationLog <repro.regions.cdclog.InvalidationLog>`:
append-only, bounded retention, and :meth:`OpsEventLog.events_after`
returning ``(suffix, truncated)`` so a consumer that fell behind the
retention window knows it cannot reconstruct the gap.  That contract is
what makes the SSE ``after_sequence`` resume semantics (see
:mod:`repro.ops.stream`) exact: reconnecting with the last sequence you
saw replays precisely the missed suffix — no duplicates, no holes.
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
class OpsEvent:
    """One entry in the ops event log.

    ``payload`` holds JSON-primitive values only (str/int/float/bool/
    None), so an event round-trips exactly through the NDJSON and SSE
    framings in :mod:`repro.ops.stream`.
    """

    sequence: int
    type: str
    created_at: float
    payload: dict[str, Any] = field(default_factory=dict)


class OpsEventLog:
    """Append-only, bounded, strictly-sequenced operations stream."""

    def __init__(
        self,
        retention: int = 8192,
        clock: Optional[Any] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if retention < 1:
            raise ValueError("retention must be at least 1 event")
        self.retention = retention
        self.clock = clock
        self._lock = threading.Lock()
        self._events: deque[OpsEvent] = deque()
        self._seq = 0
        registry = metrics or MetricsRegistry()
        self._registry = registry
        self._head_gauge = registry.gauge(
            "msite_ops_head_seq",
            "Highest sequence number appended to the ops event log.",
        )
        self._retained_gauge = registry.gauge(
            "msite_ops_retained_events",
            "Events currently retained by the ops event log.",
        )
        self._dropped = registry.counter(
            "msite_ops_dropped_total",
            "Ops events aged out of the log by the retention bound.",
        )
        self._truncated_reads = registry.counter(
            "msite_ops_truncated_reads_total",
            "events_after() calls from an offset older than retention.",
        )

    @property
    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def emit(self, type: str, **payload: Any) -> OpsEvent:
        """Append one event; sequence numbers are gap-free under races.

        The sequence is assigned and the event stored under one lock,
        so sixteen threads emitting concurrently still produce a
        strictly monotonic, hole-free stream — the property the chaos
        suites and the SSE resume contract both lean on.
        """
        with self._lock:
            self._seq += 1
            event = OpsEvent(
                sequence=self._seq,
                type=type,
                created_at=self._now,
                payload=payload,
            )
            self._events.append(event)
            while len(self._events) > self.retention:
                self._events.popleft()
                self._dropped.inc()
            self._head_gauge.set(self._seq)
            self._retained_gauge.set(len(self._events))
        self._registry.counter(
            "msite_ops_events_total",
            "Ops events appended, by type.",
            labels={"type": type},
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

    def events_after(self, offset: int) -> tuple[list[OpsEvent], bool]:
        """``(events with sequence > offset, truncated)``.

        ``truncated=True`` means events between ``offset`` and the
        oldest retained one have aged out; the consumer cannot
        reconstruct the gap and should restart from ``events_after(0)``
        (accepting that the prefix is history it can no longer see).
        """
        with self._lock:
            earliest = (
                self._events[0].sequence if self._events else self._seq + 1
            )
            truncated = offset < earliest - 1
            events = [e for e in self._events if e.sequence > offset]
        if truncated:
            self._truncated_reads.inc()
        return events, truncated

    def events_of(self, *types: str) -> list[OpsEvent]:
        """Every retained event whose type is in ``types``, in order."""
        wanted = frozenset(types)
        with self._lock:
            return [e for e in self._events if e.type in wanted]

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
            f"OpsEventLog(head={self.head_seq}, "
            f"retained={len(self)}/{self.retention})"
        )
