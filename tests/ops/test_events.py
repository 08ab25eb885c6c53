"""The sequenced log's contract, held for both roles it plays.

One class, two instances per regional deployment: ``"ops"`` (the
fleet's operations story) and ``"cdclog"`` (the invalidation stream
regions replay).  The contract every consumer leans on — SSE resume,
chaos assertions, the autoscaler's decision history, a healed region's
catch-up — is the same for both: sequence numbers are strictly
monotonic and gap-free, under sixteen racing threads as much as under
one; a reader that fell behind retention (or holds an offset no log
handed out) is *told* so instead of silently handed a holey stream; and
replaying from *any* acked offset is order-preserving and idempotent,
so a healed consumer converges to the same derived state no matter when
it disconnected or how many times it replays.

This module pins the contract for ``"ops"``; ``test_events_cdclog.py``
re-collects the same functions with ``log_name`` = ``"cdclog"``.
"""

import threading

import pytest
from hypothesis import given, strategies as st

from repro.observability.metrics import MetricsRegistry
from repro.ops import (
    EVENT_TYPES,
    Event,
    SequencedLog,
    parse_ndjson,
    parse_sse,
    render_ndjson,
    render_sse,
)
from repro.sim.clock import Clock

#: What each role emits: its event types and the shape of its payload.
VOCABULARY = {
    "ops": (
        ("degradation", "invalidation", "worker_attached"),
        lambda i: {"worker": f"w{i}", "replayed": bool(i % 2)},
    ),
    "cdclog": (
        ("invalidate", "refresh", "expire"),
        lambda i: {"key": f"snap:{i}", "origin": "east"},
    ),
}


class Role:
    """One of the log's two roles: its name and its vocabulary."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.types, self.payload = VOCABULARY[name]

    def log(self, **kwargs) -> SequencedLog:
        return SequencedLog(self.name, **kwargs)

    def emit(self, log: SequencedLog, i: int = 0) -> Event:
        return log.emit(self.types[i % len(self.types)], **self.payload(i))

    def filled(self, count: int, **kwargs) -> SequencedLog:
        log = self.log(**kwargs)
        for i in range(count):
            self.emit(log, i)
        return log

    def series(self, suffix: str) -> str:
        return f"msite_{self.name}_{suffix}"


@pytest.fixture(scope="module")
def log_name():
    return "ops"


@pytest.fixture(scope="module")
def role(log_name):
    return Role(log_name)


def test_sequences_start_at_one_and_never_gap(role):
    log = role.log()
    emitted = [role.emit(log, i) for i in range(10)]
    assert [event.sequence for event in emitted] == list(range(1, 11))
    events, truncated = log.events_after(0)
    assert events == emitted
    assert not truncated
    assert log.head_seq == 10
    assert log.earliest_seq == 1
    assert len(log) == 10


def test_events_after_returns_exactly_the_suffix(role):
    log = role.filled(8)
    suffix, truncated = log.events_after(5)
    assert [event.sequence for event in suffix] == [6, 7, 8]
    assert not truncated
    # Fully caught up: empty, not truncated.
    empty, truncated = log.events_after(8)
    assert empty == [] and not truncated


def test_retention_evicts_oldest_and_flags_truncated_reads(role):
    registry = MetricsRegistry()
    log = role.filled(10, retention=4, metrics=registry)
    assert len(log) == 4
    assert log.earliest_seq == 7
    # A reader at the retention boundary is fine: 7.. are all retained.
    events, truncated = log.events_after(6)
    assert not truncated
    assert [event.sequence for event in events] == [7, 8, 9, 10]
    assert registry.get(role.series("truncated_reads_total")).value == 0
    # A reader holding offset 2 cannot reconstruct 3..6: truncated.
    events, truncated = log.events_after(2)
    assert truncated
    assert [event.sequence for event in events] == [7, 8, 9, 10]
    assert registry.get(role.series("dropped_total")).value == 6
    assert registry.get(role.series("truncated_reads_total")).value == 1


def test_clock_stamps_created_at(role):
    clock = Clock()
    log = role.log(clock=clock)
    first = role.emit(log, 0)
    clock.advance(2.5)
    second = role.emit(log, 1)
    assert first.created_at == 0.0
    assert second == Event(
        sequence=2,
        type=role.types[1],
        created_at=2.5,
        payload=role.payload(1),
    )
    # No clock: every event is stamped 0.0.
    assert role.emit(role.log()).created_at == 0.0


def test_events_of_filters_by_type_in_order(role):
    log = role.filled(7)
    wanted = role.types[0], role.types[2]
    assert [event.sequence for event in log.events_of(*wanted)] == [
        1, 3, 4, 6, 7
    ]
    assert log.events_of() == []


def test_metrics_track_head_and_retention(role):
    registry = MetricsRegistry()
    role.filled(5, retention=2, metrics=registry)
    assert {family.name for family in registry.collect()} == {
        role.series("head_seq"),
        role.series("retained_events"),
        role.series("dropped_total"),
        role.series("truncated_reads_total"),
        role.series("events_total"),
    }
    assert registry.get(role.series("head_seq")).value == 5
    assert registry.get(role.series("retained_events")).value == 2
    assert registry.get(role.series("dropped_total")).value == 3
    # Five emits cycling three types: 2 + 2 + 1, one child per type.
    assert [
        registry.get(
            role.series("events_total"), labels={"type": type_}
        ).value
        for type_ in role.types
    ] == [2, 2, 1]


def test_both_roles_share_one_registry_without_colliding():
    registry = MetricsRegistry()
    ops = SequencedLog("ops", metrics=registry)
    cdc = SequencedLog("cdclog", metrics=registry)
    ops.emit("degradation", mode="stale")
    for _ in range(3):
        cdc.emit("invalidate", key="k", origin="east")
    assert registry.get("msite_ops_head_seq").value == 1
    assert registry.get("msite_cdclog_head_seq").value == 3


def test_status_and_repr(role):
    log = role.filled(2, retention=10)
    assert log.status() == {
        "head_seq": 2, "retained": 2, "earliest_seq": 1, "retention": 10,
    }
    assert role.name in repr(log) and "head=2" in repr(log)
    assert role.log().status()["earliest_seq"] is None


def test_empty_log_is_caught_up_not_truncated(role):
    log = role.log()
    events, truncated = log.events_after(0)
    assert events == [] and not truncated
    assert log.retained() == []
    assert log.head_seq == 0 and log.earliest_seq is None


def test_retention_must_be_positive(role):
    with pytest.raises(ValueError):
        role.log(retention=0)


def test_taxonomy_is_closed_over_what_the_fleet_emits():
    # Every constant the packages emit is in the published taxonomy.
    assert "scale_decision" in EVENT_TYPES
    assert "breaker_transition" in EVENT_TYPES
    assert "worker_draining" in EVENT_TYPES
    assert "region_healed" in EVENT_TYPES


def test_type_is_positional_only_so_a_payload_may_carry_one(role):
    event = role.log().emit(role.types[0], type="x", self="y")
    assert event.type == role.types[0]
    assert event.payload == {"type": "x", "self": "y"}


def test_reading_the_history_is_not_a_truncated_read(role):
    """A dump of what is retained holds no offset, so it cannot have
    fallen behind — however much has aged out.  A consumer that really
    is at offset 0 (a region that never applied anything) still has."""
    registry = MetricsRegistry()
    log = role.filled(5, retention=3, metrics=registry)
    truncated_reads = registry.get(role.series("truncated_reads_total"))
    assert [event.sequence for event in log.retained()] == [3, 4, 5]
    assert len(log.events_of(*role.types)) == 3
    assert truncated_reads.value == 0
    events, truncated = log.events_after(0)
    assert truncated and events == log.retained()
    assert truncated_reads.value == 1


def test_an_offset_no_log_handed_out_is_not_believed(role):
    registry = MetricsRegistry()
    log = role.filled(5, metrics=registry)
    # Negative: nothing ever carried that sequence.
    with pytest.raises(ValueError):
        log.events_after(-1)
    assert registry.get(role.series("truncated_reads_total")).value == 0
    # Ahead of the head: the consumer's offset came from a log that has
    # since begun again at 1, so "nothing new" would be a lie for ever.
    events, truncated = log.events_after(99)
    assert events == [] and truncated
    assert registry.get(role.series("truncated_reads_total")).value == 1
    # At the head exactly is simply caught up.
    assert log.events_after(5) == ([], False)


def test_events_round_trip_both_framings(role):
    events = role.filled(6, clock=Clock()).retained()
    assert parse_ndjson(render_ndjson(events)) == events
    assert parse_sse(render_sse(events)) == events


def test_sixteen_thread_hammer_is_gap_free(role):
    """16 threads × 50 emits race one log: the union of returned
    sequences is exactly 1..800 with no duplicates and no holes, and
    every thread's own emissions are strictly increasing."""
    log = role.log(retention=10_000)
    per_thread: dict[int, list[int]] = {i: [] for i in range(16)}
    barrier = threading.Barrier(16)

    def _hammer(slot: int) -> None:
        barrier.wait(timeout=5.0)
        for i in range(50):
            per_thread[slot].append(role.emit(log, slot + i).sequence)

    threads = [
        threading.Thread(target=_hammer, args=(slot,)) for slot in range(16)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)

    everything = sorted(
        seq for sequences in per_thread.values() for seq in sequences
    )
    assert everything == list(range(1, 16 * 50 + 1))
    for sequences in per_thread.values():
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)
    # And the log agrees with what the emitters saw.
    events, truncated = log.events_after(0)
    assert not truncated
    assert [event.sequence for event in events] == everything


# -- replay properties -----------------------------------------------------

_CHANGES = st.lists(
    st.tuples(
        st.sampled_from(["invalidate", "expire", "refresh", "clear"]),
        st.sampled_from(["snap:a", "snap:b", "snap:c", None]),
    ),
    min_size=1,
    max_size=12,
)


def _apply(state: set, event: Event) -> None:
    """The consumer model: invalidations remove derived keys."""
    if event.type == "clear" or event.payload["key"] is None:
        state.clear()
    else:
        state.discard(event.payload["key"])


@given(changes=_CHANGES, offset_fraction=st.floats(0.0, 1.0))
def test_property_replay_from_any_offset_is_order_preserving(
    role, changes, offset_fraction
):
    """The suffix handed out for any offset is exactly the emit-order
    tail, sequence-ascending, with no gaps and no duplicates."""
    log = role.log()
    emitted = [
        log.emit(type_, key=key, origin="east") for type_, key in changes
    ]
    offset = int(offset_fraction * log.head_seq)
    replayed, truncated = log.events_after(offset)
    assert not truncated  # retention default far exceeds len(changes)
    assert replayed == emitted[offset:]
    sequences = [event.sequence for event in replayed]
    assert sequences == list(range(offset + 1, log.head_seq + 1))


@given(
    changes=_CHANGES,
    offset_fraction=st.floats(0.0, 1.0),
    replays=st.integers(min_value=1, max_value=3),
)
def test_property_replay_is_idempotent(
    role, changes, offset_fraction, replays
):
    """Applying the replayed suffix once or N times converges to the
    same derived state a fully-connected consumer would have reached."""
    log = role.log()
    live = {"snap:a", "snap:b", "snap:c"}
    connected = set(live)
    for type_, key in changes:
        _apply(connected, log.emit(type_, key=key, origin="east"))
    offset = int(offset_fraction * log.head_seq)
    # The healing consumer saw everything up to `offset` already.
    healing = set(live)
    for event in log.retained()[:offset]:
        _apply(healing, event)
    suffix, truncated = log.events_after(offset)
    assert not truncated
    for _ in range(replays):
        for event in suffix:
            _apply(healing, event)
    assert healing == connected
