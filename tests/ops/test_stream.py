"""Golden and round-trip tests for the NDJSON and SSE framings.

The golden strings pin the exact bytes on the wire — canonical
sorted-key JSON, LF-only framing — so a payload-ordering or separator
regression shows up as a diff against literals, not as a subtle
interop break.  The round-trip tests pin that both framings carry the
event losslessly; the property test extends that over arbitrary
payloads.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.ops import Event, SequencedLog
from repro.ops.stream import (
    event_from_json,
    event_to_json,
    parse_ndjson,
    parse_sse,
    render_ndjson,
    render_sse,
)

GOLDEN_EVENTS = [
    Event(
        sequence=1,
        type="worker_attached",
        created_at=0.0,
        payload={"worker": "w0", "fleet_size": 1},
    ),
    Event(
        sequence=2,
        type="scale_decision",
        created_at=1.25,
        payload={"action": "up", "target": "workers", "workers": 1},
    ),
]

GOLDEN_NDJSON = (
    '{"created_at":0.0,"payload":{"fleet_size":1,"worker":"w0"},'
    '"sequence":1,"type":"worker_attached"}\n'
    '{"created_at":1.25,"payload":{"action":"up","target":"workers",'
    '"workers":1},"sequence":2,"type":"scale_decision"}\n'
)

GOLDEN_SSE = (
    "id: 1\n"
    "event: worker_attached\n"
    'data: {"created_at":0.0,"payload":{"fleet_size":1,"worker":"w0"},'
    '"sequence":1,"type":"worker_attached"}\n'
    "\n"
    "id: 2\n"
    "event: scale_decision\n"
    'data: {"created_at":1.25,"payload":{"action":"up",'
    '"target":"workers","workers":1},"sequence":2,'
    '"type":"scale_decision"}\n'
    "\n"
)


def test_ndjson_golden():
    assert render_ndjson(GOLDEN_EVENTS) == GOLDEN_NDJSON


def test_sse_golden():
    assert render_sse(GOLDEN_EVENTS) == GOLDEN_SSE


def test_ndjson_round_trips_exactly():
    assert parse_ndjson(GOLDEN_NDJSON) == GOLDEN_EVENTS


def test_sse_round_trips_exactly():
    assert parse_sse(GOLDEN_SSE) == GOLDEN_EVENTS


def test_sse_parser_tolerates_comments_retry_and_blank_lines():
    noisy = (
        ": keep-alive\n\n"
        "retry: 3000\n"
        + GOLDEN_SSE.replace("\n\n", "\n\n\n")
        + ": trailing comment\n"
    )
    assert parse_sse(noisy) == GOLDEN_EVENTS


def test_event_json_is_canonical():
    # Payload key order in the source dict must not leak to the wire.
    scrambled = Event(
        sequence=7,
        type="degradation",
        created_at=0.5,
        payload={"worker": "w1", "mode": "stale"},
    )
    assert event_to_json(scrambled) == (
        '{"created_at":0.5,"payload":{"mode":"stale","worker":"w1"},'
        '"sequence":7,"type":"degradation"}'
    )
    assert event_from_json(event_to_json(scrambled)) == scrambled


payloads = st.dictionaries(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
    ),
    st.one_of(
        st.integers(min_value=-(2**31), max_value=2**31),
        st.text(max_size=32),
        st.booleans(),
        st.none(),
        st.floats(
            allow_nan=False, allow_infinity=False, width=32
        ),
    ),
    max_size=6,
)


@given(
    sequence=st.integers(min_value=1, max_value=2**40),
    type_=st.sampled_from(
        ["scale_decision", "degradation", "region_healed"]
    ),
    created_at=st.floats(
        min_value=0, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
    payload=payloads,
)
def test_any_event_round_trips_both_framings(
    sequence, type_, created_at, payload
):
    event = Event(
        sequence=sequence,
        type=type_,
        created_at=created_at,
        payload=payload,
    )
    assert parse_ndjson(render_ndjson([event])) == [event]
    assert parse_sse(render_sse([event])) == [event]


def test_log_to_ndjson_to_events_is_identity():
    log = SequencedLog("ops")
    for i in range(5):
        log.emit("invalidation", key=f"k{i}", replayed=bool(i % 2))
    events, _ = log.events_after(0)
    assert parse_ndjson(render_ndjson(events)) == events
    assert parse_sse(render_sse(events)) == events
