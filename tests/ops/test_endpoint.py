"""The ``/ops/events`` endpoints: framings, resume, and fleet wiring.

The resume contract under test is the one the SSE spec implies and the
gap-free log makes exact: a client that reconnects with the last ``id``
it saw receives precisely the events it missed — no duplicates, no
holes — and a client whose offset has aged out of retention is told so
in-band instead of being handed a silently holey stream.
"""

import json

from repro.cluster import ClusterDeployment
from repro.net.messages import Request, Response
from repro.observability.metrics import MetricsRegistry
from repro.ops import SequencedLog
from repro.ops.stream import (
    NDJSON_CONTENT_TYPE,
    SSE_CONTENT_TYPE,
    ops_events_response,
    parse_ndjson,
    parse_sse,
)


def _log(events: int = 5) -> SequencedLog:
    log = SequencedLog("ops")
    for i in range(events):
        log.emit("invalidation", key=f"k{i}")
    return log


def test_ndjson_endpoint_serves_the_full_history():
    log = _log(5)
    response = ops_events_response(
        log, Request.get("http://fleet.local/ops/events.ndjson")
    )
    assert response.status == 200
    assert response.headers.get("Content-Type") == NDJSON_CONTENT_TYPE
    events = parse_ndjson(response.body.decode("utf-8"))
    assert [event.sequence for event in events] == [1, 2, 3, 4, 5]


def test_json_snapshot_carries_status_and_events():
    log = _log(3)
    response = ops_events_response(
        log, Request.get("http://fleet.local/ops/events")
    )
    assert response.status == 200
    snapshot = json.loads(response.body.decode("utf-8"))
    assert snapshot["status"]["head_seq"] == 3
    assert [event["sequence"] for event in snapshot["events"]] == [1, 2, 3]


def test_sse_stream_from_zero_then_resume_has_no_dupes_no_gaps():
    log = _log(4)
    first = ops_events_response(
        log, Request.get("http://fleet.local/ops/events?stream=true")
    )
    assert first.headers.get("Content-Type") == SSE_CONTENT_TYPE
    seen = parse_sse(first.body.decode("utf-8"))
    assert [event.sequence for event in seen] == [1, 2, 3, 4]

    # The client disconnects; the fleet keeps living.
    for i in range(3):
        log.emit("degradation", mode=f"m{i}")

    last_id = seen[-1].sequence
    resumed = ops_events_response(
        log,
        Request.get(
            "http://fleet.local/ops/events"
            f"?stream=true&after_sequence={last_id}"
        ),
    )
    missed = parse_sse(resumed.body.decode("utf-8"))
    # Exactly the missed suffix: nothing re-sent, nothing skipped.
    assert [event.sequence for event in missed] == [5, 6, 7]
    replayed = seen + missed
    assert [event.sequence for event in replayed] == list(range(1, 8))


def test_resume_past_the_head_is_an_empty_stream():
    log = _log(2)
    response = ops_events_response(
        log,
        Request.get(
            "http://fleet.local/ops/events?stream=true&after_sequence=2"
        ),
    )
    assert response.status == 200
    assert parse_sse(response.body.decode("utf-8")) == []


def test_bad_after_sequence_is_a_400():
    log = _log(1)
    response = ops_events_response(
        log,
        Request.get(
            "http://fleet.local/ops/events?stream=true&after_sequence=x"
        ),
    )
    assert response.status == 400


def test_negative_after_sequence_is_a_400():
    """No log ever handed out a negative sequence; believing one used
    to answer 200 with a truncation notice on a log that dropped
    nothing."""
    response = ops_events_response(
        _log(3),
        Request.get(
            "http://fleet.local/ops/events?stream=true&after_sequence=-7"
        ),
    )
    assert response.status == 400


def test_resume_from_beyond_the_head_is_told_to_restart():
    """A client resuming against a restarted proxy (whose log began
    again at 1) holds an offset ahead of the head.  An empty 200 would
    be "nothing, for ever"; the in-band notice tells it to start over."""
    registry = MetricsRegistry()
    log = SequencedLog("ops", metrics=registry)
    for i in range(5):
        log.emit("invalidation", key=f"k{i}")
    response = ops_events_response(
        log,
        Request.get(
            "http://fleet.local/ops/events?stream=true&after_sequence=99"
        ),
    )
    assert response.status == 200
    body = response.body.decode("utf-8")
    assert body.startswith(": truncated") and "restart from 0" in body
    assert parse_sse(body) == []
    assert registry.get("msite_ops_truncated_reads_total").value == 1


def test_history_scrapes_never_count_as_truncated_reads():
    """``.ndjson`` and the JSON snapshot hold no offset; once anything
    had aged out they used to bump the counter once per scrape, for
    ever.  Only a resume from an offset retention has passed counts."""
    registry = MetricsRegistry()
    log = SequencedLog("ops", retention=3, metrics=registry)
    for i in range(5):
        log.emit("invalidation", key=f"k{i}")
    truncated_reads = registry.get("msite_ops_truncated_reads_total")
    for _ in range(2):
        for path in ("ops/events.ndjson", "ops/events"):
            response = ops_events_response(
                log, Request.get(f"http://fleet.local/{path}")
            )
            assert response.status == 200
    assert truncated_reads.value == 0
    ops_events_response(
        log,
        Request.get(
            "http://fleet.local/ops/events?stream=true&after_sequence=1"
        ),
    )
    assert truncated_reads.value == 1


def test_truncated_resume_says_so_in_band():
    log = SequencedLog("ops", retention=3)
    for i in range(10):
        log.emit("invalidation", key=f"k{i}")
    response = ops_events_response(
        log,
        Request.get(
            "http://fleet.local/ops/events?stream=true&after_sequence=2"
        ),
    )
    body = response.body.decode("utf-8")
    assert body.startswith(": truncated")
    # The comment keeps the stream parseable: the retained suffix
    # still comes through.
    events = parse_sse(body)
    assert [event.sequence for event in events] == [8, 9, 10]


class EchoApp:
    def __init__(self, services):
        self.services = services

    def forget_adapted(self):
        pass

    def handle(self, request):
        return Response.text("ok")


def test_cluster_serves_ops_endpoints_end_to_end():
    """The fleet exposes its own lifecycle on /ops/events.*: worker
    attachments from construction, scale actions, and invalidations all
    arrive through the same HTTP surface devices use."""
    with ClusterDeployment(
        origins={}, workers=2, site="echo", make_app=EchoApp
    ) as cluster:
        ndjson = cluster.handle(
            Request.get("http://echo.local/ops/events.ndjson")
        )
        assert ndjson.status == 200
        events = parse_ndjson(ndjson.body.decode("utf-8"))
        attached = [e for e in events if e.type == "worker_attached"]
        assert len(attached) == 2
        assert [e.sequence for e in events] == list(
            range(1, len(events) + 1)
        )

        cluster.add_worker()
        last = events[-1].sequence
        sse = cluster.handle(
            Request.get(
                "http://echo.local/ops/events"
                f"?stream=true&after_sequence={last}"
            )
        )
        fresh = parse_sse(sse.body.decode("utf-8"))
        assert fresh, "no events after the resume offset"
        assert fresh[0].sequence == last + 1
        assert any(e.type == "worker_attached" for e in fresh)
