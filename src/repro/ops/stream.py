"""NDJSON and SSE framings for the sequenced log's events.

Two wire shapes over the same history (the run-event streaming spec the
design follows — SNIPPETS.md Snippet 3 — uses both):

* ``GET /ops/events.ndjson`` — the historical record: one JSON object
  per line, in sequence order.  Newline-delimited JSON is trivially
  greppable and trivially parseable back to the exact emitted events.
* ``GET /ops/events?stream=true&after_sequence=N`` — the live feed:
  ``text/event-stream`` frames (``id:``/``event:``/``data:``), each
  frame's ``id`` the event's sequence number.  A client that
  disconnects resumes by passing the last ``id`` it saw as
  ``after_sequence``; because sequences are gap-free, the reply is
  exactly the missed suffix — no duplicates, no holes.

Both framings round-trip: :func:`parse_ndjson` and :func:`parse_sse`
reconstruct the precise :class:`Event` objects that were emitted,
which is what the golden tests in ``tests/ops/`` pin.
"""

from __future__ import annotations

import json

from repro.net.messages import Request, Response
from repro.ops.events import Event, SequencedLog

NDJSON_CONTENT_TYPE = "application/x-ndjson"
SSE_CONTENT_TYPE = "text/event-stream; charset=utf-8"


# -- NDJSON ----------------------------------------------------------------

def event_to_json(event: Event) -> str:
    """One event as a canonical (sorted-key) JSON object, no newline."""
    return json.dumps(
        {
            "sequence": event.sequence,
            "type": event.type,
            "created_at": event.created_at,
            "payload": event.payload,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def event_from_json(text: str) -> Event:
    data = json.loads(text)
    return Event(
        sequence=data["sequence"],
        type=data["type"],
        created_at=data["created_at"],
        payload=data.get("payload", {}),
    )


def render_ndjson(events: list[Event]) -> str:
    """The events as NDJSON, one line each (trailing newline included)."""
    return "".join(event_to_json(event) + "\n" for event in events)


def parse_ndjson(text: str) -> list[Event]:
    return [
        event_from_json(line)
        for line in text.splitlines()
        if line.strip()
    ]


# -- SSE -------------------------------------------------------------------

def render_sse(events: list[Event]) -> str:
    """The events as ``text/event-stream`` frames.

    Each frame carries the sequence as its ``id`` (what a real
    ``EventSource`` would hand back as ``Last-Event-ID``), the event
    type as the ``event`` field, and the full canonical JSON object as
    ``data`` — so an SSE consumer reconstructs the identical event the
    NDJSON consumer would.
    """
    frames = []
    for event in events:
        frames.append(
            f"id: {event.sequence}\n"
            f"event: {event.type}\n"
            f"data: {event_to_json(event)}\n"
            "\n"
        )
    return "".join(frames)


def parse_sse(text: str) -> list[Event]:
    """Parse ``text/event-stream`` frames back to the emitted events.

    Tolerates the parts of the SSE grammar we never emit but a proxy
    might inject: comment lines (``:``), ``retry:`` fields, and extra
    blank lines between frames.
    """
    events: list[Event] = []
    data_lines: list[str] = []
    for line in text.split("\n"):
        if line.startswith(":"):
            continue  # SSE comment / keep-alive
        if line == "":
            if data_lines:
                events.append(event_from_json("\n".join(data_lines)))
                data_lines = []
            continue
        field, _, value = line.partition(":")
        if field == "data":
            data_lines.append(value.removeprefix(" "))
    if data_lines:
        events.append(event_from_json("\n".join(data_lines)))
    return events


# -- the /ops endpoints ----------------------------------------------------

def ops_events_response(log: SequencedLog, request: Request) -> Response:
    """Serve one ``/ops/events`` request off the log.

    * ``…/events.ndjson`` → the full retained history as NDJSON.
    * ``…/events?stream=true[&after_sequence=N]`` → SSE frames for
      every retained event after ``N`` (default 0).  The in-process
      request/response model has no long-lived connection to hold open,
      so "live" means *the suffix available right now*; a client
      resumes by re-requesting with the last ``id`` it saw, and the
      gap-free sequence guarantees the reply is exactly what it missed.
    * ``…/events`` (no stream) → a JSON snapshot: log status plus the
      retained events.
    """
    if request.url.path.endswith(".ndjson"):
        return Response.binary(
            render_ndjson(log.retained()).encode("utf-8"),
            NDJSON_CONTENT_TYPE,
        )
    if request.params.get("stream") in ("true", "1"):
        try:
            events, truncated = log.events_after(
                int(request.params.get("after_sequence") or 0)
            )
        except ValueError:
            return Response.text(
                "after_sequence must be a non-negative integer", status=400
            )
        body = ""
        if truncated and events:
            # The client's offset predates retention: tell it so (an
            # SSE comment keeps the stream parseable) — it should
            # restart from 0 and accept the missing prefix.
            body += ": truncated — events before "
            body += f"{events[0].sequence} aged out of retention\n\n"
        elif truncated:
            # No log handed that offset out (this one began again at 1
            # since): the client must forget it and restart from 0.
            body += ": truncated — after_sequence is past the head "
            body += f"({log.head_seq}); restart from 0\n\n"
        body += render_sse(events)
        return Response.binary(body.encode("utf-8"), SSE_CONTENT_TYPE)
    snapshot = {
        "status": log.status(),
        "events": [
            json.loads(event_to_json(event)) for event in log.retained()
        ],
    }
    return Response.binary(
        json.dumps(snapshot, indent=2, sort_keys=True).encode("utf-8"),
        "application/json; charset=utf-8",
    )
