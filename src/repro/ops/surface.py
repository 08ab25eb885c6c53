"""The operator surface: one function answers every deployment shape.

``/metrics``, ``/traces``, ``/ops/events`` and the status page of the
proxy, ``ProxyDeployment``, the cluster and the regional deployment;
docs/OBSERVABILITY.md, "Exposition", has the table of who serves what.
"""

from __future__ import annotations

import json
from typing import Callable, Optional, Union

from repro.net.messages import Request, Response
from repro.observability.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceRecorder
from repro.ops.events import SequencedLog
from repro.ops.stream import ops_events_response

#: The exact operator paths; ``metrics/<member>`` is the one prefix.
_PATHS = frozenset({
    "metrics", "traces", "ops/events", "ops/events.ndjson", "cluster",
    "regions",
})


def operator_response(
    request: Request,
    metrics: Union[MetricsRegistry, Callable[[], MetricsRegistry]],
    traces: TraceRecorder,
    *,
    member: Optional[Callable[[str], MetricsRegistry]] = None,
    ops: Optional[SequencedLog] = None,
    status: Optional[tuple[str, Callable[[], dict]]] = None,
) -> Optional[Response]:
    """The response to an operator request, ``None`` to any other.

    An endpoint whose piece the shape does not hand in is not served.
    ``metrics`` may be a callable building a rollup per scrape;
    ``member(name)`` raises ``LookupError(<404 text>)`` for a name the
    shape lacks; ``status`` is ``(path, document)``.  This runs before
    every request: any other costs one normalisation and one lookup.
    """
    path = request.url.path.strip("/")
    if path not in _PATHS:
        if member is None or not path.startswith("metrics/"):
            return None
        try:
            registry = member(path.removeprefix("metrics/"))
        except LookupError as missing:
            return Response.not_found(missing.args[0])
    elif path == "metrics":
        registry = metrics() if callable(metrics) else metrics
    elif path == "traces":
        return _json(traces.dump_json())
    elif path.startswith("ops/"):
        return None if ops is None else ops_events_response(ops, request)
    elif status is not None and path == status[0]:
        return _json(json.dumps(status[1](), indent=2, sort_keys=True))
    else:
        return None
    return Response.binary(
        render_prometheus(registry).encode("utf-8"), PROMETHEUS_CONTENT_TYPE
    )


def _json(text: str) -> Response:
    return Response.binary(
        text.encode("utf-8"), "application/json; charset=utf-8"
    )
