"""Golden-file pinning of the exposition formats.

Both outputs are fully deterministic — sorted families, sorted label
sets, sorted JSON keys, no timestamps (trace times come from a fake
clock) — so these tests compare byte-for-byte against checked-in
goldens.  Regenerate with ``UPDATE_GOLDENS=1 pytest tests/observability``
after an intentional format change.
"""

import os

import pytest

from repro.net.messages import Request
from repro.observability.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus,
    render_prometheus,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Trace, TraceRecorder
from repro.ops.surface import operator_response

from tests.observability.test_tracing import FakeClock

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def build_golden_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter(
        "msite_cache_hits_total", "Cache lookups served from a fresh entry."
    ).inc(3)
    registry.counter(
        "msite_proxy_requests_total",
        "Requests handled by the generated proxy.",
        labels={"page": "forum"},
    ).inc(7)
    registry.counter(
        "msite_proxy_requests_total", labels={"page": "classifieds"}
    ).inc(2)
    registry.gauge(
        "msite_executor_queue_depth_peak",
        "High watermark of the admission queue depth.",
    ).track_max(4)
    histogram = registry.histogram(
        "msite_request_duration_seconds",
        "End-to-end proxy request time.",
        buckets=(0.1, 1.0, 10.0),
    )
    for value in (0.05, 0.5, 0.5, 5.0, 20.0):
        histogram.observe(value)
    return registry


def build_golden_recorder() -> TraceRecorder:
    recorder = TraceRecorder(capacity=4, slow_threshold_s=2.0)

    fast_clock = FakeClock(step=0.25)
    fast = Trace("entry", clock=fast_clock)
    with fast.span("session"):
        pass
    with fast.span("detect"):
        pass
    with fast.span("adapt"):
        pass
    recorder.record(fast)

    slow_clock = FakeClock(step=0.5)
    slow = Trace("entry", clock=slow_clock)
    with slow.span("render"):
        with slow.span("cache"):
            pass
    try:
        with slow.span("serialize"):
            raise ValueError("disk full")
    except ValueError:
        pass
    recorder.record(slow)
    return recorder


def _check_golden(name: str, produced: str) -> None:
    path = os.path.join(GOLDEN_DIR, name)
    if os.environ.get("UPDATE_GOLDENS"):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(produced)
    with open(path, "r", encoding="utf-8") as handle:
        expected = handle.read()
    assert produced == expected


class TestPrometheusGolden:
    def test_exposition_matches_golden(self):
        produced = render_prometheus(build_golden_registry())
        _check_golden("exposition.prom", produced)

    def test_exposition_is_stable_across_renders(self):
        registry = build_golden_registry()
        assert render_prometheus(registry) == render_prometheus(registry)

    def test_exposition_round_trips_through_parser(self):
        text = render_prometheus(build_golden_registry())
        samples = parse_prometheus(text)
        assert samples["msite_cache_hits_total"] == 3
        assert samples['msite_proxy_requests_total{page="forum"}'] == 7
        assert samples["msite_executor_queue_depth_peak"] == 4
        assert samples["msite_request_duration_seconds_count"] == 5
        assert samples["msite_request_duration_seconds_sum"] == 26.05
        # Cumulative le buckets terminate at +Inf == count.
        assert (
            samples['msite_request_duration_seconds_bucket{le="+Inf"}'] == 5
        )
        assert (
            samples['msite_request_duration_seconds_bucket{le="1"}'] == 3
        )

    def test_parser_rejects_duplicates(self):
        with pytest.raises(ValueError):
            parse_prometheus("a_total 1\na_total 2\n")


class TestTraceDumpGolden:
    def test_trace_dump_matches_golden(self):
        produced = build_golden_recorder().dump_json() + "\n"
        _check_golden("trace.json", produced)

    def test_dump_is_stable_across_calls(self):
        recorder = build_golden_recorder()
        assert recorder.dump_json() == recorder.dump_json()

    def test_slow_trace_is_captured_in_both_sections(self):
        dump = build_golden_recorder().dump()
        assert len(dump["recent"]) == 2
        assert len(dump["slow"]) == 1
        assert dump["slow"][0]["status"] == "error"
        names = [s["name"] for s in dump["slow"][0]["spans"]]
        assert names == ["render", "cache", "serialize"]


class TestOperatorSurface:
    def test_surface_serves_metrics_and_traces(self):
        registry = build_golden_registry()
        recorder = build_golden_recorder()

        def handle(request):
            return operator_response(request, registry, recorder)

        metrics = handle(Request.get("http://host/metrics"))
        assert metrics.status == 200
        assert metrics.headers.get("Content-Type") == (
            PROMETHEUS_CONTENT_TYPE
        )
        assert parse_prometheus(metrics.text_body)[
            "msite_cache_hits_total"
        ] == 3

        traces = handle(Request.get("http://host/traces"))
        assert traces.status == 200
        assert b'"slow_threshold_s": 2.0' in traces.body
