"""Farm-fault chaos acceptance: degraded capacity, not degraded answers.

The farm loses a consumer mid-render a third of the way through the
run and keeps absorbing the same fault schedule with what's left.  The
acceptance bar: warm-cache requests still return **100% 200s** with the
farm degraded to one consumer — capacity loss surfaces as ladder
degradation and typed ``consumer_crashed`` events on the ops log,
never as user-visible errors.

These assertions read the ops event log, not ``Thread.is_alive()``:
the crash event is emitted synchronously by the dying consumer before
its thread exits, so the story is deterministic even while the OS is
still reaping the thread.
"""

from repro.ops import CONSUMER_CRASHED
from repro.resilience.chaos import run_chaos


def test_warm_cache_survives_farm_degraded_to_one_consumer():
    report = run_chaos(
        seed=7,
        requests=120,
        render_failure_rate=0.3,
        origin_failure_rate=0.1,
        garbage_rate=0.05,
        warm=True,
        farm_faults=True,
    )
    assert report.fired == [(40, "crash")]
    assert report.total == 120
    assert report.farm_consumers_started == 2
    # The injected crash actually happened and actually cost a
    # consumer: exactly one typed crash event, on the chaos farm, and
    # the crash counter agrees with the event log.
    crashes = [
        event for event in report.ops_events
        if event.type == CONSUMER_CRASHED
    ]
    assert len(crashes) == 1
    assert crashes[0].payload.get("farm") == "chaos"
    assert crashes[0].payload.get("consumer", "").startswith(
        "msite-render-chaos-"
    )
    assert report.farm_consumer_crashes == 1
    # And yet: every warm-cache request answered 200.
    assert report.statuses == {200: 120}, (
        f"farm degradation leaked errors: {report.statuses}"
    )
    assert report.internal_errors == 0


def test_farm_chaos_is_observable_end_to_end():
    report = run_chaos(
        seed=11,
        requests=60,
        render_failure_rate=0.3,
        origin_failure_rate=0.0,
        garbage_rate=0.0,
        warm=True,
        farm_faults=True,
    )
    assert report.internal_errors == 0
    # msite_renderfarm_* families made it onto the same exposition the
    # rest of the chaos story uses.
    assert report.metrics_exposition_lines > 100
    # The schedule forced renders (?refresh=1), so the farm did real
    # work before and after the crash — and the crash is on the log.
    crash_events = [
        event for event in report.ops_events
        if event.type == CONSUMER_CRASHED
    ]
    assert len(crash_events) == 1
    assert report.farm_consumer_crashes == 1
    # Crash events interleave with the rest in emission order: the
    # sequence numbering stays gap-free across sources.
    sequences = [event.sequence for event in report.ops_events]
    assert sequences == list(range(1, report.ops_event_count + 1))
