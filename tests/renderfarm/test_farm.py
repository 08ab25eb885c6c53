"""The threaded farm: coalescing, backpressure, dead letters, lifecycle."""

import threading

import pytest

from repro.errors import DeadLetterError, FarmSaturatedError, RenderError
from repro.renderfarm import (
    INTERACTIVE,
    RenderFarm,
    RenderKey,
    SPECULATIVE,
)


def test_cold_start_hammer_coalesces_to_one_render():
    """16 threads race one cold key: exactly one render happens and every
    waiter observes the identical bundle object.

    Deterministic by construction: the queue has **no live consumers**
    while the threads race, so no submission can complete before the
    others land — the coalescing window the old sleep-loop version
    only made probable is structural here.  A :class:`SimConsumer`
    then drains the queue with no threads at all.
    """
    from repro.renderfarm.queue import LaneQueue
    from repro.renderfarm.testing import SimConsumer
    from repro.sim.clock import Clock

    renders = []
    key = RenderKey("hammer", "/front", spec_fp="fp-1")

    def _render():
        bundle = {"html": "<p>front</p>", "render": len(renders)}
        renders.append(bundle)
        return bundle

    queue = LaneQueue(limit=32)
    jobs = [None] * 16

    def _submit(slot):
        jobs[slot] = queue.submit(key, _render, INTERACTIVE)

    threads = [
        threading.Thread(target=_submit, args=(slot,))
        for slot in range(16)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5.0)

    # All 16 submissions coalesced onto one queued job.
    assert queue.coalesced == 15
    assert queue.depth == 1
    assert all(job is jobs[0] for job in jobs)
    assert jobs[0].waiters == 16

    trace = SimConsumer(queue, Clock()).drain()
    assert len(trace) == 1
    assert trace.events[0].key == key
    assert trace.events[0].waiters == 16
    assert len(renders) == 1
    # Every waiter sees the identical bundle object off the shared
    # future — coalescing shares the render, not a copy of it.
    results = [job.future.result(timeout=0) for job in jobs]
    assert all(result is renders[0] for result in results)


def test_backpressure_surfaces_as_saturation_not_hang():
    """With consumers wedged and the queue full, a submission is refused
    immediately instead of parking the caller."""
    wedge = threading.Event()
    with RenderFarm(consumers=1, queue_limit=2) as farm:
        farm.submit(
            RenderKey("bp", "/wedge"), lambda: wedge.wait(5.0), INTERACTIVE
        )
        for _ in range(200):
            if farm.queue.running:
                break
            threading.Event().wait(0.005)
        farm.submit(RenderKey("bp", "/q1"), lambda: 1, INTERACTIVE)
        farm.submit(RenderKey("bp", "/q2"), lambda: 2, INTERACTIVE)
        with pytest.raises(FarmSaturatedError):
            farm.submit(RenderKey("bp", "/q3"), lambda: 3, INTERACTIVE)
        assert farm.queue.refused == 1
        wedge.set()


def test_hot_submission_displaces_cold_queued_work():
    wedge = threading.Event()
    with RenderFarm(consumers=1, queue_limit=1) as farm:
        farm.submit(
            RenderKey("dp", "/wedge"), lambda: wedge.wait(5.0), INTERACTIVE
        )
        for _ in range(200):
            if farm.queue.running:
                break
            threading.Event().wait(0.005)
        cold = farm.submit(RenderKey("dp", "/cold"), lambda: 0, SPECULATIVE)
        hot = farm.submit(RenderKey("dp", "/hot"), lambda: 1, INTERACTIVE)
        with pytest.raises(FarmSaturatedError):
            cold.future.result(timeout=1.0)
        wedge.set()
        assert hot.future.result(timeout=5.0) == 1
        assert farm.queue.displaced == 1


def test_poisonous_key_dead_letters_after_threshold():
    """Three consecutive failures quarantine the key; further submissions
    are refused with DeadLetterError, not retried into the hot lane."""
    key = RenderKey("dl", "/poison")

    def _boom():
        raise RenderError("render crashed")

    with RenderFarm(consumers=1, poison_threshold=3) as farm:
        for _ in range(3):
            with pytest.raises(RenderError):
                farm.render(key, _boom, wait_s=5.0)
        assert [letter.key for letter in farm.queue.dead_letters()] == [key]
        with pytest.raises(DeadLetterError):
            farm.submit(key, _boom, INTERACTIVE)
        # Healthy keys keep rendering while the poisonous one is parked.
        assert farm.render(
            RenderKey("dl", "/healthy"), lambda: "ok", wait_s=5.0
        ) == "ok"


def test_success_resets_the_failure_count():
    key = RenderKey("dl", "/flaky")
    attempts = []

    def _flaky():
        attempts.append(1)
        if len(attempts) % 2:
            raise RenderError("transient")
        return "ok"

    with RenderFarm(consumers=1, poison_threshold=3) as farm:
        for _ in range(3):
            with pytest.raises(RenderError):
                farm.render(key, _flaky, wait_s=5.0)
            assert farm.render(key, _flaky, wait_s=5.0) == "ok"
        assert not farm.queue.dead_letters()


def test_close_fails_queued_jobs_fast():
    wedge = threading.Event()
    farm = RenderFarm(consumers=1, queue_limit=8)
    farm.submit(
        RenderKey("cl", "/wedge"), lambda: wedge.wait(5.0), INTERACTIVE
    )
    for _ in range(200):
        if farm.queue.running:
            break
        threading.Event().wait(0.005)
    queued = farm.submit(RenderKey("cl", "/queued"), lambda: 1, INTERACTIVE)
    farm.queue.close()
    with pytest.raises(FarmSaturatedError):
        queued.future.result(timeout=1.0)
    wedge.set()
    farm.close()
    with pytest.raises(FarmSaturatedError):
        farm.submit(RenderKey("cl", "/late"), lambda: 2, INTERACTIVE)


def test_metrics_families_present():
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry()
    with RenderFarm(consumers=1, metrics=registry) as farm:
        farm.render(RenderKey("m", "/page"), lambda: "ok", wait_s=5.0)
    names = {family.name for family in registry.collect()}
    for expected in (
        "msite_renderfarm_submitted_total",
        "msite_renderfarm_completed_total",
        "msite_renderfarm_queue_depth",
        "msite_renderfarm_consumers",
        "msite_renderfarm_wait_seconds",
        "msite_renderfarm_render_seconds",
    ):
        assert expected in names


def test_crash_consumer_kills_exactly_one_consumer():
    """The chaos hook: the next dispatched job fails its waiters and
    takes its consumer down; surviving consumers keep draining."""
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry()
    farm = RenderFarm(consumers=2, metrics=registry)
    try:
        farm.crash_consumer()
        with pytest.raises(RenderError):
            farm.render(
                RenderKey("cr", "/victim"), lambda: "never", wait_s=5.0
            )
        # The survivor still renders.
        assert farm.render(
            RenderKey("cr", "/after"), lambda: "ok", wait_s=5.0
        ) == "ok"
        for _ in range(200):
            if farm.consumers_alive == 1:
                break
            threading.Event().wait(0.005)
        assert farm.consumers_alive == 1
    finally:
        farm.close()


def test_consumer_crash_exception_from_render_thunk():
    """A thunk raising ConsumerCrash (a browser process dying mid-render)
    fails the job and loses the consumer, like the injected crash."""
    from repro.renderfarm import ConsumerCrash

    farm = RenderFarm(consumers=2)
    try:
        def _die():
            raise ConsumerCrash("browser died")

        with pytest.raises(RenderError):
            farm.render(RenderKey("cr", "/die"), _die, wait_s=5.0)
        for _ in range(200):
            if farm.consumers_alive == 1:
                break
            threading.Event().wait(0.005)
        assert farm.consumers_alive == 1
        assert farm.render(
            RenderKey("cr", "/alive"), lambda: "ok", wait_s=5.0
        ) == "ok"
    finally:
        farm.close()


def test_render_deadline_surfaces_as_saturation():
    """A waiter whose deadline passes sees FarmSaturatedError — an
    overdue render and a refused one are the same event."""
    wedge = threading.Event()
    with RenderFarm(consumers=1) as farm:
        farm.submit(
            RenderKey("to", "/wedge"), lambda: wedge.wait(5.0), INTERACTIVE
        )
        with pytest.raises(FarmSaturatedError):
            farm.render(
                RenderKey("to", "/late"), lambda: "x", wait_s=0.05
            )
        wedge.set()


def test_status_reports_the_farm_shape():
    wedge = threading.Event()
    with RenderFarm(consumers=1, queue_limit=4) as farm:
        farm.submit(
            RenderKey("st", "/wedge"), lambda: wedge.wait(5.0), INTERACTIVE
        )
        for _ in range(200):
            if farm.queue.running:
                break
            threading.Event().wait(0.005)
        farm.submit(RenderKey("st", "/queued"), lambda: 1, SPECULATIVE)
        farm.queue.dead_letter(
            RenderKey("st", "/poison"), reason="3 failures", failures=3
        )
        status = farm.status()
        assert status["consumers_alive"] == 1
        assert status["queue_limit"] == 4
        assert status["lanes"][SPECULATIVE] == 1
        assert status["running"] == 1
        assert [entry["reason"] for entry in status["dead_letters"]] == [
            "3 failures"
        ]
        assert not farm.saturated
        wedge.set()


def test_revive_lifts_a_quarantine():
    with RenderFarm(consumers=1) as farm:
        key = RenderKey("rv", "/poison")
        farm.queue.dead_letter(key, reason="manual", failures=3)
        assert farm.queue.revive(key)
        assert not farm.queue.revive(key)
        assert farm.render(key, lambda: "ok", wait_s=5.0) == "ok"


def test_double_close_is_idempotent():
    farm = RenderFarm(consumers=1)
    farm.close()
    farm.close()
    assert farm.consumers_alive == 0


def test_late_submission_joins_an_in_flight_render():
    """Coalescing does not stop at dispatch: a submission arriving
    after a consumer popped the job still shares its future."""
    from repro.renderfarm.queue import LaneQueue

    queue = LaneQueue(limit=8)
    key = RenderKey("late", "/front")
    first = queue.submit(key, lambda: "bundle", INTERACTIVE)
    popped = queue.pop(timeout_s=0)
    assert popped is first
    late = queue.submit(key, lambda: "other", INTERACTIVE)
    assert late is first
    assert late.waiters == 2
    assert queue.coalesced == 1
    # And the queue is empty: the join did not re-queue the job.
    assert queue.depth == 0
    assert queue.pop(timeout_s=0.01) is None


def test_farm_counts_coalesces_and_promotions():
    """The farm-level metric branches: a join increments the coalesce
    counter (not a second submission), and a hotter re-submission of a
    queued key registers as a promotion."""
    release = threading.Event()
    with RenderFarm(consumers=1) as farm:
        # Wedge the only consumer so everything else stays queued.
        wedge = farm.submit(
            RenderKey("m", "/wedge"),
            lambda: release.wait(timeout=5.0),
            INTERACTIVE,
        )
        cold = farm.submit(RenderKey("m", "/a"), lambda: "a", SPECULATIVE)
        joined = farm.submit(RenderKey("m", "/a"), lambda: "a", SPECULATIVE)
        assert joined is cold
        promoted = farm.submit(
            RenderKey("m", "/a"), lambda: "a", INTERACTIVE
        )
        assert promoted is cold and cold.promoted
        release.set()
        assert wedge.future.result(timeout=5.0) is True
        assert cold.future.result(timeout=5.0) == "a"
        counters = {
            "coalesced": farm._coalesced.value,
            "promotions": farm._promotions.value,
        }
        assert counters == {"coalesced": 2, "promotions": 1}


def test_elastic_consumers_emit_lifecycle_events():
    """The autoscaler's levers: add_consumer starts a thread and lands
    a consumer_started event; retire_consumer shrinks capacity between
    jobs without failing anyone, landing consumer_retired."""
    from repro.ops import SequencedLog

    ops = SequencedLog("ops")
    with RenderFarm(consumers=1, ops=ops, name="elastic") as farm:
        started = farm.add_consumer()
        assert farm.consumers_alive == 2
        farm.retire_consumer()
        for _ in range(500):
            if farm.consumers_alive == 1:
                break
            threading.Event().wait(0.01)
        assert farm.consumers_alive == 1
        # Capacity still works after the retire.
        key = RenderKey("elastic", "/front")
        assert farm.render(key, lambda: "ok", wait_s=5.0) == "ok"
    events = [
        (event.type, event.payload.get("farm"))
        for event in ops.events_of("consumer_started", "consumer_retired")
    ]
    assert ("consumer_started", "elastic") in events
    assert ("consumer_retired", "elastic") in events
    assert any(started in (e.payload.get("consumer") or "")
               for e in ops.events_of("consumer_started"))


def test_farm_constructor_validates_its_knobs():
    from repro.renderfarm.queue import LaneQueue

    with pytest.raises(ValueError):
        RenderFarm(consumers=0)
    with pytest.raises(ValueError):
        RenderFarm(consumers=1, poison_threshold=0).close()
    with pytest.raises(ValueError):
        LaneQueue(limit=0)
