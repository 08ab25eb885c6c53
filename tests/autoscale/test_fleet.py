"""The controller against a real fleet: sampling, actuation, cadence.

The property suite proves the decision function; this file proves the
plumbing around it — the default sampler reads the live registries, an
applied decision actually changes fleet membership and farm capacity,
and ``maybe_tick`` turns per-request calls into a steady cadence.
"""

import pytest

from repro.autoscale import (
    CONSUMERS,
    DOWN,
    HOLD,
    UP,
    WORKERS,
    Autoscaler,
    AutoscalerConfig,
    ControllerInputs,
    ScaleDecision,
)
from repro.cluster import ClusterDeployment
from repro.net.messages import Request, Response
from repro.ops import SequencedLog
from repro.sim.clock import Clock


class EchoApp:
    def __init__(self, services):
        self.services = services

    def forget_adapted(self):
        pass

    def handle(self, request):
        return Response.text("ok")


ELASTIC = AutoscalerConfig(
    min_workers=1,
    max_workers=3,
    min_consumers=1,
    max_consumers=3,
    interval_s=0.0,
    cooldown_up_s=0.0,
    cooldown_down_s=0.0,
)


def _forced(queue_depth, workers=1, consumers=1, backlog=0):
    return lambda: ControllerInputs(
        workers=workers,
        queue_depth=queue_depth,
        consumers=consumers,
        farm_backlog=backlog,
    )


def test_applied_decisions_change_real_fleet_membership():
    with ClusterDeployment(
        origins={}, workers=1, site="echo", make_app=EchoApp,
        farm_consumers=1,
    ) as cluster:
        clock = Clock()
        scaler = Autoscaler(
            cluster, config=ELASTIC, clock=clock,
            sampler=_forced(
                queue_depth=100, workers=cluster.fleet_size
            ),
        )
        assert scaler.ops is cluster.ops  # fleet log, not a private one

        decision = scaler.tick()
        assert (decision.action, decision.target) == (UP, WORKERS)
        assert cluster.fleet_size == 2

        # Scale back down: the newest worker drains, the shard owners
        # that were there first keep their warm state.
        survivors_before = set(cluster.worker_ids)
        newest = max(cluster.worker_ids, key=lambda w: (len(w), w))
        scaler._sampler = _forced(queue_depth=0, workers=2)
        clock.advance(1.0)
        decision = scaler.tick()
        assert (decision.action, decision.target) == (DOWN, WORKERS)
        assert cluster.fleet_size == 1
        assert set(cluster.worker_ids) == survivors_before - {newest}


def test_applied_decisions_scale_farm_consumers():
    with ClusterDeployment(
        origins={}, workers=1, site="echo", make_app=EchoApp,
        farm_consumers=1,
    ) as cluster:
        clock = Clock()
        scaler = Autoscaler(
            cluster, config=ELASTIC, clock=clock,
            sampler=_forced(queue_depth=0, consumers=1, backlog=100),
        )
        decision = scaler.tick()
        assert (decision.action, decision.target) == (UP, CONSUMERS)
        assert cluster.renderfarm.consumers_alive == 2

        scaler._sampler = _forced(queue_depth=0, consumers=2, backlog=0)
        clock.advance(1.0)
        decision = scaler.tick()
        assert (decision.action, decision.target) == (DOWN, CONSUMERS)
        # Retire is honoured between jobs; the request is already in.
        for _ in range(500):
            if cluster.renderfarm.consumers_alive == 1:
                break
            import threading
            threading.Event().wait(0.01)
        assert cluster.renderfarm.consumers_alive == 1


def test_default_sampler_reads_the_live_registries():
    with ClusterDeployment(
        origins={}, workers=2, site="echo", make_app=EchoApp,
        farm_consumers=1,
    ) as cluster:
        for i in range(10):
            response = cluster.handle(
                Request.get(f"http://echo.local/?page=p{i}")
            )
            assert response.status == 200

        scaler = Autoscaler(cluster, config=ELASTIC, clock=Clock())
        inputs = scaler._sample_cluster()
        assert inputs.workers == 2
        assert inputs.queue_depth == 0  # nothing in flight
        assert inputs.consumers == 1
        assert inputs.farm_backlog == 0
        assert inputs.breakers_open == 0
        assert inputs.degraded_rate == 0.0
        assert inputs.p99_s > 0.0  # the latency histogram is live

        # The degraded-rate window is a delta: a second sample over a
        # quiet window reads 0, not the cumulative ratio.
        again = scaler._sample_cluster()
        assert again.degraded_rate == 0.0


def test_tick_without_an_explicit_now_uses_the_clock():
    clock = Clock()
    scaler = Autoscaler(
        config=ELASTIC, clock=clock, sampler=_forced(queue_depth=0)
    )
    decision = scaler.tick()
    assert decision.at == clock.now
    clock.advance(2.5)
    assert scaler.tick().at == clock.now


def test_maybe_tick_enforces_the_control_cadence():
    clock = Clock()
    config = AutoscalerConfig(
        min_workers=1, max_workers=3, interval_s=1.0,
        cooldown_up_s=0.0, cooldown_down_s=0.0,
    )
    scaler = Autoscaler(
        config=config, clock=clock, sampler=_forced(queue_depth=0)
    )
    first = scaler.maybe_tick()
    assert isinstance(first, ScaleDecision)
    clock.advance(0.5)
    assert scaler.maybe_tick() is None  # inside the interval
    clock.advance(0.5)
    assert isinstance(scaler.maybe_tick(), ScaleDecision)


def test_explicit_ops_log_wins_over_the_cluster_log():
    private = SequencedLog("ops")
    with ClusterDeployment(
        origins={}, workers=1, site="echo", make_app=EchoApp
    ) as cluster:
        scaler = Autoscaler(cluster, config=ELASTIC, ops=private)
        assert scaler.ops is private


def test_status_summarises_the_controller():
    clock = Clock()
    scaler = Autoscaler(
        config=ELASTIC, clock=clock, sampler=_forced(queue_depth=100)
    )
    scaler.tick()
    status = scaler.status()
    assert status["decisions"] == 1
    assert status["last_tick_at"] == status["last_action_at"] == 0.0
    assert status["config"]["max_workers"] == ELASTIC.max_workers
    assert status["config"]["min_consumers"] == ELASTIC.min_consumers


def test_every_pressure_signal_can_trigger_a_scale_up():
    config = AutoscalerConfig(
        min_workers=1, max_workers=4, p99_budget_s=0.2,
        cooldown_up_s=0.0, cooldown_down_s=0.0,
    )
    scaler = Autoscaler(config=config, sampler=_forced(queue_depth=0))
    cases = {
        "p99": ControllerInputs(workers=1, queue_depth=0, p99_s=0.5),
        "degraded": ControllerInputs(
            workers=1, queue_depth=0, degraded_rate=0.5
        ),
        "breakers": ControllerInputs(
            workers=2, queue_depth=0, breakers_open=2
        ),
    }
    for name, inputs in cases.items():
        decision = scaler.decide(inputs, now=0.0)
        assert decision.action == UP, name
        assert decision.target == WORKERS, name
        assert name.rstrip("s") in decision.reason or name in decision.reason


def test_calm_farm_scales_consumers_down_after_workers_hit_the_floor():
    scaler = Autoscaler(config=ELASTIC, sampler=_forced(queue_depth=0))
    calm = ControllerInputs(
        workers=1, queue_depth=0, consumers=3, farm_backlog=0
    )
    decision = scaler.decide(calm, now=0.0)
    assert (decision.action, decision.target) == (DOWN, CONSUMERS)
    at_floor = ControllerInputs(
        workers=1, queue_depth=0, consumers=1, farm_backlog=0
    )
    assert scaler.decide(at_floor, now=0.0).action == HOLD


def test_backlog_per_consumer_with_no_consumers_is_the_raw_backlog():
    inputs = ControllerInputs(
        workers=1, queue_depth=0, consumers=0, farm_backlog=7
    )
    assert inputs.backlog_per_consumer == 7.0


def test_consumer_band_validation():
    with pytest.raises(ValueError):
        AutoscalerConfig(min_consumers=-1)
    with pytest.raises(ValueError):
        AutoscalerConfig(min_consumers=3, max_consumers=2)
    with pytest.raises(ValueError):
        AutoscalerConfig(backlog_low=9.0, backlog_high=1.0)
