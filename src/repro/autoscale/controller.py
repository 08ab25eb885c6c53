"""The autoscaling control loop.

m.Site's adaptation cost is bursty — cold renders are orders of
magnitude dearer than warm fast-path hits — so a fleet sized for the
steady state rejects under a flash crowd and a fleet sized for the
crowd idles the rest of the day.  The :class:`Autoscaler` closes that
loop: on every tick it samples the fleet's own metrics registry (queue
depth, render-farm backlog and lane depths, breaker states, the
degraded-serve rate, and request p99), compares them against a target
band with **hysteresis** (scale up above the high water mark, down only
below the much lower low water mark), and moves the fleet one step at a
time within hard ``[min, max]`` bounds.

Discipline over reflexes:

* **Cooldowns** — after any action the controller holds still: a scale
  *up* needs ``cooldown_up_s`` since the last action, a scale *down*
  needs the (longer) ``cooldown_down_s``.  The asymmetry is deliberate:
  adding capacity under pressure should be fast, removing it should
  wait out the burst.  The property suite pins that an up and a down
  can never land within one cooldown window of each other.
* **Graceful drain** — scaling workers down never drops a request:
  the victim stops admission, the router remap spills its shards to
  the survivors (rendezvous hashing moves *only* its keys), in-flight
  work finishes, and only then does the worker detach.
* **Determinism** — all state lives in the controller and its inputs.
  The same config and the same metric trace produce the identical
  decision sequence, which is what makes the controller testable on
  the sim clock and the decision log trustworthy in production.

Every action is appended to the fleet's ops :class:`SequencedLog
<repro.ops.SequencedLog>` as a ``scale_decision`` event, so operators
(and the chaos suites) read the scaling history from ``/ops/events``
instead of inferring it from gauge wiggles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.ops import SCALE_DECISION, SequencedLog

#: Decision directions.
UP = "up"
DOWN = "down"
HOLD = "hold"

#: Scaling targets.
WORKERS = "workers"
CONSUMERS = "consumers"


@dataclass(frozen=True)
class AutoscalerConfig:
    """Target bands, bounds, and cadence for one control loop."""

    min_workers: int = 1
    max_workers: int = 4
    min_consumers: int = 1
    max_consumers: int = 8
    #: Minimum spacing between ticks (maybe_tick coalesces callers).
    interval_s: float = 0.25
    #: Queued requests per worker above which the fleet scales up, and
    #: below which (queue_low) it becomes a scale-down candidate.  The
    #: gap between the two is the hysteresis band.
    queue_high: float = 4.0
    queue_low: float = 0.5
    #: Render-farm backlog per consumer: same band shape.
    backlog_high: float = 4.0
    backlog_low: float = 0.5
    #: Request p99 budget; 0 disables the signal.
    p99_budget_s: float = 0.0
    #: Fraction of recent requests served degraded above which the
    #: fleet scales up.
    degraded_high: float = 0.25
    #: Fraction of workers whose render breaker is open.
    breaker_high: float = 0.5
    cooldown_up_s: float = 0.5
    cooldown_down_s: float = 3.0

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError("min_workers must be at least 1")
        if self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if self.min_consumers < 0:
            raise ValueError("min_consumers must be >= 0")
        if self.max_consumers < self.min_consumers:
            raise ValueError("max_consumers must be >= min_consumers")
        if self.queue_low > self.queue_high:
            raise ValueError("queue_low must be <= queue_high")
        if self.backlog_low > self.backlog_high:
            raise ValueError("backlog_low must be <= backlog_high")
        if self.cooldown_up_s < 0 or self.cooldown_down_s < 0:
            raise ValueError("cooldowns must be non-negative")


@dataclass(frozen=True)
class ControllerInputs:
    """One sample of everything the controller reads."""

    workers: int
    queue_depth: int
    consumers: int = 0
    farm_backlog: int = 0
    breakers_open: int = 0
    degraded_rate: float = 0.0
    p99_s: float = 0.0

    @property
    def queue_per_worker(self) -> float:
        return self.queue_depth / self.workers if self.workers else 0.0

    @property
    def backlog_per_consumer(self) -> float:
        if self.consumers <= 0:
            return float(self.farm_backlog)
        return self.farm_backlog / self.consumers

    @property
    def breaker_fraction(self) -> float:
        return self.breakers_open / self.workers if self.workers else 0.0


@dataclass(frozen=True)
class ScaleDecision:
    """One controller verdict (only non-hold ones are applied/logged)."""

    action: str  # up | down | hold
    target: str  # workers | consumers | ""
    reason: str
    at: float
    inputs: ControllerInputs


class Autoscaler:
    """Scale a :class:`ClusterDeployment` (and its render farm) to load.

    ``sampler`` is injectable — the property suite drives :meth:`tick`
    from synthetic :class:`ControllerInputs` traces without any fleet
    behind it (pass ``cluster=None``); the real deployment uses the
    default sampler over the fleet's registries.
    """

    def __init__(
        self,
        cluster: Optional[Any] = None,
        config: Optional[AutoscalerConfig] = None,
        clock: Optional[Any] = None,
        ops: Optional[SequencedLog] = None,
        sampler: Optional[Callable[[], ControllerInputs]] = None,
    ) -> None:
        if cluster is None and sampler is None:
            raise ValueError("need a cluster or an injected sampler")
        self.cluster = cluster
        self.farm = cluster.renderfarm if cluster is not None else None
        self.config = config or AutoscalerConfig()
        self.clock = clock
        if ops is not None:
            self.ops = ops
        elif cluster is not None:
            self.ops = cluster.ops
        else:
            self.ops = SequencedLog(name="ops", clock=clock)
        self._sampler = sampler or self._sample_cluster
        self._last_tick_at: Optional[float] = None
        self._last_action_at: Optional[float] = None
        self._prev_degraded = 0.0
        self._prev_requests = 0.0
        #: Applied (non-hold) decisions, in order.
        self.decisions: list[ScaleDecision] = []

    # -- time ------------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else time.monotonic()

    # -- sampling --------------------------------------------------------

    def _sample_cluster(self) -> ControllerInputs:
        cluster = self.cluster
        workers = cluster.workers
        queue_depth = sum(w.executor.queue_depth for w in workers)
        breakers_open = sum(1 for w in workers if w.render_breaker_open)
        # Degraded-serve rate over the window since the last sample:
        # both totals are cumulative, so the deltas give the recent mix.
        degraded = sum(
            w.registry.total("msite_degraded_serves_total") for w in workers
        )
        requests = cluster.registry.total("msite_cluster_requests_total")
        degraded_delta = degraded - self._prev_degraded
        requests_delta = requests - self._prev_requests
        self._prev_degraded = degraded
        self._prev_requests = requests
        degraded_rate = (
            degraded_delta / requests_delta if requests_delta > 0 else 0.0
        )
        p99_s = 0.0
        latency = cluster.registry.get("msite_cluster_request_seconds")
        if latency is not None and latency.count:
            p99_s = latency.quantile(0.99)
        consumers = 0
        farm_backlog = 0
        if self.farm is not None:
            consumers = self.farm.consumers_alive
            farm_backlog = self.farm.queue.depth
        return ControllerInputs(
            workers=cluster.fleet_size,
            queue_depth=queue_depth,
            consumers=consumers,
            farm_backlog=farm_backlog,
            breakers_open=breakers_open,
            degraded_rate=degraded_rate,
            p99_s=p99_s,
        )

    # -- the decision function (pure in inputs + controller state) -------

    def _cooldown_ok(self, direction: str, now: float) -> bool:
        if self._last_action_at is None:
            return True
        cooldown = (
            self.config.cooldown_up_s
            if direction == UP
            else self.config.cooldown_down_s
        )
        return now - self._last_action_at >= cooldown

    def decide(
        self, inputs: ControllerInputs, now: float
    ) -> ScaleDecision:
        """Map one sample to one decision.  Deterministic: the same
        inputs against the same controller state always produce the
        same verdict, so a replayed metric trace replays the exact
        decision sequence."""
        cfg = self.config

        up_reasons = []
        if inputs.queue_per_worker >= cfg.queue_high:
            up_reasons.append(
                f"queue {inputs.queue_per_worker:.1f}/worker"
            )
        if cfg.p99_budget_s and inputs.p99_s > cfg.p99_budget_s:
            up_reasons.append(f"p99 {inputs.p99_s * 1000:.0f}ms")
        if inputs.degraded_rate >= cfg.degraded_high:
            up_reasons.append(f"degraded {inputs.degraded_rate:.0%}")
        if inputs.workers and inputs.breaker_fraction >= cfg.breaker_high:
            up_reasons.append(
                f"breakers open on {inputs.breakers_open} workers"
            )
        farm_pressure = (
            self._farm_enabled(inputs)
            and inputs.backlog_per_consumer >= cfg.backlog_high
        )

        if up_reasons and self._cooldown_ok(UP, now):
            if inputs.workers < cfg.max_workers:
                return ScaleDecision(
                    UP, WORKERS, "; ".join(up_reasons), now, inputs
                )
        if farm_pressure and self._cooldown_ok(UP, now):
            if inputs.consumers < cfg.max_consumers:
                return ScaleDecision(
                    UP,
                    CONSUMERS,
                    f"farm backlog {inputs.backlog_per_consumer:.1f}"
                    "/consumer",
                    now,
                    inputs,
                )

        calm = (
            not up_reasons
            and inputs.queue_per_worker <= cfg.queue_low
        )
        if calm and self._cooldown_ok(DOWN, now):
            if inputs.workers > cfg.min_workers:
                return ScaleDecision(
                    DOWN,
                    WORKERS,
                    f"queue {inputs.queue_per_worker:.1f}/worker below "
                    f"{cfg.queue_low}",
                    now,
                    inputs,
                )
            farm_calm = (
                self._farm_enabled(inputs)
                and inputs.backlog_per_consumer <= cfg.backlog_low
                and inputs.consumers > cfg.min_consumers
            )
            if farm_calm:
                return ScaleDecision(
                    DOWN,
                    CONSUMERS,
                    f"farm backlog {inputs.backlog_per_consumer:.1f}"
                    f"/consumer below {cfg.backlog_low}",
                    now,
                    inputs,
                )
        return ScaleDecision(HOLD, "", "within band", now, inputs)

    def _farm_enabled(self, inputs: ControllerInputs) -> bool:
        return self.farm is not None or inputs.consumers > 0

    # -- actuation -------------------------------------------------------

    def _apply(self, decision: ScaleDecision) -> None:
        if self.cluster is None:
            return  # decide-only mode (property tests)
        if decision.target == WORKERS:
            if decision.action == UP:
                self.cluster.add_worker()
            else:
                # Drain the newest worker: LIFO keeps the long-lived
                # shard owners (and their warm memos) stable.
                victim = max(
                    self.cluster.router.worker_ids,
                    key=lambda wid: (len(wid), wid),
                )
                self.cluster.drain_worker(victim)
        elif decision.target == CONSUMERS and self.farm is not None:
            if decision.action == UP:
                self.farm.add_consumer()
            else:
                self.farm.retire_consumer()

    # -- the loop --------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> ScaleDecision:
        """Sample, decide, apply, log.  Returns the decision (possibly
        a hold)."""
        at = self._now() if now is None else now
        self._last_tick_at = at
        inputs = self._sampler()
        decision = self.decide(inputs, at)
        if decision.action != HOLD:
            self._apply(decision)
            self._last_action_at = at
            self.decisions.append(decision)
            self.ops.emit(
                SCALE_DECISION,
                action=decision.action,
                target=decision.target,
                reason=decision.reason,
                workers=inputs.workers,
                queue_depth=inputs.queue_depth,
                consumers=inputs.consumers,
                farm_backlog=inputs.farm_backlog,
                degraded_rate=round(inputs.degraded_rate, 4),
                p99_ms=round(inputs.p99_s * 1000, 3),
            )
        return decision

    def maybe_tick(self, now: Optional[float] = None):
        """Tick only if ``interval_s`` has passed since the last tick.

        The workload pacing loop calls this per request batch; the
        interval turns that into a steady control cadence.
        """
        at = self._now() if now is None else now
        if (
            self._last_tick_at is not None
            and at - self._last_tick_at < self.config.interval_s
        ):
            return None
        return self.tick(now=at)

    # -- introspection ---------------------------------------------------

    def status(self) -> dict:
        return {
            "decisions": len(self.decisions),
            "last_tick_at": self._last_tick_at,
            "last_action_at": self._last_action_at,
            "config": {
                "min_workers": self.config.min_workers,
                "max_workers": self.config.max_workers,
                "min_consumers": self.config.min_consumers,
                "max_consumers": self.config.max_consumers,
            },
        }
