"""The autoscale flash-crowd bench: elastic fleet vs static fleet.

The last scaling question the repro answers with a number: does the
control loop actually buy anything?  This bench replays one seeded
:class:`~repro.workload.arrivals.FlashCrowd` schedule against two
:class:`ClusterDeployment <repro.cluster.deployment.ClusterDeployment>`
fleets built identically — **one worker, one render consumer** — except
that one of them runs an :class:`~repro.autoscale.Autoscaler`:

* **static** — the starting size is all it ever has.  Under the burst
  its admission queue fills and arrivals bounce off as 503s.
* **autoscaled** — the controller watches the same fleet's own metrics
  (queue depth, farm backlog, p99) and grows workers and render
  consumers inside its ``[min, max]`` bounds as pressure builds, then
  drains back down after the crowd passes.

Acceptance: the autoscaled fleet actually scales and holds p99 within
the scenario budget with **zero non-degraded 5xx**, while the static
fleet of the starting size rejects.  ``tests/autoscale/test_flash_crowd.py``
holds all four at :func:`smoke_config`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.autoscale import Autoscaler, AutoscalerConfig
from repro.cluster.deployment import ClusterDeployment
from repro.ops import SCALE_DECISION
from repro.workload.replay import (
    Comparison,
    RenderLedger,
    SyntheticRenderApp,
    farm_render,
    flash_crowd_stream,
    percentile,
    replay_open,
)


@dataclass
class AutoscaleBenchConfig:
    """One flash crowd against the static and the autoscaled fleet."""

    browser_fraction: float = 0.3
    base_rps: float = 30.0
    peak_rps: float = 300.0
    ramp_s: float = 1.0
    hold_s: float = 1.5
    duration_s: float = 4.0
    distinct_pages: int = 64
    # Fleet shape: both sides start here; only the autoscaled side may
    # grow, up to the controller bounds below.
    start_workers: int = 1
    worker_threads: int = 2
    queue_limit: int = 64
    max_workers: int = 4
    start_consumers: int = 1
    max_consumers: int = 4
    farm_queue_limit: int = 64
    browser_service_s: float = 0.02
    lightweight_service_s: float = 0.002
    render_wait_s: float = 0.05
    #: The scenario budget the autoscaled side must hold p99 inside.
    p99_budget_ms: float = 1500.0
    seed: int = 0xA5CA1E

    def controller(self) -> AutoscalerConfig:
        return AutoscalerConfig(
            min_workers=self.start_workers,
            max_workers=self.max_workers,
            min_consumers=self.start_consumers,
            max_consumers=self.max_consumers,
            interval_s=0.05,
            queue_high=2.0,
            queue_low=0.25,
            backlog_high=2.0,
            backlog_low=0.25,
            cooldown_up_s=0.1,
            cooldown_down_s=1.0,
        )


@dataclass
class AutoscaleResult:
    """What one open-loop replay against one fleet measured."""

    mode: str  # "static" | "autoscaled"
    offered: int
    completed_200: int
    degraded_200: int
    non_degraded_5xx: int
    p50_ms: float
    p99_ms: float
    max_ms: float
    wall_clock_s: float
    peak_workers: int
    final_workers: int
    peak_consumers: int
    scale_ups: int
    scale_downs: int
    ops_events: int


def _measure(config: AutoscaleBenchConfig, mode: str) -> AutoscaleResult:
    """Replay the seeded crowd open-loop against one fleet.

    Both fleets run the same synthetic app: browser-marked requests
    submit a fixed-cost render to the fleet's shared farm with a
    bounded wait, and farm backpressure degrades to the stale rung, so
    the only 5xx either fleet can produce is honest admission overflow
    — the signal the bench is about.
    """
    arrivals, requests = flash_crowd_stream(config, "autoscale.local")
    ledger = RenderLedger()
    with ClusterDeployment(
        origins={},
        workers=config.start_workers,
        worker_threads=config.worker_threads,
        queue_limit=config.queue_limit,
        site="autoscale-bench",
        make_app=lambda services: SyntheticRenderApp(
            farm_render(
                services.renderfarm,
                "autoscale",
                config.render_wait_s,
                ledger,
            ),
            config.browser_service_s,
            config.lightweight_service_s,
        ),
        key_fn=lambda request: (
            f"autoscale:{request.params.get('page', 'p0')}"
        ),
        farm_consumers=config.start_consumers,
        farm_queue_limit=config.farm_queue_limit,
    ) as cluster:
        scaler = (
            Autoscaler(cluster, config=config.controller())
            if mode == "autoscaled"
            else None
        )
        peak_workers = cluster.fleet_size

        def tick() -> None:
            nonlocal peak_workers
            scaler.maybe_tick()
            peak_workers = max(peak_workers, cluster.fleet_size)

        started = time.perf_counter()
        replayed = replay_open(
            cluster.handle, arrivals, requests, tick if scaler else None
        )
        # Let the controller see the calm after the crowd (and scale
        # back down) before the fleet closes.
        if scaler is not None:
            deadline = time.monotonic() + 3 * scaler.config.cooldown_down_s
            while (
                cluster.fleet_size > scaler.config.min_workers
                and time.monotonic() < deadline
            ):
                scaler.maybe_tick()
                time.sleep(scaler.config.interval_s)
        elapsed = time.perf_counter() - started

        decisions = scaler.decisions if scaler is not None else []
        peak_consumers = config.start_consumers
        for event in cluster.ops.events_of(SCALE_DECISION):
            if event.payload.get("target") == "consumers":
                if event.payload.get("action") == "up":
                    peak_consumers = max(
                        peak_consumers, event.payload.get("consumers", 0) + 1
                    )
        ops_events = cluster.ops.head_seq
        final_workers = cluster.fleet_size

    return AutoscaleResult(
        mode=mode,
        offered=replayed.offered,
        completed_200=replayed.statuses.get(200, 0),
        degraded_200=replayed.degraded,
        non_degraded_5xx=replayed.non_degraded_5xx,
        p50_ms=percentile(replayed.latencies, 0.50) * 1e3,
        p99_ms=percentile(replayed.latencies, 0.99) * 1e3,
        max_ms=percentile(replayed.latencies, 1.0) * 1e3,
        wall_clock_s=elapsed,
        peak_workers=peak_workers,
        final_workers=final_workers,
        peak_consumers=peak_consumers,
        scale_ups=sum(1 for d in decisions if d.action == "up"),
        scale_downs=sum(1 for d in decisions if d.action == "down"),
        ops_events=ops_events,
    )


def smoke_config() -> AutoscaleBenchConfig:
    """A seconds-scale config whose crowd still overflows the static
    fleet (at a 200 rps peak it would not)."""
    return AutoscaleBenchConfig(
        base_rps=20.0,
        peak_rps=300.0,
        ramp_s=0.6,
        hold_s=1.0,
        duration_s=2.5,
        distinct_pages=32,
    )


def run_autoscale_comparison(
    config: Optional[AutoscaleBenchConfig] = None,
) -> Comparison:
    """Replay the same flash crowd against both fleets (baseline:
    static; candidate: autoscaled)."""
    config = config or AutoscaleBenchConfig()
    return Comparison(
        config=config,
        baseline=_measure(config, "static"),
        candidate=_measure(config, "autoscaled"),
    )


def format_comparison(comparison: Comparison) -> str:
    config = comparison.config
    lines = [
        "Autoscale flash crowd (open loop): "
        f"{comparison.baseline.offered} arrivals, "
        f"{config.base_rps:.0f}->{config.peak_rps:.0f} rps, "
        f"start {config.start_workers}w/{config.start_consumers}c, "
        f"bounds [{config.start_workers}, {config.max_workers}]w",
        f"{'mode':>11}  {'200s':>6}  {'degraded':>8}  {'5xx':>5}  "
        f"{'p50 ms':>8}  {'p99 ms':>8}  {'peak w':>6}  {'final w':>7}",
    ]
    for result in (comparison.baseline, comparison.candidate):
        lines.append(
            f"{result.mode:>11}  {result.completed_200:>6}  "
            f"{result.degraded_200:>8}  {result.non_degraded_5xx:>5}  "
            f"{result.p50_ms:>8.1f}  {result.p99_ms:>8.1f}  "
            f"{result.peak_workers:>6}  {result.final_workers:>7}"
        )
    auto = comparison.candidate
    lines.append(
        f"controller: {auto.scale_ups} up / {auto.scale_downs} down, "
        f"peak consumers {auto.peak_consumers}, "
        f"{auto.ops_events} ops events"
    )
    return "\n".join(lines)
