"""The flash-crowd comparison: one open-loop crowd, two targets.

The paper's Figure 7 protocol is closed-loop — a fixed client
population, next request when the last answer lands — which can never
overload the system faster than it answers.  Real flash crowds are
open-loop: arrivals keep coming whether or not the target is keeping
up.  This bench replays one seeded
:class:`repro.workload.arrivals.FlashCrowd` schedule
(:func:`~repro.workload.replay.flash_crowd_stream`) with
:func:`~repro.workload.replay.replay_open` against a baseline and a
candidate target, each one of the :data:`SIDES`:

* **inline** — the seed architecture: browser-marked requests render
  on the request thread, holding a slot of the semaphore-bounded
  :class:`~repro.browser.pool.BrowserPool`.  Under the burst the render
  backlog parks every worker thread, the admission queue fills, and
  arrivals bounce off admission control as 503s.
* **farm** — the same executor submits its renders to a
  :class:`~repro.renderfarm.RenderFarm` with a bounded wait; farm
  backpressure surfaces as a *degraded 200* (the ladder's stale rung),
  so worker threads stay free and admission stays open.
* **static** — a :class:`~repro.cluster.deployment.ClusterDeployment`
  of ``start_workers`` workers over a farm of ``start_consumers``; the
  starting size is all it ever has.
* **autoscaled** — the same fleet under an
  :class:`~repro.autoscale.Autoscaler`, free to grow to ``max_workers``
  / ``max_consumers`` while the crowd lasts and to drain back after it.

Two comparisons are gated, each at a seconds-scale shape:
:data:`BURST_SMOKE` (inline vs farm; ``tests/renderfarm/test_burst.py``,
``msite scalability --farm --smoke``) and :data:`AUTOSCALE_SMOKE`
(static vs autoscaled; ``tests/autoscale/test_flash_crowd.py``).  In
both the candidate serves **zero non-degraded 5xx** while the baseline
sheds under the identical schedule; the autoscaled fleet must also
scale and hold p99 inside ``p99_budget_ms``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from repro.autoscale import Autoscaler, AutoscalerConfig
from repro.browser.pool import BrowserPool
from repro.cluster.deployment import ClusterDeployment
from repro.core.cache import PrerenderCache
from repro.renderfarm import RenderFarm
from repro.runtime.executor import ConcurrentProxy
from repro.workload.replay import (
    RenderLedger,
    SyntheticRenderApp,
    farm_render,
    flash_crowd_stream,
    percentile,
    pool_render,
    replay_open,
)


@dataclass(frozen=True)
class CrowdConfig:
    """One seeded flash crowd and the two targets it is replayed
    against.  The defaults are :data:`BURST`."""

    #: Names the requests' host, the render farm and the fleet.
    site: str = "burst"
    #: (baseline, candidate), each a key of :data:`SIDES`.
    sides: tuple[str, str] = ("inline", "farm")
    browser_fraction: float = 0.3  # acceptance floor is >= 0.2
    base_rps: float = 40.0
    peak_rps: float = 400.0
    ramp_s: float = 1.0
    hold_s: float = 2.0
    duration_s: float = 5.0
    distinct_pages: int = 64
    # At the 400 rps peak, browser work arrives at 120 renders/s.  The
    # inline pool (2 slots x 0.02s) caps at 100/s — it must fall behind
    # — while the farm (4 consumers) caps at 200/s and keeps worker
    # threads free, so only the bounded render wait is ever spent on a
    # request thread.
    worker_threads: int = 8  # per executor, or per fleet worker
    queue_limit: int = 32
    pool_size: int = 2  # the inline side's browser slots
    start_consumers: int = 4
    farm_queue_limit: int = 16
    browser_service_s: float = 0.02
    lightweight_service_s: float = 0.0
    render_wait_s: float = 0.2
    # Fleet sides: both start at ``start_workers``; only the autoscaled
    # one may grow, up to the controller bounds.
    start_workers: int = 1
    max_workers: int = 4
    max_consumers: int = 4
    #: The budget the autoscaled side must hold p99 inside.
    p99_budget_ms: float = 1500.0
    seed: int = 0xB065_7

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


#: Burst absorption at full size (``msite scalability --farm``).
BURST = CrowdConfig()
#: A seconds-scale burst under which the inline side still sheds.
BURST_SMOKE = replace(
    BURST,
    base_rps=30.0,
    peak_rps=240.0,
    ramp_s=0.4,
    hold_s=0.8,
    duration_s=2.0,
    browser_service_s=0.04,
    distinct_pages=32,
)
#: Elastic against static fleet: one worker (two threads) and one render
#: consumer to start, a ramp to 300 rps.
AUTOSCALE = CrowdConfig(
    site="autoscale",
    sides=("static", "autoscaled"),
    base_rps=30.0,
    peak_rps=300.0,
    hold_s=1.5,
    duration_s=4.0,
    worker_threads=2,
    queue_limit=64,
    start_consumers=1,
    farm_queue_limit=64,
    lightweight_service_s=0.002,
    render_wait_s=0.05,
    seed=0xA5CA1E,
)
#: A seconds-scale crowd that still overflows the static fleet (at a
#: 200 rps peak it would not).
AUTOSCALE_SMOKE = replace(
    AUTOSCALE,
    base_rps=20.0,
    ramp_s=0.6,
    hold_s=1.0,
    duration_s=2.5,
    distinct_pages=32,
)


@dataclass
class CrowdRow:
    """What one open-loop replay against one side measured.  A field a
    side does not have keeps its default."""

    mode: str  # the side's key in SIDES
    offered: int
    completed_200: int
    degraded_200: int
    non_degraded_5xx: int
    renders: int
    p50_ms: float
    p99_ms: float
    # An executor's admission queue (inline, farm).
    queue_depth_peak: Optional[int] = None
    # The farm side's render queue.
    farm_coalesced: int = 0
    farm_saturation_refusals: int = 0
    farm_displaced: int = 0
    # A fleet's size and its controller (static, autoscaled).
    peak_workers: int = 0
    final_workers: int = 0
    peak_consumers: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    ops_events: int = 0


@dataclass
class Comparison:
    """A baseline and a candidate replayed under one config."""

    config: CrowdConfig
    baseline: CrowdRow
    candidate: CrowdRow


# ---------------------------------------------------------------------------
# The sides.  Each is a context manager over ``(config, ledger, row)``
# yielding ``(send, on_arrival)``; what it counts beyond the replay it
# writes into ``row`` before it closes.


@contextmanager
def _executor(config: CrowdConfig, render, row: dict):
    app = SyntheticRenderApp(
        render, config.browser_service_s, config.lightweight_service_s
    )
    with ConcurrentProxy(
        app, workers=config.worker_threads, queue_limit=config.queue_limit
    ) as executor:
        yield executor.handle, None
        row["queue_depth_peak"] = executor.stats.snapshot().queue_depth_peak


def _inline(config: CrowdConfig, ledger: RenderLedger, row: dict):
    pool = BrowserPool(max_instances=config.pool_size)
    return _executor(config, pool_render(pool, PrerenderCache(), ledger), row)


@contextmanager
def _farm(config: CrowdConfig, ledger: RenderLedger, row: dict):
    with RenderFarm(
        consumers=config.start_consumers,
        queue_limit=config.farm_queue_limit,
        name=config.site,
    ) as farm:
        render = farm_render(farm, config.site, config.render_wait_s, ledger)
        with _executor(config, render, row) as target:
            yield target
        row.update(
            farm_coalesced=farm.queue.coalesced,
            farm_saturation_refusals=farm.queue.refused,
            farm_displaced=farm.queue.displaced,
        )


@contextmanager
def _fleet(
    config: CrowdConfig, ledger: RenderLedger, row: dict, elastic: bool
):
    """Both fleets run the same app: renders go to the fleet's shared
    farm with a bounded wait and backpressure degrades to the stale
    rung, so the only 5xx either can produce is admission overflow."""
    with ClusterDeployment(
        origins={},
        workers=config.start_workers,
        worker_threads=config.worker_threads,
        queue_limit=config.queue_limit,
        site=config.site,
        make_app=lambda services: SyntheticRenderApp(
            farm_render(
                services.renderfarm, config.site, config.render_wait_s, ledger
            ),
            config.browser_service_s,
            config.lightweight_service_s,
        ),
        key_fn=lambda request: (
            f"{config.site}:{request.params.get('page', 'p0')}"
        ),
        farm_consumers=config.start_consumers,
        farm_queue_limit=config.farm_queue_limit,
    ) as cluster:
        row.update(
            peak_workers=cluster.fleet_size,
            peak_consumers=config.start_consumers,
        )
        if not elastic:
            yield cluster.handle, None
        else:
            scaler = Autoscaler(cluster, config=config.controller())

            def tick() -> None:
                scaler.maybe_tick()
                row["peak_workers"] = max(
                    row["peak_workers"], cluster.fleet_size
                )

            yield cluster.handle, tick
            # Let the controller see the calm after the crowd (and scale
            # back down) before the fleet closes.
            deadline = time.monotonic() + 3 * scaler.config.cooldown_down_s
            while (
                cluster.fleet_size > scaler.config.min_workers
                and time.monotonic() < deadline
            ):
                scaler.maybe_tick()
                time.sleep(scaler.config.interval_s)
            ups = [d for d in scaler.decisions if d.action == "up"]
            row.update(
                scale_ups=len(ups),
                scale_downs=len(scaler.decisions) - len(ups),
                peak_consumers=max(
                    [config.start_consumers]
                    + [
                        d.inputs.consumers + 1
                        for d in ups
                        if d.target == "consumers"
                    ]
                ),
            )
        row.update(
            final_workers=cluster.fleet_size, ops_events=cluster.ops.head_seq
        )


SIDES = {
    "inline": _inline,
    "farm": _farm,
    "static": partial(_fleet, elastic=False),
    "autoscaled": partial(_fleet, elastic=True),
}


def _measure(config: CrowdConfig, mode: str) -> CrowdRow:
    """Replay the seeded crowd open-loop against one side."""
    arrivals, requests = flash_crowd_stream(config, f"{config.site}.local")
    ledger = RenderLedger()
    row: dict = {}
    with SIDES[mode](config, ledger, row) as (send, on_arrival):
        replayed = replay_open(send, arrivals, requests, on_arrival)
    return CrowdRow(
        mode=mode,
        offered=replayed.offered,
        completed_200=replayed.statuses.get(200, 0),
        degraded_200=replayed.degraded,
        non_degraded_5xx=replayed.non_degraded_5xx,
        renders=ledger.renders,
        p50_ms=percentile(replayed.latencies, 0.50) * 1e3,
        p99_ms=percentile(replayed.latencies, 0.99) * 1e3,
        **row,
    )


def run_crowd_comparison(config: CrowdConfig = BURST) -> Comparison:
    """Replay the same flash crowd against both of ``config.sides``."""
    if config.browser_fraction < 0.2:
        raise ValueError(
            "the flash-crowd acceptance criterion requires a browser "
            "fraction >= 20%"
        )
    baseline, candidate = config.sides
    return Comparison(
        config=config,
        baseline=_measure(config, baseline),
        candidate=_measure(config, candidate),
    )


#: The line under the table for a side that counts more than the table.
_FOOTERS = {
    "farm": "farm coalesced {farm_coalesced}, refused "
    "{farm_saturation_refusals}, displaced {farm_displaced}",
    "static": "static fleet: workers peak {peak_workers} final "
    "{final_workers}",
    "autoscaled": "controller: {scale_ups} up / {scale_downs} down, "
    "workers peak {peak_workers} final {final_workers}, peak consumers "
    "{peak_consumers}, {ops_events} ops events",
}


def format_comparison(comparison: Comparison) -> str:
    config = comparison.config
    sides = (comparison.baseline, comparison.candidate)
    lines = [
        f"Flash crowd ({sides[0].mode} vs {sides[1].mode}, open loop): "
        f"{sides[0].offered} arrivals, "
        f"{config.base_rps:.0f}->{config.peak_rps:.0f} rps, "
        f"{config.browser_fraction * 100:.0f}% browser",
        f"{'mode':>10}  {'200s':>6}  {'degraded':>8}  {'5xx':>5}  "
        f"{'renders':>7}  {'p50 ms':>8}  {'p99 ms':>8}  {'peak q':>6}",
    ]
    for side in sides:
        queue = side.queue_depth_peak
        peak_queue = "-" if queue is None else queue
        lines.append(
            f"{side.mode:>10}  {side.completed_200:>6}  "
            f"{side.degraded_200:>8}  {side.non_degraded_5xx:>5}  "
            f"{side.renders:>7}  {side.p50_ms:>8.1f}  "
            f"{side.p99_ms:>8.1f}  {peak_queue:>6}"
        )
    lines += [
        _FOOTERS[side.mode].format(**vars(side))
        for side in sides
        if side.mode in _FOOTERS
    ]
    return "\n".join(lines)
