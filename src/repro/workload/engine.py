"""The scenario engine: replay a compiled trace against a real fleet.

The engine is sim-clock-driven for *scenario time* and wall-clock-honest
for *service time*: each planned arrival advances the deployment's
simulated clock to its offset (so cache TTLs, session expiry, and
invalidation timing follow the scenario's day), while per-request
latency and throughput are measured on the real thread pool with
``time.perf_counter`` — the same split the Figure 7 wall-clock mode
uses.

A request is counted as a *non-degraded 5xx* when its status is >= 500
and the response carries no ``X-MSite-Degraded`` marker: honest
degradation under injected faults is acceptable, a bare server error at
warm cache is not.  ``tests/workload/test_engine.py`` holds that count
at zero for the smoke variants of the named scenarios.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.deployment import ClusterDeployment
from repro.core.spec import AdaptationSpec
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.sim.clock import Clock
from repro.workload.population import DEVICE_AGENTS
from repro.workload.replay import percentile, replay_closed
from repro.workload.reporting import format_table
from repro.workload.scenarios import PlannedRequest, Scenario, get_scenario

FORUM_HOST = "www.sawmillcreek.org"
PROXY_HOST = "m.workload.example"


@dataclass
class ScenarioReport:
    """What one scenario run measured."""

    scenario: str
    site: str
    seed: int
    workers: int
    requests: int
    completed: int
    wall_clock_s: float
    sim_duration_s: float
    throughput_rps: float
    p50_ms: float
    p99_ms: float
    error_rate: float
    errors_5xx: int
    non_degraded_5xx: int
    degraded: int
    statuses: dict[int, int] = field(default_factory=dict)
    fingerprint: str = ""
    autoscaled: bool = False
    peak_workers: int = 0
    final_workers: int = 0
    scale_ups: int = 0
    scale_downs: int = 0


def build_scenario_spec(scenario: Scenario) -> AdaptationSpec:
    """The adaptation spec a scenario's site family runs under."""
    if scenario.site == "forum":
        from repro.sites.forum.spec import standard_forum_spec

        spec = standard_forum_spec(FORUM_HOST)
        spec.add("ajax_rewrite")
        # The forum surface includes an AJAX nav pane (?page=nav).
        from repro.core.spec import ObjectSelector

        spec.add(
            "ajax_subpage", ObjectSelector.css("#navlinks"),
            subpage_id="nav", title="Navigation",
        )
        return spec
    if scenario.site == "news":
        if scenario.mutate_fraction > 0:
            # Churn scenarios exercise the delta fast path, which only
            # engages for storable bundles — the fastpath variant drops
            # the AJAX rewrite that excludes a page from the cache.
            from repro.sites.news.spec import news_fastpath_spec

            return news_fastpath_spec()
        from repro.sites.news.spec import news_section_spec

        return news_section_spec()
    raise ValueError(f"scenario site {scenario.site!r} has no spec builder")


def build_scenario_origins(scenario: Scenario) -> dict:
    """Fresh origin applications for one scenario run."""
    if scenario.site == "forum":
        from repro.sites.forum.app import ForumApplication

        return {FORUM_HOST: ForumApplication()}
    if scenario.site == "news":
        from repro.sites.news.app import NewsApplication
        from repro.sites.news.spec import NEWS_HOST

        return {NEWS_HOST: NewsApplication()}
    raise ValueError(f"scenario site {scenario.site!r} has no origins")


def build_scenario_mutator(scenario: Scenario, origins: dict):
    """The origin-revision hook for churn scenarios, or ``None``.

    Called once per planned request flagged ``mutate=True``, before the
    request is issued.  Revisions are internally serialized and pure in
    (seed, revision index), so the trace stays reproducible even though
    client threads race to the next edit.
    """
    if scenario.mutate_fraction <= 0:
        return None
    if scenario.site == "news":
        from repro.sites.news.spec import NEWS_HOST

        newsroom = origins[NEWS_HOST].newsroom
        return lambda: newsroom.revise()
    raise ValueError(
        f"scenario site {scenario.site!r} has no origin mutator"
    )


class _SimClockPacer:
    """Advance the shared simulated clock monotonically to arrivals."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._lock = threading.Lock()

    def advance_to(self, at_s: Optional[float]) -> None:
        if at_s is None:
            return
        with self._lock:
            if at_s > self.clock.now:
                self.clock.advance_to(at_s)


def run_scenario(
    name_or_scenario,
    workers: Optional[int] = None,
    seed: Optional[int] = None,
    smoke: bool = False,
    client_threads: int = 8,
    origins: Optional[dict] = None,
    spec: Optional[AdaptationSpec] = None,
    autoscale: bool = False,
    min_workers: int = 1,
) -> ScenarioReport:
    """Compile the scenario's trace and replay it against a fleet.

    The run starts from a warm cache: every surface path is visited
    once per device class before the measured replay, so the report
    reflects steady-state behaviour (the tier-1 gate's "zero
    non-degraded 5xx at warm cache" criterion).

    With ``autoscale=True`` the fleet starts at ``min_workers`` and the
    controller may grow it up to ``workers`` (the configured size acts
    as the ceiling); scale decisions are paced on the scenario's
    simulated clock so the decision trace is a function of the seed.
    """
    scenario = (
        name_or_scenario
        if isinstance(name_or_scenario, Scenario)
        else get_scenario(name_or_scenario, smoke=smoke)
    )
    fleet = workers if workers is not None else scenario.default_workers
    trace = scenario.build_trace(seed=seed)
    spec = spec or build_scenario_spec(scenario)
    origins = origins or build_scenario_origins(scenario)
    mutator = build_scenario_mutator(scenario, origins)

    clock = Clock()
    pacer = _SimClockPacer(clock)

    start_workers = min(min_workers, fleet) if autoscale else fleet
    with ClusterDeployment(
        spec=spec,
        origins=origins,
        workers=start_workers,
        clock=clock,
        site=scenario.name,
    ) as cluster:
        scaler = None
        scaler_lock = threading.Lock()
        peak_workers = [cluster.fleet_size]
        if autoscale:
            from repro.autoscale import Autoscaler, AutoscalerConfig

            scaler = Autoscaler(
                cluster,
                config=AutoscalerConfig(
                    min_workers=start_workers,
                    max_workers=max(fleet, start_workers),
                    max_consumers=4,
                ),
                clock=clock,
            )

        def _maybe_scale() -> None:
            # Client threads race to the controller; the lock keeps the
            # sample/decide/apply sequence atomic per tick.
            if scaler is None:
                return
            with scaler_lock:
                scaler.maybe_tick()
                peak_workers[0] = max(peak_workers[0], cluster.fleet_size)

        sessions: dict[str, tuple[HttpClient, threading.Lock]] = {}
        sessions_lock = threading.Lock()

        def _new_client() -> tuple[HttpClient, threading.Lock]:
            return (
                HttpClient(
                    {PROXY_HOST: cluster}, jar=CookieJar(), clock=clock
                ),
                threading.Lock(),
            )

        def _session_client(key: str) -> tuple[HttpClient, threading.Lock]:
            if not key:  # cookie-less bot: fresh jar every hit
                return _new_client()
            with sessions_lock:
                if key not in sessions:
                    sessions[key] = _new_client()
                return sessions[key]

        def _issue(planned: PlannedRequest, measured: bool = True):
            if planned.mutate and mutator is not None:
                mutator()
            client, lock = _session_client(planned.session)
            pacer.advance_to(planned.at_s)
            if measured:
                _maybe_scale()
            url = f"http://{PROXY_HOST}/{planned.path}"
            with lock:
                # The wait for a session's previous answer is the
                # replay's doing, not the fleet's: time from here.
                sent_at = time.perf_counter()
                return client.get(url, User_Agent=planned.user_agent), sent_at

        # -- warm-up: one pass over the surface per device class --------
        for device, user_agent in DEVICE_AGENTS.items():
            for path in scenario.surface:
                _issue(
                    PlannedRequest(
                        index=-1,
                        at_s=None,
                        path=path,
                        device=device,
                        user_agent=user_agent,
                        session=f"warmup-{device}",
                    ),
                    measured=False,
                )

        # -- measured replay --------------------------------------------
        replayed = replay_closed(_issue, trace, client_threads)
        final_workers = cluster.fleet_size
        scale_ups = scale_downs = 0
        if scaler is not None:
            scale_ups = sum(1 for d in scaler.decisions if d.action == "up")
            scale_downs = sum(
                1 for d in scaler.decisions if d.action == "down"
            )

    completed = len(replayed.latencies)
    wall_clock = replayed.wall_clock_s
    return ScenarioReport(
        scenario=scenario.name,
        site=scenario.site,
        seed=seed if seed is not None else scenario.seed,
        workers=fleet,
        requests=len(trace),
        completed=completed,
        wall_clock_s=wall_clock,
        sim_duration_s=clock.now,
        throughput_rps=completed / wall_clock if wall_clock > 0 else 0.0,
        p50_ms=percentile(replayed.latencies, 0.50) * 1e3,
        p99_ms=percentile(replayed.latencies, 0.99) * 1e3,
        error_rate=replayed.errors_5xx / completed if completed else 0.0,
        errors_5xx=replayed.errors_5xx,
        non_degraded_5xx=replayed.non_degraded_5xx,
        degraded=replayed.degraded,
        statuses=replayed.statuses,
        fingerprint=scenario.fingerprint(fleet),
        autoscaled=autoscale,
        peak_workers=peak_workers[0] if autoscale else fleet,
        final_workers=final_workers if autoscale else fleet,
        scale_ups=scale_ups,
        scale_downs=scale_downs,
    )


def format_report(report: ScenarioReport) -> str:
    """Human-readable scenario summary for the CLI."""
    rows = [
        ["scenario", report.scenario],
        ["fingerprint", report.fingerprint],
        ["site", report.site],
        ["workers", str(report.workers)],
        ["requests", str(report.requests)],
        ["completed", str(report.completed)],
        ["sim duration", f"{report.sim_duration_s:.1f}s"],
        ["wall clock", f"{report.wall_clock_s:.2f}s"],
        ["throughput", f"{report.throughput_rps:,.1f} req/s"],
        ["p50", f"{report.p50_ms:.2f} ms"],
        ["p99", f"{report.p99_ms:.2f} ms"],
        ["error rate", f"{report.error_rate:.2%}"],
        ["degraded", str(report.degraded)],
        ["non-degraded 5xx", str(report.non_degraded_5xx)],
    ]
    if report.autoscaled:
        rows.extend(
            [
                ["peak workers", str(report.peak_workers)],
                ["final workers", str(report.final_workers)],
                [
                    "scale actions",
                    f"{report.scale_ups} up / {report.scale_downs} down",
                ],
            ]
        )
    return format_table(["metric", "value"], rows)
