"""The chaos harness behind ``msite chaos``.

Drives the built-in forum deployment through a seeded fault schedule —
renders crash and hang, origin fetches fail or return garbage — and
reports how the resilience machinery absorbed it: statuses served,
degradation modes used, retries spent, breaker behaviour, stale serves.
The whole run is deterministic in the seed, so a chaos regression is a
reproducible bug report, not a flake.

The acceptance bar the tier-1 gate enforces: with the cache warm, a
30%-render / 10%-origin fault schedule must serve ≥ 99% of requests as
200 (possibly degraded-marked) and **zero** as 500.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ChaosReport:
    """What one seeded chaos run did to the deployment."""

    seed: int
    requests: int
    statuses: dict[int, int] = field(default_factory=dict)
    degraded_responses: dict[str, int] = field(default_factory=dict)
    faults_injected: dict[str, int] = field(default_factory=dict)
    retry_attempts: int = 0
    retries_exhausted: int = 0
    breaker_transitions: dict[str, int] = field(default_factory=dict)
    breaker_short_circuits: int = 0
    degraded_serves: dict[str, int] = field(default_factory=dict)
    stale_hits: int = 0
    metrics_exposition_lines: int = 0
    # Ops event log: every breaker transition, degradation, and farm
    # lifecycle change, in emission order with gap-free sequences.  The
    # chaos suites assert on these instead of inferring from counters.
    ops_events: list = field(default_factory=list, repr=False)
    ops_event_count: int = 0
    #: Per-breaker ``[(from_state, to_state), ...]`` in event order.
    breaker_event_sequences: dict[str, list] = field(default_factory=dict)
    #: Degradation rung events, counted by mode.
    degradation_events: dict[str, int] = field(default_factory=dict)
    # Farm-fault fields (populated when farm_faults=True).
    farm_faults: bool = False
    farm_consumers_started: int = 0
    farm_consumers_alive: int = 0
    farm_consumer_crashes: int = 0
    farm_dead_letters: int = 0
    farm_dead_letter_refusals: int = 0
    farm_coalesced: int = 0

    @property
    def total(self) -> int:
        return sum(self.statuses.values())

    @property
    def ok_count(self) -> int:
        return self.statuses.get(200, 0)

    @property
    def ok_fraction(self) -> float:
        return self.ok_count / self.total if self.total else 0.0

    @property
    def internal_errors(self) -> int:
        """Responses that leaked a 500 — the one status chaos forbids."""
        return self.statuses.get(500, 0)


def _labeled_totals(registry, name: str, *label_names: str) -> dict[str, int]:
    """``{joined-label-values: count}`` for every child of one family."""
    totals: dict[str, int] = {}
    for metric in registry.children(name):
        key = "/".join(
            metric.labels.get(label, "?") for label in label_names
        ) or "total"
        totals[key] = totals.get(key, 0) + int(metric.value)
    return {key: value for key, value in totals.items() if value}


def run_chaos(
    seed: int = 7,
    requests: int = 200,
    render_failure_rate: float = 0.3,
    origin_failure_rate: float = 0.1,
    garbage_rate: float = 0.05,
    warm: bool = True,
    farm_faults: bool = False,
    farm_consumers: int = 2,
) -> ChaosReport:
    """Run the forum deployment through a seeded fault schedule.

    ``render_failure_rate`` / ``origin_failure_rate`` are each split
    between hard failures and hangs; ``garbage_rate`` additionally makes
    origin responses arrive corrupted.  ``warm=False`` skips the cache
    warm-up, exercising the no-stale bottom rungs instead.

    ``farm_faults=True`` routes renders through a
    :class:`~repro.renderfarm.RenderFarm` and injects farm-level
    faults on top of the schedule: one consumer is crashed mid-render a
    third of the way in (the farm runs degraded from then on), and the
    render fault schedule drives repeatedly-failing keys into the
    dead-letter lane.  The acceptance bar is unchanged — warm-cache
    requests keep returning 200s with the farm degraded to
    ``farm_consumers - 1`` consumers.
    """
    # Imported here, not at module level: the resilience package is a
    # dependency of the pipeline, so the harness (which drives the whole
    # proxy) must not be part of the package's import-time graph.
    from repro.resilience.faults import (
        RENDER_TARGET,
        FaultPlan,
        origin_target,
    )
    from repro.sites.forum.spec import (
        CHAOS_WARMUP,
        CHAOS_WORKLOAD,
        forum_demo_proxy,
    )

    proxy, mobile = forum_demo_proxy()
    services = proxy.services
    base = "http://m.sawmillcreek.org/proxy.php"

    # Every breaker transition, degradation, and farm lifecycle change
    # lands on one ops event log — the chaos assertions read the story
    # from here, in order, instead of inferring it from counter deltas.
    from repro.ops import SequencedLog

    ops = SequencedLog(
        name="ops", metrics=services.observability.registry
    )
    services.resilience.bind_ops(ops)

    farm = None
    if farm_faults:
        from repro.renderfarm import RenderFarm

        farm = RenderFarm(
            consumers=farm_consumers,
            metrics=services.observability.registry,
            name="chaos",
            ops=ops,
        )
        services.renderfarm = farm

    if warm:
        for suffix in CHAOS_WARMUP:
            mobile.get(base + suffix)

    plan = FaultPlan(seed=seed)
    plan.on(
        RENDER_TARGET,
        fail_rate=render_failure_rate / 2.0,
        hang_rate=render_failure_rate / 2.0,
    )
    plan.on(
        origin_target(proxy.spec.origin_host),
        fail_rate=origin_failure_rate / 2.0,
        hang_rate=origin_failure_rate / 2.0,
        garbage_rate=garbage_rate,
    )
    services.install_faults(plan)

    report = ChaosReport(seed=seed, requests=requests)
    report.farm_faults = farm_faults
    report.farm_consumers_started = farm_consumers if farm_faults else 0
    crash_at = max(1, requests // 3)
    for index in range(max(1, requests)):
        if farm is not None and index == crash_at:
            # A browser process dies mid-render a third of the way in:
            # the next dispatched farm job fails and takes its consumer
            # with it.  No restart — the rest of the run is served by a
            # degraded farm.
            farm.crash_consumer()
        response = mobile.get(
            base + CHAOS_WORKLOAD[index % len(CHAOS_WORKLOAD)]
        )
        report.statuses[response.status] = (
            report.statuses.get(response.status, 0) + 1
        )
        mode = response.headers.get("X-MSite-Degraded")
        if mode:
            report.degraded_responses[mode] = (
                report.degraded_responses.get(mode, 0) + 1
            )

    services.install_faults(None)
    registry = services.observability.registry
    report.faults_injected = _labeled_totals(
        registry, "msite_faults_injected_total", "target", "mode"
    )
    total = registry.total
    report.retry_attempts = int(total("msite_retry_attempts_total"))
    report.retries_exhausted = int(total("msite_retry_exhausted_total"))
    report.breaker_transitions = _labeled_totals(
        registry, "msite_breaker_transitions_total", "breaker", "to"
    )
    report.breaker_short_circuits = int(
        total("msite_breaker_short_circuits_total")
    )
    report.degraded_serves = _labeled_totals(
        registry, "msite_degraded_serves_total", "mode"
    )
    report.stale_hits = int(total("msite_cache_stale_hits_total"))
    events = ops.retained()
    report.ops_events = events
    report.ops_event_count = ops.head_seq
    for event in events:
        if event.type == "breaker_transition":
            name = event.payload.get("breaker", "?")
            report.breaker_event_sequences.setdefault(name, []).append(
                (
                    event.payload.get("from_state"),
                    event.payload.get("to_state"),
                )
            )
        elif event.type == "degradation":
            mode = event.payload.get("mode", "?")
            report.degradation_events[mode] = (
                report.degradation_events.get(mode, 0) + 1
            )
    if farm is not None:
        report.farm_consumers_alive = farm.consumers_alive
        report.farm_consumer_crashes = int(
            total("msite_renderfarm_consumer_crashes_total")
        )
        report.farm_dead_letters = int(
            total("msite_renderfarm_dead_lettered_total")
        )
        report.farm_dead_letter_refusals = int(
            total("msite_renderfarm_dead_letter_refusals_total")
        )
        report.farm_coalesced = int(total("msite_renderfarm_coalesced_total"))
    metrics_page = mobile.get("http://m.sawmillcreek.org/metrics")
    report.metrics_exposition_lines = len(
        metrics_page.text_body.splitlines()
    )
    if farm is not None:
        farm.close()
    return report


def format_report(report: ChaosReport) -> str:
    """The human-readable degradation report ``msite chaos`` prints."""
    lines = [
        f"m.Site chaos run: seed {report.seed}, "
        f"{report.total} requests against the forum deployment",
        "",
        "  statuses served:",
    ]
    for status in sorted(report.statuses):
        lines.append(f"    {status}: {report.statuses[status]:>6}")
    lines.append(
        f"  200 rate: {report.ok_fraction * 100:.1f}%  "
        f"(500s: {report.internal_errors})"
    )
    lines.append("")
    lines.append("  degradation ladder:")
    if report.degraded_responses:
        for mode in sorted(report.degraded_responses):
            lines.append(
                f"    responses marked {mode}: "
                f"{report.degraded_responses[mode]:>6}"
            )
    for mode in sorted(report.degraded_serves):
        lines.append(
            f"    degraded serves ({mode}): "
            f"{report.degraded_serves[mode]:>6}"
        )
    lines.append(f"    stale cache hits: {report.stale_hits:>6}")
    lines.append("")
    lines.append("  faults and recovery:")
    for key in sorted(report.faults_injected):
        lines.append(
            f"    injected {key}: {report.faults_injected[key]:>6}"
        )
    lines.append(f"    retry attempts: {report.retry_attempts:>6}")
    lines.append(f"    retries exhausted: {report.retries_exhausted:>6}")
    for key in sorted(report.breaker_transitions):
        lines.append(
            f"    breaker {key}: {report.breaker_transitions[key]:>6}"
        )
    lines.append(
        f"    breaker short-circuits: {report.breaker_short_circuits:>6}"
    )
    if report.farm_faults:
        lines.append("")
        lines.append("  render farm:")
        lines.append(
            f"    consumers: {report.farm_consumers_alive} alive of "
            f"{report.farm_consumers_started} started "
            f"({report.farm_consumer_crashes} crashed mid-render)"
        )
        lines.append(
            f"    dead-lettered keys: {report.farm_dead_letters:>6}"
        )
        lines.append(
            f"    dead-letter refusals: {report.farm_dead_letter_refusals:>4}"
        )
        lines.append(f"    coalesced submissions: {report.farm_coalesced:>3}")
    lines.append("")
    lines.append(
        f"  /metrics exposition: {report.metrics_exposition_lines} lines"
    )
    lines.append(
        f"  ops event log: {report.ops_event_count} events "
        f"({sum(len(seq) for seq in report.breaker_event_sequences.values())}"
        f" breaker transitions, "
        f"{sum(report.degradation_events.values())} degradations)"
    )
    return "\n".join(lines)
