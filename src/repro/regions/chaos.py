"""The region-fault chaos harness behind ``msite chaos --region-faults``.

Stands up the built-in forum mobilization on a two-region deployment,
warms it, then kills the region that owns the entry page a third of the
way through the workload and revives (and heals) it at two thirds.  The
acceptance bar: **every** response across the whole run is either a
non-5xx or a degraded-marked 5xx — the kill must be absorbed by warm
failover to the surviving region, and after the heal the revived
region's acked offset must equal the live log head (it replayed every
invalidation it missed).
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class RegionChaosReport:
    """What one seeded region-fault run did to the deployment."""

    seed: int
    requests: int
    regions: tuple[str, ...] = ()
    workers_per_region: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    degraded_responses: dict[str, int] = field(default_factory=dict)
    non_degraded_5xx: int = 0
    killed_region: str = ""
    killed_at: int = 0
    revived_at: int = 0
    failovers: int = 0
    reroutes: int = 0
    replications: int = 0
    events_applied: int = 0
    log_head: int = 0
    acked: dict[str, int] = field(default_factory=dict)
    store_entries: dict[str, int] = field(default_factory=dict)
    metrics_exposition_lines: int = 0
    # Ops event log: the kill/failover/revive/heal story in emission
    # order.  ``heal_*`` comes from the ``region_healed`` event payload,
    # which records the replay-to-live offsets *at the moment the heal
    # finished* — not a later poll that could mask a lagging replay.
    ops_events: list = field(default_factory=list, repr=False)
    ops_event_count: int = 0
    heal_published: int = 0
    heal_acked_seq: int = -1
    heal_log_head: int = -1

    @property
    def total(self) -> int:
        return sum(self.statuses.values())

    @property
    def ok_fraction(self) -> float:
        ok = sum(
            count for status, count in self.statuses.items()
            if status < 500
        )
        return ok / self.total if self.total else 0.0

    @property
    def replay_caught_up(self) -> bool:
        """Did every region ack the live head after the heal?"""
        return all(seq == self.log_head for seq in self.acked.values())

    @property
    def heal_caught_up(self) -> bool:
        """Did the heal event itself record acked == live head?"""
        return (
            self.heal_acked_seq >= 0
            and self.heal_acked_seq == self.heal_log_head
        )

    @property
    def failed(self) -> bool:
        return bool(self.non_degraded_5xx) or not self.replay_caught_up


def run_region_chaos(
    seed: int = 11,
    requests: int = 240,
    workers_per_region: int = 2,
    region_names: tuple[str, ...] = ("east", "west"),
    snapshot_root: Optional[str] = None,
) -> RegionChaosReport:
    """Kill one of two regions mid-workload; assert failover + replay.

    Deterministic in ``seed`` (it seeds nothing random today — the kill
    schedule is positional — but keeps the chaos CLI surface uniform
    and reserves the knob for randomized schedules).  When
    ``snapshot_root`` is ``None`` a temporary directory is used and
    removed afterwards.
    """
    # Imported here like the resilience harness: the regions package
    # must not put the whole proxy stack on its import-time graph.
    from repro.net.client import HttpClient
    from repro.net.cookies import CookieJar
    from repro.regions.deployment import RegionalDeployment
    from repro.sites.forum.app import ForumApplication
    from repro.sites.forum.spec import (
        CHAOS_WARMUP,
        CHAOS_WORKLOAD,
        FORUM_HOST,
        forum_demo_spec,
    )

    owns_root = snapshot_root is None
    deployment = RegionalDeployment(
        regions=region_names,
        snapshot_root=snapshot_root,
        spec=forum_demo_spec(),
        origins={FORUM_HOST: ForumApplication()},
        workers_per_region=workers_per_region,
    )
    mobile = HttpClient(
        {"m.sawmillcreek.org": deployment}, jar=CookieJar()
    )
    base = "http://m.sawmillcreek.org/proxy.php"

    report = RegionChaosReport(
        seed=seed,
        requests=requests,
        regions=tuple(deployment.region_names),
        workers_per_region=workers_per_region,
    )
    try:
        # Warm every workload path; the entry response names the region
        # that owns the hot key — that is the one we will kill.
        victim = None
        for suffix in CHAOS_WARMUP:
            response = mobile.get(base + suffix)
            if suffix == "":
                victim = response.headers.get("X-MSite-Region")
        assert victim is not None
        report.killed_region = victim
        # Steady state: the write-behind queues drained long ago in
        # wall-clock terms; make that explicit before the crash so the
        # survivor's replicated store is warm.
        deployment.region(victim).backend.flush()

        kill_at = max(1, requests // 3)
        revive_at = max(kill_at + 1, (2 * requests) // 3)
        report.killed_at = kill_at
        report.revived_at = revive_at
        for index in range(max(1, requests)):
            if index == kill_at:
                deployment.kill(victim)
            elif index == revive_at:
                deployment.revive(victim)  # heals: replays the log
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
            if response.status >= 500 and not mode:
                report.non_degraded_5xx += 1

        report.log_head = deployment.log.head_seq
        report.acked = {
            region.name: region.acked_seq
            for region in deployment.regions
        }
        report.store_entries = {
            region.name: len(region.backend.store)
            for region in deployment.regions
        }
        total = deployment.rollup().total
        report.failovers = int(total("msite_region_failovers_total"))
        report.reroutes = int(total("msite_region_reroutes_total"))
        report.replications = int(total("msite_region_replications_total"))
        report.events_applied = int(total("msite_region_applied_total"))
        events = deployment.ops.retained()
        report.ops_events = events
        report.ops_event_count = deployment.ops.head_seq
        for event in events:
            if (
                event.type == "region_healed"
                and event.payload.get("region") == victim
            ):
                report.heal_published = event.payload.get("published", 0)
                report.heal_acked_seq = event.payload.get("acked_seq", -1)
                report.heal_log_head = event.payload.get("log_head", -1)
        metrics_page = mobile.get("http://m.sawmillcreek.org/metrics")
        report.metrics_exposition_lines = len(
            metrics_page.text_body.splitlines()
        )
    finally:
        deployment.close()
        if owns_root:
            shutil.rmtree(deployment.snapshot_root, ignore_errors=True)
    return report


def format_region_report(report: RegionChaosReport) -> str:
    """The human-readable report ``msite chaos --region-faults`` prints."""
    lines = [
        f"m.Site region-fault chaos: seed {report.seed}, "
        f"{report.total} requests across regions "
        f"{', '.join(report.regions)} "
        f"({report.workers_per_region} workers each)",
        "",
        f"  killed {report.killed_region!r} at request "
        f"{report.killed_at}, revived+healed at {report.revived_at}",
        "",
        "  statuses served:",
    ]
    for status in sorted(report.statuses):
        lines.append(f"    {status}: {report.statuses[status]:>6}")
    lines.append(
        f"  non-5xx rate: {report.ok_fraction * 100:.1f}%  "
        f"(non-degraded 5xx: {report.non_degraded_5xx})"
    )
    lines.append("")
    lines.append("  failover:")
    for mode in sorted(report.degraded_responses):
        lines.append(
            f"    responses marked {mode}: "
            f"{report.degraded_responses[mode]:>6}"
        )
    lines.append(f"    failovers: {report.failovers:>6}")
    lines.append(f"    reroutes past dead region: {report.reroutes:>6}")
    lines.append("")
    lines.append("  CDC replay:")
    lines.append(f"    log head seq: {report.log_head:>6}")
    for name in sorted(report.acked):
        lines.append(
            f"    {name} acked: {report.acked[name]:>6}  "
            f"(store entries: {report.store_entries.get(name, 0)})"
        )
    lines.append(
        f"    caught up: {'yes' if report.replay_caught_up else 'NO'}"
    )
    lines.append(f"    events applied cross-region: {report.events_applied}")
    lines.append(f"    snapshot replications: {report.replications}")
    lines.append(
        f"    heal event: published {report.heal_published}, acked "
        f"{report.heal_acked_seq} of log head {report.heal_log_head} "
        f"({'live' if report.heal_caught_up else 'LAGGING'})"
    )
    lines.append(f"    ops event log: {report.ops_event_count} events")
    lines.append("")
    lines.append(
        f"  /metrics exposition: {report.metrics_exposition_lines} lines"
    )
    return "\n".join(lines)
