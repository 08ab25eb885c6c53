"""The chaos harness behind ``msite chaos``: one run over one of two scripts.

A script is data: a target, steps that fire at fixed indices of the
run, and the bar the run must clear.  Exactly two exist (``SCRIPTS``):

* ``faults`` — the forum demo proxy under a seeded
  :class:`~repro.resilience.faults.FaultPlan`: renders crash and hang,
  origin fetches fail or return garbage.  ``farm_faults`` routes renders
  through a :class:`~repro.renderfarm.RenderFarm` and adds one step, a
  consumer crashed mid-render a third of the way in.  Bar: **zero** 500s
  (with the cache warm, a 30%-render / 10%-origin schedule also serves
  ≥ 99% as 200 — the acceptance suite's figure).
* ``regions`` — a two-region
  :class:`~repro.regions.deployment.RegionalDeployment`: the region that
  owns the entry page is killed a third of the way in and revived (and
  healed) at two thirds.  Bar: zero non-degraded 5xx, and the healed
  region replayed the invalidation log to the live offset — by the end
  of the run and in its own ``region_healed`` event.

Either bar fails a run in which a scripted step never fired.  One loop
walks ``CHAOS_WORKLOAD`` over either target, one report holds what both
share plus each target's own facts, and its ``verdict`` says why a run
failed.  The run is deterministic in the seed: every region's
write-behind queue is flushed after each request, so two same-seed runs
report the same facts.
"""

from __future__ import annotations

import shutil
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

#: Each script's steps: an action and the third of the run it fires at.
SCRIPTS = {"faults": (), "regions": (("kill", 1), ("revive", 2))}
#: The step ``farm_faults`` adds to the ``faults`` script.
FARM_CRASH = ("crash", 1)
#: Render farm consumers a ``farm_faults`` run starts; one is crashed.
FARM_CONSUMERS = 2

#: The report's counter fields, by the report section that prints them:
#: field -> the counter family it totals, then the labels that split it
#: into ``{"label/values": count}`` (no labels: one number).
_COUNTERS = {
    "degradation ladder": {
        "degraded_serves": "msite_degraded_serves_total mode",
        "stale_hits": "msite_cache_stale_hits_total",
    },
    "faults and recovery": {
        "faults_injected": "msite_faults_injected_total target mode",
        "retry_attempts": "msite_retry_attempts_total",
        "retries_exhausted": "msite_retry_exhausted_total",
        "breaker_transitions": "msite_breaker_transitions_total breaker to",
        "breaker_short_circuits": "msite_breaker_short_circuits_total",
    },
    "render farm": {
        "farm_consumer_crashes": "msite_renderfarm_consumer_crashes_total",
        "farm_dead_letters": "msite_renderfarm_dead_lettered_total",
        "farm_dead_letter_refusals":
            "msite_renderfarm_dead_letter_refusals_total",
        "farm_coalesced": "msite_renderfarm_coalesced_total",
    },
    "failover and CDC replay": {
        "failovers": "msite_region_failovers_total",
        "reroutes": "msite_region_reroutes_total",
        "events_applied": "msite_region_applied_total",
    },
}

_HOST = "http://m.sawmillcreek.org"


@dataclass
class ChaosReport:
    """What one seeded chaos run did to its target."""

    seed: int
    script: str
    requests: int
    #: ``(index, action)`` the script scheduled, and those that fired.
    steps: tuple = ()
    fired: list = field(default_factory=list)
    statuses: Counter = field(default_factory=Counter)
    degraded_responses: Counter = field(default_factory=Counter)
    non_degraded_5xx: int = 0
    # Counter totals, one field per ``_COUNTERS`` row.
    degraded_serves: dict[str, int] = field(default_factory=dict)
    stale_hits: int = 0
    faults_injected: dict[str, int] = field(default_factory=dict)
    retry_attempts: int = 0
    retries_exhausted: int = 0
    breaker_transitions: dict[str, int] = field(default_factory=dict)
    breaker_short_circuits: int = 0
    farm_consumer_crashes: int = 0
    farm_dead_letters: int = 0
    farm_dead_letter_refusals: int = 0
    farm_coalesced: int = 0
    failovers: int = 0
    reroutes: int = 0
    events_applied: int = 0
    metrics_exposition_lines: int = 0
    # The ops event log in emission order with gap-free sequences: the
    # chaos suites assert on the story here, not on counter deltas.
    ops_events: list = field(default_factory=list, repr=False)
    ops_event_count: int = 0
    # ``faults`` with ``farm_faults``:
    farm_consumers_started: int = 0
    farm_consumers_alive: int = 0
    # ``regions``: the victim, each region's acked log offset, and the
    # replicated state (entries in each region's snapshot store) after
    # the last flush.
    killed_region: str = ""
    log_head: int = 0
    acked: dict[str, int] = field(default_factory=dict)
    store_entries: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.statuses.values())

    @property
    def ok_fraction(self) -> float:
        """Share of responses that were 200s: the ``faults`` figure."""
        return self.statuses[200] / self.total if self.total else 0.0

    @property
    def non_5xx_fraction(self) -> float:
        """Share of responses below 500: the ``regions`` figure."""
        ok = sum(n for status, n in self.statuses.items() if status < 500)
        return ok / self.total if self.total else 0.0

    @property
    def internal_errors(self) -> int:
        """Responses that leaked a 500."""
        return self.statuses[500]

    def _payloads(self, kind: str) -> list[dict]:
        return [event.payload for event in self.ops_events
                if event.type == kind]

    @property
    def breaker_event_sequences(self) -> dict[str, list]:
        """Per-breaker ``[(from_state, to_state), ...]`` in event order."""
        sequences: dict[str, list] = {}
        for edge in self._payloads("breaker_transition"):
            sequences.setdefault(edge.get("breaker", "?"), []).append(
                (edge.get("from_state"), edge.get("to_state"))
            )
        return sequences

    @property
    def degradation_events(self) -> Counter:
        """Degradation rung events, counted by mode."""
        return Counter(
            rung.get("mode", "?") for rung in self._payloads("degradation")
        )

    @property
    def heal(self) -> dict:
        """The killed region's last ``region_healed`` payload (``{}``
        if none): the replay-to-live offsets *as the heal finished*, not
        a later poll that could mask a lagging replay."""
        heals = [heal for heal in self._payloads("region_healed")
                 if heal.get("region") == self.killed_region]
        return heals[-1] if heals else {}

    @property
    def replay_caught_up(self) -> bool:
        """Did every region ack the live head by the end of the run?"""
        return all(seq == self.log_head for seq in self.acked.values())

    @property
    def heal_caught_up(self) -> bool:
        """Did the heal event itself record acked == live head?"""
        acked = self.heal.get("acked_seq", -1)
        return acked >= 0 and acked == self.heal.get("log_head")

    @property
    def verdict(self) -> list[str]:
        """Why the run fails its script's bar; empty when it passes."""
        reasons = [f"step {action!r} at request {at} never fired"
                   for at, action in self.steps[len(self.fired):]]
        if self.script == "faults" and self.internal_errors:
            reasons.append(f"{self.internal_errors} requests leaked a 500")
        if self.script != "regions":
            return reasons
        if self.non_degraded_5xx:
            reasons.append(f"{self.non_degraded_5xx} non-degraded 5xx "
                           "leaked through the failover")
        if not self.replay_caught_up:
            reasons.append(f"a region did not replay to the live offset "
                           f"(head {self.log_head}, acked {self.acked})")
        # Any scheduled run has a revive, and so a heal, to account for.
        if self.steps and not self.heal_caught_up:
            reasons.append(f"the heal did not replay to the live offset "
                           f"({self.heal or 'no heal event'})")
        return reasons

    @property
    def failed(self) -> bool:
        return bool(self.verdict)


def _steps(script: str, requests: int, farm_faults: bool):
    """``(index, action)`` per step of ``script`` over ``requests``: the
    step's third of the run, but after request 0 and the step before."""
    extra = (FARM_CRASH,) if farm_faults else ()
    steps, at = [], 0
    for action, third in SCRIPTS[script] + extra:
        at = max(at + 1, requests * third // 3)
        steps.append((at, action))
    return tuple(steps)


def _counter(registry, family: str, *labels: str):
    """One family's total, or ``{"label/values": count}`` split by
    ``labels`` (zero counts dropped)."""
    if not labels:
        return int(registry.total(family))
    totals: Counter = Counter()
    for metric in registry.children(family):
        key = "/".join(metric.labels.get(label, "?") for label in labels)
        totals[key] += int(metric.value)
    return {key: value for key, value in totals.items() if value}


class _Forum:
    """The ``faults`` target: the forum demo proxy, a seeded fault plan,
    and with ``farm_faults`` a render farm to crash a consumer of."""

    def __init__(self, report, seed, rates, farm_faults) -> None:
        # Imported here, not at module level: the resilience package is
        # a dependency of the pipeline, so the harness (which drives the
        # whole proxy) must not be part of its import-time graph.
        from repro.ops import SequencedLog
        from repro.resilience import faults
        from repro.sites.forum.spec import forum_demo_proxy

        self.report, self.farm = report, None
        proxy, mobile = forum_demo_proxy()
        self.get = mobile.get
        render, origin, garbage = rates
        self.plan = faults.FaultPlan(seed=seed).on(
            faults.RENDER_TARGET, fail_rate=render / 2.0,
            hang_rate=render / 2.0,
        ).on(
            faults.origin_target(proxy.spec.origin_host),
            fail_rate=origin / 2.0, hang_rate=origin / 2.0,
            garbage_rate=garbage,
        )
        self.services = proxy.services
        self.registry = self.services.observability.registry
        # Every breaker transition, degradation, and farm lifecycle
        # change lands on one ops event log.
        self.ops = SequencedLog(name="ops", metrics=self.registry)
        self.services.resilience.bind_ops(self.ops)
        if farm_faults:
            from repro.renderfarm import RenderFarm

            self.farm = self.services.renderfarm = RenderFarm(
                consumers=FARM_CONSUMERS, metrics=self.registry,
                name="chaos", ops=self.ops,
            )
            report.farm_consumers_started = FARM_CONSUMERS

    def arm(self, warmup) -> None:
        self.services.install_faults(self.plan)

    def fire(self, action: str) -> None:
        # "crash": a browser process dies mid-render — the next
        # dispatched farm job fails and takes its consumer with it.  No
        # restart: the rest of the run is served by a degraded farm.
        self.farm.crash_consumer()

    def read(self):
        """Stop injecting, record the farm's state, and hand back the
        registry the counters live on."""
        self.services.install_faults(None)
        if self.farm is not None:
            self.report.farm_consumers_alive = self.farm.consumers_alive
        return self.registry

    def close(self) -> None:
        self.services.install_faults(None)
        if self.farm is not None:
            self.farm.close()


class _Regions:
    """The ``regions`` target: the forum demo on a two-region deployment
    (in a temporary snapshot root unless one is given)."""

    def __init__(self, report, workers_per_region, snapshot_root) -> None:
        from repro.net.client import HttpClient
        from repro.net.cookies import CookieJar
        from repro.regions.deployment import RegionalDeployment
        from repro.sites.forum.app import ForumApplication
        from repro.sites.forum.spec import FORUM_HOST, forum_demo_spec

        self.report, self.owns_root = report, snapshot_root is None
        self.deployment = RegionalDeployment(
            regions=("east", "west"), snapshot_root=snapshot_root,
            spec=forum_demo_spec(), origins={FORUM_HOST: ForumApplication()},
            workers_per_region=workers_per_region,
        )
        self.mobile = HttpClient(
            {"m.sawmillcreek.org": self.deployment}, jar=CookieJar()
        )
        self.ops = self.deployment.ops

    def get(self, url: str):
        # The flush barrier: persists, and so replication into peers,
        # ride each region's write-behind thread.  Draining every queue
        # after each request makes what the stores hold, and when, the
        # same on every run.
        response = self.mobile.get(url)
        for region in self.deployment.regions:
            region.backend.flush()
        return response

    def arm(self, warmup) -> None:
        # ``CHAOS_WARMUP`` opens on the entry page, whose response names
        # the region that owns the hot key: the one the script kills.
        self.report.killed_region = warmup[0].headers.get("X-MSite-Region")

    def fire(self, action: str) -> None:
        # The actions are the deployment's own ``kill`` and ``revive``;
        # a revive also heals: the region replays the invalidation log
        # from its last acked offset before it takes traffic.
        getattr(self.deployment, action)(self.report.killed_region)

    def read(self):
        """Record the log offsets and each store's entries, and hand
        back the deployment-wide rollup the counters live on."""
        report, regions = self.report, self.deployment.regions
        report.log_head = self.deployment.log.head_seq
        report.acked = {region.name: region.acked_seq for region in regions}
        report.store_entries = {
            region.name: len(region.backend.store) for region in regions
        }
        return self.deployment.rollup()

    def close(self) -> None:
        self.deployment.close()
        if self.owns_root:
            shutil.rmtree(self.deployment.snapshot_root, ignore_errors=True)


def run_chaos(
    script: str = "faults",
    seed: int = 7,
    requests: int = 200,
    render_failure_rate: float = 0.3,
    origin_failure_rate: float = 0.1,
    garbage_rate: float = 0.05,
    warm: bool = True,
    farm_faults: bool = False,
    workers_per_region: int = 2,
    snapshot_root: Optional[str] = None,
) -> ChaosReport:
    """Run ``script`` over ``requests`` of ``CHAOS_WORKLOAD``.

    ``faults`` takes the fault rates (``render_failure_rate`` /
    ``origin_failure_rate`` are each split between hard failures and
    hangs; ``garbage_rate`` corrupts origin responses), ``warm=False``
    to skip the cache warm-up and exercise the no-stale bottom rungs,
    and ``farm_faults``.  ``regions`` takes ``workers_per_region`` and
    ``snapshot_root`` (``None``: a temporary directory, removed after),
    and always warms up: its kill picks the entry page's owner.
    """
    if requests < 1:
        raise ValueError(f"a chaos run needs a request, got {requests}")
    if farm_faults and script != "faults":
        raise ValueError("farm faults are a step of the faults script")
    from repro.sites.forum.spec import CHAOS_WARMUP, CHAOS_WORKLOAD

    report = ChaosReport(
        seed=seed, script=script, requests=requests,
        steps=_steps(script, requests, farm_faults),
    )
    if script == "regions":
        target = _Regions(report, workers_per_region, snapshot_root)
    else:
        rates = (render_failure_rate, origin_failure_rate, garbage_rate)
        target = _Forum(report, seed, rates, farm_faults)
    get, base = target.get, _HOST + "/proxy.php"
    try:
        warmup = CHAOS_WARMUP if warm or script == "regions" else ()
        target.arm([get(base + path) for path in warmup])
        due = dict(report.steps)
        for index in range(requests):
            if index in due:
                target.fire(due[index])
                report.fired.append((index, due[index]))
            response = get(base + CHAOS_WORKLOAD[index % len(CHAOS_WORKLOAD)])
            report.statuses[response.status] += 1
            mode = response.headers.get("X-MSite-Degraded")
            if mode:
                report.degraded_responses[mode] += 1
            elif response.status >= 500:
                report.non_degraded_5xx += 1
        registry = target.read()
        for counters in _COUNTERS.values():
            for name, counter in counters.items():
                setattr(report, name, _counter(registry, *counter.split()))
        report.ops_events = target.ops.retained()
        report.ops_event_count = target.ops.head_seq
        exposition = get(_HOST + "/metrics").text_body
        report.metrics_exposition_lines = len(exposition.splitlines())
    finally:
        target.close()
    return report


def format_report(report: ChaosReport) -> str:
    """The human-readable report ``msite chaos`` prints: the sections
    every run has, and those its script's target adds."""
    where = "the forum deployment"
    if report.script == "regions":
        where += f" in regions {', '.join(report.acked)}"
    lines = [f"m.Site chaos run: script {report.script}, seed "
             f"{report.seed}, {report.total} requests against {where}"]

    def split(label: str, counts: dict) -> list:
        return [(label.format(key), counts[key]) for key in sorted(counts)]

    def section(title: str, *rows: tuple[str, object]) -> None:
        lines.extend(["", f"  {title}:"])
        for name in _COUNTERS.get(title, ()):
            value, label = getattr(report, name), name.replace("_", " ")
            rows += tuple(split(label + " {}", value)) if isinstance(
                value, dict) else ((label, value),)
        for label, value in rows:
            value = f"{value:>6}" if isinstance(value, int) else value
            lines.append(f"    {label}: {value}")

    if report.steps:
        section("scripted steps", *(
            (f"{action} at request {at}",
             "fired" if (at, action) in report.fired else "NOT FIRED")
            for at, action in report.steps
        ))
    section("statuses served", *split("{}", report.statuses))
    lines.append(f"  200 rate: {report.ok_fraction:.1%}  "
                 f"(500s: {report.internal_errors})")
    lines.append(f"  non-5xx rate: {report.non_5xx_fraction:.1%}  "
                 f"(non-degraded 5xx: {report.non_degraded_5xx})")
    section("degradation ladder",
            *split("responses marked {}", report.degraded_responses))
    if report.script == "faults":
        section("faults and recovery")
    if report.farm_consumers_started:
        section("render farm",
                ("consumers started", report.farm_consumers_started),
                ("consumers alive", report.farm_consumers_alive))
    if report.script == "regions":
        section(
            "failover and CDC replay",
            ("killed region", report.killed_region),
            ("log head seq", report.log_head),
            *split("{} acked", report.acked),
            *split("{} store entries", report.store_entries),
            ("caught up", "yes" if report.replay_caught_up else "NO"),
            ("heal event", f"{report.heal or 'none'} "
             f"({'live' if report.heal_caught_up else 'LAGGING'})"),
        )
    lines.extend([
        "",
        f"  /metrics exposition: {report.metrics_exposition_lines} lines",
        f"  ops event log: {report.ops_event_count} events "
        f"({sum(map(len, report.breaker_event_sequences.values()))} "
        f"breaker transitions, {sum(report.degradation_events.values())} "
        "degradations)",
    ])
    return "\n".join(lines)
