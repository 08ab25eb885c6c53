"""Mixed-traffic workload generation against the real proxy.

Drives an actual :class:`MSiteProxy` with a visitor population over
simulated time: Poisson arrivals, each visit fetching the entry page,
the snapshot, and a few subpages — the access pattern §4.3 describes
("either logging in ... or browsing the forum listing").  The simulated
clock advances between visits so cache TTLs and session expiry behave as
they would across a real day.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.spec import AdaptationSpec
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.sim.clock import Clock
from repro.sim.rng import DeterministicRandom
from repro.sites.forum.spec import standard_forum_spec


@dataclass
class WorkloadConfig:
    """One traffic scenario."""

    visits: int = 200
    duration_hours: float = 4.0
    subpages_per_visit: tuple[int, int] = (1, 3)  # uniform range
    returning_fraction: float = 0.3  # chance a visit reuses a session
    seed: int = 0x7AFF1C


@dataclass
class WorkloadReport:
    """What the day of traffic cost."""

    visits: int = 0
    requests: int = 0
    bytes_to_devices: int = 0
    browser_renders: int = 0
    lightweight_requests: int = 0
    browser_core_seconds: float = 0.0
    lightweight_core_seconds: float = 0.0
    cache_hit_rate: float = 0.0
    sessions_created: int = 0
    errors: int = 0
    subpage_requests: int = 0

    @property
    def renders_per_hour(self) -> float:
        return self.browser_renders / max(1e-9, self._hours)

    _hours: float = field(default=1.0, repr=False)


def run_workload(
    origins: dict,
    origin_host: str,
    config: WorkloadConfig,
    spec: AdaptationSpec | None = None,
) -> WorkloadReport:
    """Run the scenario; returns aggregate accounting."""
    clock = Clock()
    services = ProxyServices(origins=origins, clock=clock)
    proxy = MSiteProxy(
        spec or standard_forum_spec(origin_host), services
    )
    rng = DeterministicRandom(config.seed)
    mean_gap = config.duration_hours * 3600.0 / config.visits
    proxy_host = "m.example"
    subpage_ids = [
        binding.param("subpage_id")
        for binding in proxy.spec.bindings
        if binding.attribute == "subpage"
    ] or ["login"]

    report = WorkloadReport()
    report._hours = config.duration_hours
    returning_pool: list[HttpClient] = []

    for __ in range(config.visits):
        clock.advance(rng.exponential(mean_gap))
        if returning_pool and rng.uniform() < config.returning_fraction:
            client = rng.choice(returning_pool)
        else:
            client = HttpClient(
                {proxy_host: proxy}, jar=CookieJar(), clock=clock
            )
            returning_pool.append(client)
            if len(returning_pool) > 64:
                returning_pool.pop(0)
        client.ledger.reset()
        entry = client.get(f"http://{proxy_host}/proxy.php")
        client.get(f"http://{proxy_host}/proxy.php?file=snapshot.jpg")
        for __ in range(rng.randint(*config.subpages_per_visit)):
            subpage = rng.choice(subpage_ids)
            client.get(f"http://{proxy_host}/proxy.php?page={subpage}")
            report.subpage_requests += 1
        report.visits += 1
        report.bytes_to_devices += client.ledger.bytes_received
        if not entry.ok:
            report.errors += 1

    counters = proxy.counters
    report.requests = counters.requests
    report.browser_renders = counters.browser_renders
    report.lightweight_requests = counters.lightweight_requests
    report.browser_core_seconds = counters.browser_core_seconds
    report.lightweight_core_seconds = counters.lightweight_core_seconds
    report.cache_hit_rate = services.cache.stats.hit_rate
    report.sessions_created = len(proxy.sessions)
    report.errors += counters.errors
    return report
