"""The region-failover bench behind ``msite bench-regions``.

Measures the two numbers the multi-region design promises:

* **warm failover** — with the owner region killed, cached-snapshot
  latency from the "wrong" region stays within a small multiple of the
  owner region's (the survivor serves the replicated snapshot from its
  own tier stack instead of re-rendering);
* **warm restart** — a full fleet shutdown + restart over the same
  snapshot directories recovers ≥ 90% of the prior working set from
  disk before the first request.

The run upserts one ``region_failover`` row into BENCH_pipeline.json
(via :mod:`repro.bench.store`, so concurrent bench writers merge
instead of clobbering).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.workload.replay import ReplayResult, percentile


@dataclass
class RegionFailoverReport:
    """One bench run's measurements, all latencies in milliseconds."""

    samples: int
    regions: tuple[str, ...] = ()
    workers_per_region: int = 0
    victim: str = ""
    owner_p50_ms: float = 0.0
    owner_p99_ms: float = 0.0
    failover_first_ms: float = 0.0
    wrong_region_p50_ms: float = 0.0
    wrong_region_p99_ms: float = 0.0
    non_degraded_5xx: int = 0
    replications: int = 0
    working_set: int = 0
    restored: int = 0
    preloaded_after_restart: int = 0
    statuses: dict[int, int] = field(default_factory=dict)

    @property
    def wrong_over_owner_p99(self) -> float:
        if self.owner_p99_ms <= 0:
            return 0.0
        return self.wrong_region_p99_ms / self.owner_p99_ms

    @property
    def warm_start_fraction(self) -> float:
        if not self.working_set:
            return 0.0
        return self.restored / self.working_set

    @property
    def key(self) -> str:
        return (
            f"forum@{len(self.regions)}x{self.workers_per_region}"
            f"w{self.samples}"
        )

    def bench_row(self) -> dict:
        return {
            "samples": self.samples,
            "regions": list(self.regions),
            "workers_per_region": self.workers_per_region,
            "victim": self.victim,
            "owner_p50_ms": round(self.owner_p50_ms, 3),
            "owner_p99_ms": round(self.owner_p99_ms, 3),
            "failover_first_ms": round(self.failover_first_ms, 3),
            "wrong_region_p50_ms": round(self.wrong_region_p50_ms, 3),
            "wrong_region_p99_ms": round(self.wrong_region_p99_ms, 3),
            "wrong_over_owner_p99": round(self.wrong_over_owner_p99, 3),
            "non_degraded_5xx": self.non_degraded_5xx,
            "snapshot_replications": self.replications,
            "working_set": self.working_set,
            "restored_from_disk": self.restored,
            "warm_start_fraction": round(self.warm_start_fraction, 4),
        }


#: The cached paths measured; all are warm after the warm-up pass.
MEASURED_PATHS = ("", "?page=forums", "?page=login", "?file=snapshot.jpg")


def run_region_failover_bench(
    smoke: bool = False,
    samples: Optional[int] = None,
    workers_per_region: int = 2,
    snapshot_root: Optional[str] = None,
) -> RegionFailoverReport:
    """Measure owner-region vs failed-over latency, then warm restart."""
    from repro.cli import _build_forum_spec
    from repro.net.client import HttpClient
    from repro.net.cookies import CookieJar
    from repro.regions.deployment import RegionalDeployment

    if samples is None:
        samples = 40 if smoke else 160
    spec, origins = _build_forum_spec()
    owns_root = snapshot_root is None
    if snapshot_root is None:
        snapshot_root = tempfile.mkdtemp(prefix="msite-bench-regions-")
    report = RegionFailoverReport(
        samples=samples, workers_per_region=workers_per_region
    )

    tally = ReplayResult()

    def _timed_get(mobile, url: str) -> float:
        started = time.perf_counter()
        response = mobile.get(url)
        elapsed = time.perf_counter() - started
        tally.record(response, elapsed)
        return elapsed * 1e3

    base = "http://m.sawmillcreek.org/proxy.php"
    working_set: dict[str, list[str]] = {}
    try:
        with RegionalDeployment(
            snapshot_root=snapshot_root,
            spec=spec,
            origins=origins,
            workers_per_region=workers_per_region,
        ) as deployment:
            report.regions = tuple(deployment.region_names)
            mobile = HttpClient(
                {"m.sawmillcreek.org": deployment}, jar=CookieJar()
            )
            victim = None
            for suffix in MEASURED_PATHS:
                response = mobile.get(base + suffix)
                if suffix == "":
                    victim = response.headers.get("X-MSite-Region")
            assert victim is not None
            report.victim = victim
            # Drain the write-behind queues so the survivor's replicated
            # store reflects steady state before the measurements.
            for region in deployment.regions:
                region.backend.flush()

            owner_ms = [
                _timed_get(
                    mobile, base + MEASURED_PATHS[i % len(MEASURED_PATHS)]
                )
                for i in range(samples)
            ]
            report.owner_p50_ms = percentile(owner_ms, 0.50)
            report.owner_p99_ms = percentile(owner_ms, 0.99)

            deployment.kill(victim)
            report.failover_first_ms = _timed_get(mobile, base)
            wrong_ms = [
                _timed_get(
                    mobile, base + MEASURED_PATHS[i % len(MEASURED_PATHS)]
                )
                for i in range(samples)
            ]
            report.wrong_region_p50_ms = percentile(wrong_ms, 0.50)
            report.wrong_region_p99_ms = percentile(wrong_ms, 0.99)
            report.statuses = tally.statuses
            report.non_degraded_5xx = tally.non_degraded_5xx
            deployment.revive(victim)

            registry = deployment.rollup()
            report.replications = sum(
                int(metric.value)
                for family in registry.collect()
                if family.name == "msite_region_replications_total"
                for metric in family.sorted_children()
            )
            working_set = {
                region.name: region.backend.cache.keys()
                for region in deployment.regions
            }
            report.working_set = sum(
                len(keys) for keys in working_set.values()
            )
        # The context exit flushed and closed every region.  A brand-new
        # deployment over the same snapshot directories must warm-start.
        with RegionalDeployment(
            snapshot_root=snapshot_root,
            spec=spec,
            origins=origins,
            workers_per_region=workers_per_region,
        ) as restarted:
            report.preloaded_after_restart = sum(
                region.backend.preloaded for region in restarted.regions
            )
            report.restored = sum(
                1
                for name, keys in working_set.items()
                for key in keys
                if restarted.region(name).backend.cache.peek(key)
                is not None
            )
    finally:
        if owns_root:
            shutil.rmtree(snapshot_root, ignore_errors=True)
    return report


def format_report(report: RegionFailoverReport) -> str:
    lines = [
        f"m.Site region failover bench: {report.samples} samples, "
        f"regions {', '.join(report.regions)} "
        f"({report.workers_per_region} workers each), "
        f"victim {report.victim!r}",
        "",
        "  cached-snapshot latency:",
        f"    owner region   p50 {report.owner_p50_ms:>8.3f} ms   "
        f"p99 {report.owner_p99_ms:>8.3f} ms",
        f"    wrong region   p50 {report.wrong_region_p50_ms:>8.3f} ms   "
        f"p99 {report.wrong_region_p99_ms:>8.3f} ms "
        f"({report.wrong_over_owner_p99:.2f}x owner)",
        f"    first failed-over request: "
        f"{report.failover_first_ms:.3f} ms",
        f"    non-degraded 5xx: {report.non_degraded_5xx}",
        "",
        "  durability:",
        f"    snapshot replications: {report.replications}",
        f"    working set at shutdown: {report.working_set} keys",
        f"    restored from disk: {report.restored} "
        f"({report.warm_start_fraction * 100:.1f}%)",
        f"    preloaded entries after restart: "
        f"{report.preloaded_after_restart}",
    ]
    return "\n".join(lines)
