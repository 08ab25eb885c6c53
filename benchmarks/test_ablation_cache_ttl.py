"""Ablation — shared pre-render cache TTL vs browser-render load.

DESIGN.md §5.2: the paper fixes the snapshot TTL at one hour ("only
required once per hour and can be shared by multiple users").  This
ablation sweeps the TTL under a steady visitor arrival process and
reports how many heavyweight renders the proxy performs per hour.
"""

import pytest

from repro.core.cache import PrerenderCache
from repro.sim.clock import Clock
from repro.sim.rng import DeterministicRandom
from repro.workload.reporting import format_table


def renders_per_hour(ttl_s: float, visitors_per_hour: int = 600,
                     hours: float = 6.0, seed: int = 11) -> float:
    """Simulate Poisson visitor arrivals against a TTL cache."""
    clock = Clock()
    cache = PrerenderCache(clock=clock)
    rng = DeterministicRandom(seed)
    mean_gap = 3600.0 / visitors_per_hour
    renders = 0
    while clock.now < hours * 3600.0:
        clock.advance(rng.exponential(mean_gap))
        if cache.get("snapshot") is None:
            renders += 1
            cache.put("snapshot", b"x" * 44_000, ttl_s=ttl_s)
    return renders / hours


def test_ttl_sweep_regenerates():
    rows = []
    values = []
    for ttl in (60, 300, 900, 3600, 4 * 3600):
        rate = renders_per_hour(ttl)
        rows.append([f"{ttl} s", f"{rate:.1f}"])
        values.append(rate)
    print("\n\nAblation: cache TTL vs browser renders per hour "
          "(600 visitors/hour)")
    print(format_table(["TTL", "renders/hour"], rows))
    assert values == sorted(values, reverse=True)


def test_paper_ttl_amortizes_to_one_render_per_hour():
    rate = renders_per_hour(3600.0)
    assert rate == pytest.approx(1.0, abs=0.35)


def test_tiny_ttl_defeats_amortization():
    assert renders_per_hour(30.0) > 50


def test_render_rate_independent_of_traffic_when_saturated():
    """Once every TTL window has at least one visitor, more traffic costs
    nothing — the amortization claim."""
    low = renders_per_hour(3600.0, visitors_per_hour=100)
    high = renders_per_hour(3600.0, visitors_per_hour=10_000)
    assert high <= low + 0.5


def test_bench_cache_lookup(benchmark):
    cache = PrerenderCache(clock=Clock())
    cache.put("snapshot", b"x" * 44_000, ttl_s=3600)
    result = benchmark(lambda: cache.get("snapshot"))
    assert result is not None
