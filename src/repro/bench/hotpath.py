"""The adaptation hot path under a warm cache: fast path vs full runs.

The paper's scalability argument (Figure 7: 224 req/min through real
rendering vs 29,038 through the proxy's caches) is about how much
per-request work the server can skip.  This bench measures the same
thing for the adaptation core introduced with the fast path:

* **warm** — the forum workload against a deployment with the
  adapted-response cache on.  Every request is a *new* session (fresh
  cookie jar), so hits are genuinely cross-session replays, not the
  proxy's per-session memoization.
* **baseline** — the identical workload with ``fastpath_enabled=False``:
  every request pays fetch → filter → parse → attributes → serialize.
* **stream** — a filter-only spec emitted through the one-pass streaming
  serializer vs the DOM round-trip (fast path off for both sides, so the
  comparison isolates the serializer).

Results go to ``BENCH_pipeline.json``; see ``docs/PERFORMANCE.md`` for
how to read them.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from repro.core import fastpath
from repro.core.codegen import generate_proxy_source, load_generated_proxy
from repro.core.pipeline import ProxyServices
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.sites.forum.app import ForumApplication
from repro.workload.replay import percentile

FORUM_HOST = "www.sawmillcreek.org"
PROXY_HOST = "m.sawmillcreek.org"
ENTRY_URL = f"http://{PROXY_HOST}/proxy.php"


def forum_spec() -> AdaptationSpec:
    """The bench spec: subpage splitting, no browser rendering.

    Prerender is deliberately absent so both sides measure the
    lightweight adaptation core rather than the (cached) renderer.
    """
    spec = AdaptationSpec(site="SawmillCreek", origin_host=FORUM_HOST)
    spec.add("cacheable", ttl_s=3600)
    spec.add(
        "subpage", ObjectSelector.css("#loginform"),
        subpage_id="login", title="Log in",
    )
    spec.add(
        "subpage", ObjectSelector.css("#forumbits"),
        subpage_id="forums", title="Forums",
    )
    return spec


def filter_spec() -> AdaptationSpec:
    """A stream-eligible spec: source filters plus page flags only."""
    spec = AdaptationSpec(site="SawmillCreek", origin_host=FORUM_HOST)
    spec.add("strip_scripts")
    spec.add("rewrite_images", quality="low")
    spec.add("cacheable", ttl_s=3600)
    return spec


def _deploy(spec: AdaptationSpec, **service_flags: Any):
    services = ProxyServices(
        origins={FORUM_HOST: ForumApplication()}, **service_flags
    )
    proxy = load_generated_proxy(
        generate_proxy_source(spec)
    ).create_proxy(services)
    return proxy, services


def _drive(
    proxy,
    requests: int,
    clock: Optional[Callable[[], float]] = None,
) -> dict:
    """Fetch the entry page ``requests`` times, one fresh session each."""
    clock = clock or time.perf_counter
    latencies = []
    for _ in range(max(1, requests)):
        client = HttpClient({PROXY_HOST: proxy}, jar=CookieJar())
        started = clock()
        response = client.get(ENTRY_URL)
        latencies.append(clock() - started)
        if response.status != 200:
            raise RuntimeError(
                f"bench request failed with {response.status}"
            )
    total = sum(latencies)
    return {
        "requests": len(latencies),
        "total_s": total,
        "p50_ms": percentile(latencies, 0.50) * 1000.0,
        "p99_ms": percentile(latencies, 0.99) * 1000.0,
        "adapts_per_sec": len(latencies) / total if total > 0 else 0.0,
    }


def _fastpath_value(services: ProxyServices, name: str) -> float:
    return services.observability.registry.counter(
        f"msite_fastpath_{name}_total"
    ).value


def run_hotpath_bench(
    requests: int = 60,
    clock: Optional[Callable[[], float]] = None,
) -> dict:
    """The full comparison; returns the ``BENCH_pipeline.json`` payload."""
    warm_proxy, warm_services = _deploy(forum_spec())
    warm = _drive(warm_proxy, requests, clock)
    hits = _fastpath_value(warm_services, "hits")
    misses = _fastpath_value(warm_services, "misses")
    lookups = hits + misses
    warm["fastpath_hits"] = hits
    warm["fastpath_misses"] = misses
    warm["fastpath_hit_ratio"] = hits / lookups if lookups else 0.0
    # A warm hit should also be fetch-free: the forum origin emits
    # ETags, so every request after the first revalidates with a 304.
    warm["origin_not_modified"] = fastpath.revalidation_counter(
        warm_services.observability.registry, "not_modified"
    ).value

    base_proxy, __ = _deploy(forum_spec(), fastpath_enabled=False)
    baseline = _drive(base_proxy, requests, clock)

    stream_proxy, stream_services = _deploy(
        filter_spec(), fastpath_enabled=False
    )
    stream = _drive(stream_proxy, requests, clock)
    stream["streamed"] = _fastpath_value(stream_services, "stream")
    dom_proxy, __ = _deploy(
        filter_spec(), fastpath_enabled=False, stream_enabled=False
    )
    dom = _drive(dom_proxy, requests, clock)

    return {
        "workload": "forum entry page, one fresh session per request",
        "requests": requests,
        "warm": warm,
        "baseline": baseline,
        "speedup": (
            warm["adapts_per_sec"] / baseline["adapts_per_sec"]
            if baseline["adapts_per_sec"]
            else 0.0
        ),
        "stream": {
            "stream_on": stream,
            "stream_off": dom,
            "speedup": (
                stream["adapts_per_sec"] / dom["adapts_per_sec"]
                if dom["adapts_per_sec"]
                else 0.0
            ),
        },
    }


def format_report(results: dict) -> str:
    """Console summary of one bench run."""
    from repro.bench.reporting import format_table

    warm = results["warm"]
    baseline = results["baseline"]
    stream = results["stream"]
    table = format_table(
        ["configuration", "p50 ms", "p99 ms", "adapts/sec"],
        [
            [
                "fast path (warm)", warm["p50_ms"], warm["p99_ms"],
                warm["adapts_per_sec"],
            ],
            [
                "full pipeline", baseline["p50_ms"], baseline["p99_ms"],
                baseline["adapts_per_sec"],
            ],
            [
                "stream serializer", stream["stream_on"]["p50_ms"],
                stream["stream_on"]["p99_ms"],
                stream["stream_on"]["adapts_per_sec"],
            ],
            [
                "DOM round-trip", stream["stream_off"]["p50_ms"],
                stream["stream_off"]["p99_ms"],
                stream["stream_off"]["adapts_per_sec"],
            ],
        ],
    )
    return (
        f"{table}\n"
        f"fast-path hit ratio: {warm['fastpath_hit_ratio']:.2f} "
        f"({warm['fastpath_hits']:.0f} hits / "
        f"{warm['fastpath_misses']:.0f} misses, "
        f"{warm['origin_not_modified']:.0f} origin 304s)\n"
        f"warm speedup: {results['speedup']:.1f}x, "
        f"stream speedup: {stream['speedup']:.1f}x"
    )
