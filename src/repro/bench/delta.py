"""The delta fast path under content churn: patch vs full replay.

The fast path (``bench-adapt``) measures what a warm cache *hit* saves;
this bench measures the warm cache *miss* — the case the delta engine
(:mod:`repro.core.delta`) exists for.  The workload is the
``content-churn`` shape: readers keep hitting the storable news front
while the newsroom publishes revisions, so a configurable fraction of
requests arrive to find the origin changed since its last render.

Two identical deployments replay the same deterministic revision
stream:

* **delta** — ``delta_enabled=True``: a changed page is re-adapted by
  diffing segments against the memo and patching the cached bundle.
* **full**  — ``delta_enabled=False``: every content change replays the
  whole pipeline (filter → parse → attributes → serialize → emit).

Only the requests that *coincide with a revision* (the warm misses) are
compared — everything else is a plain fast-path hit on both sides and
would dilute the measurement.  The run also enforces the delta
invariant end to end: both sides must serve byte-identical bodies at
every step, revision by revision.

A third section measures the *session* delta: a returning client that
kept its last entry body re-requests with ``X-MSite-Delta-Since`` and
receives a patch manifest instead of the page — the wire-bytes half of
the paper's "ship only what changed" argument.

Results land in ``BENCH_pipeline.json`` under ``delta_churn``; see
``docs/DELTA.md`` for how to read them.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from repro.core.codegen import generate_proxy_source, load_generated_proxy
from repro.core.pipeline import ProxyServices
from repro.core.proxy import SESSION_DELTA_CONTENT_TYPE
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.sites.news.app import NewsApplication
from repro.sites.news.data import Newsroom
from repro.sites.news.spec import NEWS_HOST, news_fastpath_spec
from repro.workload.replay import percentile

PROXY_HOST = "m.metroherald.com"
ENTRY_URL = f"http://{PROXY_HOST}/proxy.php"

#: Seed shared by both sides' newsrooms so their revision streams are
#: byte-identical — the precondition for the differential check.
NEWSROOM_SEED = 0xD1FF

#: A metro-daily section carries on the order of a hundred stories —
#: and the comparison only means something at a realistic page weight:
#: full-replay cost scales with the *origin* size (parse + paginate the
#: whole headline river) while the delta attempt scales with the
#: *change* size (one revised teaser), which is the asymmetry the
#: engine exists to exploit.
ARTICLES_PER_SECTION = 96


def _deploy(**service_flags: Any):
    app = NewsApplication(
        Newsroom(
            seed=NEWSROOM_SEED,
            articles_per_section=ARTICLES_PER_SECTION,
        )
    )
    services = ProxyServices(origins={NEWS_HOST: app}, **service_flags)
    proxy = load_generated_proxy(
        generate_proxy_source(news_fastpath_spec())
    ).create_proxy(services)
    return proxy, services, app


def _delta_value(services: ProxyServices, name: str) -> float:
    return services.observability.registry.counter(
        f"msite_delta_{name}_total"
    ).value


def _drive_churn(
    requests: int,
    churn: float,
    delta_enabled: bool,
    clock: Optional[Callable[[], float]] = None,
) -> dict:
    """One side of the comparison: entry requests under revisions.

    Every ``round(1/churn)``-th request is preceded by one newsroom
    revision, making it a warm miss; each request uses a fresh session
    so replays are genuinely cross-session.  Returns latency splits,
    the delta counters, and the full body stream (for the differential
    check against the other side).
    """
    clock = clock or time.perf_counter
    proxy, services, app = _deploy(delta_enabled=delta_enabled)
    every = max(2, int(round(1.0 / churn))) if churn > 0 else 0
    readapt: list[float] = []
    warm: list[float] = []
    bodies: list[bytes] = []
    for index in range(max(1, requests)):
        mutated = every > 0 and index > 0 and index % every == 0
        if mutated:
            app.newsroom.revise()
        client = HttpClient({PROXY_HOST: proxy}, jar=CookieJar())
        started = clock()
        response = client.get(ENTRY_URL)
        elapsed = clock() - started
        if response.status != 200:
            raise RuntimeError(
                f"bench request failed with {response.status}"
            )
        (readapt if mutated else warm).append(elapsed)
        bodies.append(response.body)
    side = {
        "requests": requests,
        "revisions": app.newsroom.revision_count,
        "readapt_requests": len(readapt),
        "readapt_p50_ms": percentile(readapt, 0.50) * 1000.0,
        "readapt_p99_ms": percentile(readapt, 0.99) * 1000.0,
        "warm_hit_p50_ms": percentile(warm, 0.50) * 1000.0,
    }
    if delta_enabled:
        for name in ("deferred", "seeds", "applied", "identical",
                     "fallbacks", "patched_segments"):
            side[f"delta_{name}"] = _delta_value(services, name)
        # What the warm misses that needed a memo paid to build it —
        # inside their own re-adaptation latencies above.
        seed_seconds = services.observability.registry.histogram(
            "msite_delta_seed_seconds"
        ).snapshot()
        side["delta_seed_p50_ms"] = seed_seconds.p50 * 1000.0
        side["delta_seed_total_ms"] = seed_seconds.sum * 1000.0
    return side, bodies


def _drive_session_delta(revisions: int) -> dict:
    """Wire bytes for a returning session: manifest vs full page.

    One persistent client fetches the entry; then each revision is
    followed by the fleet-invalidation signal (``forget_adapted``, what
    the cluster bus delivers when a page is superseded) and a
    re-request advertising the body the client holds via
    ``X-MSite-Delta-Since``.  Reports how many responses arrived as
    patch manifests and the byte ratio against refetching full pages.
    """
    proxy, services, app = _deploy(delta_enabled=True)
    client = HttpClient({PROXY_HOST: proxy}, jar=CookieJar())
    response = client.get(ENTRY_URL)
    if response.status != 200:
        raise RuntimeError("session delta warm-up failed")
    etag = response.headers.get("ETag") or ""
    full_bytes = 0
    wire_bytes = 0
    manifests = 0
    for _ in range(max(1, revisions)):
        app.newsroom.revise()
        proxy.forget_adapted()
        response = client.get(ENTRY_URL, X_MSite_Delta_Since=etag)
        if response.status != 200:
            raise RuntimeError("session delta request failed")
        wire_bytes += len(response.body)
        if response.headers.get("Content-Type") == SESSION_DELTA_CONTENT_TYPE:
            manifests += 1
            # What a client without the baseline would have downloaded.
            probe = HttpClient({PROXY_HOST: proxy}, jar=CookieJar())
            full = probe.get(ENTRY_URL)
            full_bytes += len(full.body)
        else:
            full_bytes += len(response.body)
        etag = response.headers.get("ETag") or etag
    return {
        "revisions": revisions,
        "manifests": manifests,
        "fallbacks": int(_delta_value(services, "session_fallback")),
        "wire_bytes": wire_bytes,
        "full_bytes": full_bytes,
        "wire_fraction": (
            wire_bytes / full_bytes if full_bytes else 0.0
        ),
    }


def run_delta_bench(
    requests: int = 220,
    churn: float = 0.1,
    clock: Optional[Callable[[], float]] = None,
) -> dict:
    """The full comparison; returns the ``delta_churn`` payload.

    Raises ``RuntimeError`` if the two sides ever serve different
    bytes — the bench doubles as an end-to-end differential check of
    the delta invariant under the real revision stream.
    """
    delta_side, delta_bodies = _drive_churn(
        requests, churn, delta_enabled=True, clock=clock
    )
    full_side, full_bodies = _drive_churn(
        requests, churn, delta_enabled=False, clock=clock
    )
    mismatches = sum(
        1 for ours, theirs in zip(delta_bodies, full_bodies)
        if ours != theirs
    )
    if mismatches:
        raise RuntimeError(
            f"delta invariant violated: {mismatches}/{requests} responses "
            "differ from the full-replay deployment"
        )
    session = _drive_session_delta(
        max(4, delta_side["readapt_requests"])
    )
    return {
        "workload": (
            "news front under newsroom revisions, one fresh session "
            "per request"
        ),
        "requests": requests,
        "churn": churn,
        "byte_identical": True,
        "delta": delta_side,
        "full": full_side,
        "readapt_speedup": (
            full_side["readapt_p50_ms"] / delta_side["readapt_p50_ms"]
            if delta_side["readapt_p50_ms"]
            else 0.0
        ),
        "session": session,
    }


def format_report(results: dict) -> str:
    """Console summary of one bench run."""
    from repro.bench.reporting import format_table

    delta = results["delta"]
    full = results["full"]
    session = results["session"]
    table = format_table(
        ["configuration", "re-adapt p50 ms", "re-adapt p99 ms",
         "warm hit p50 ms"],
        [
            [
                "delta fast path", delta["readapt_p50_ms"],
                delta["readapt_p99_ms"], delta["warm_hit_p50_ms"],
            ],
            [
                "full replay", full["readapt_p50_ms"],
                full["readapt_p99_ms"], full["warm_hit_p50_ms"],
            ],
        ],
    )
    return (
        f"{table}\n"
        f"{delta['readapt_requests']} re-adaptations over "
        f"{delta['revisions']} revisions "
        f"(applied {delta.get('delta_applied', 0):.0f}, "
        f"identical {delta.get('delta_identical', 0):.0f}, "
        f"fallbacks {delta.get('delta_fallbacks', 0):.0f}, "
        f"{delta.get('delta_patched_segments', 0):.0f} segments patched)\n"
        f"seeds: {delta.get('delta_deferred', 0):.0f} deferred by full "
        f"runs, {delta.get('delta_seeds', 0):.0f} built by warm misses "
        f"(build p50 {delta.get('delta_seed_p50_ms', 0.0):.2f} ms, "
        f"{delta.get('delta_seed_total_ms', 0.0):.1f} ms in all)\n"
        f"re-adapt speedup: {results['readapt_speedup']:.1f}x, "
        f"byte-identical to full replay: {results['byte_identical']}\n"
        f"session deltas: {session['manifests']}/{session['revisions']} "
        f"as manifests, wire bytes {session['wire_fraction']:.2f}x of "
        f"full pages"
    )
