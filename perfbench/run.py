"""Run one perfbench workload once and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0`` (spans off),
the per-layer metrics with ``--trace 1`` (the benchmark's own spans on).
The exit status is non-zero when any response was wrong, a span
invariant failed, or the run was void.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program to measure under {ROOT / 'src'}")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.net.cookies import CookieJar  # noqa: E402
from repro.net.messages import Response  # noqa: E402

from perfbench import loadgen, spans, stages  # noqa: E402
from perfbench.loadgen import percentile  # noqa: E402
from perfbench.traces import (  # noqa: E402
    WORKLOADS,
    Trace,
    compile_trace,
    trace_hash,
)
from perfbench.workloads import (  # noqa: E402
    TARGETS,
    Deployment,
    Target,
    body_hash,
    deploy,
    fetch,
    oracle_hashes,
)

#: Set-ups per untraced run: at least ``SETUP_REPEATS`` (the first is
#: cold; more of the forum pre-render set-up, 2-12 s each as the box's
#: speed goes, would not fit the driver's time limit for all its runs),
#: and cheap ones (tens of milliseconds on the DOM-phase and news specs)
#: are repeated until ``SETUP_BUDGET_S`` is spent or
#: ``SETUP_REPEATS_MAX`` are done.  ``setup_s`` is their lower quartile
#: on the undisturbed machine's clock (see :func:`setup_seconds`), and
#: the last one serves the measured phase.
SETUP_REPEATS = 4
SETUP_REPEATS_MAX = 15
SETUP_BUDGET_S = 2.0
#: The stage spans are timed one call at a time beside the pipeline run
#: they split, not inside it, so on a page where they explain nearly
#: all of the run (~97% on the forum page, all of it on the news page)
#: their sum overshoots it: by timing noise, and by what a stage gains
#: from running inside the pipeline's warm caches (-1% to -11% of the
#: run on the news page, the larger in the box's slow minutes).  A
#: negative value is printed and the run stands, because a busy minute
#: on a shared box must not void it; only past this share of the run is
#: the attribution itself wrong (the parse counted twice, or stages the
#: run does not execute), and that fails the run.
UNATTRIBUTED_SLACK = 0.5
#: Blocks of the trace a latency percentile is taken over; see
#: :func:`block_percentile_ms`.
LATENCY_BLOCKS = 8
#: An open-loop run whose median send lag exceeds this is void: most
#: requests waited for a free client thread, so the generator, not the
#: program, set the latencies.  The undisturbed box reads 0.16-0.2 ms
#: and 0.35 ms at machine pace 1.9; ten runs in the box's worst quarter
#: of an hour (every request 2.5x slower, by wall time more than by the
#: reference's CPU clock) read 0.6-1.6 ms and are slow runs, not void
#: ones: the latency is counted from the due time, so it carries that
#: wait.
MAX_SEND_LAG_P50_MS = 5.0


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``, read
    from BENCHMARK.json so the names and units live in one place."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {metric["name"]: metric["unit"] for metric in declared[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _ms(value_ns: float) -> float:
    return value_ns / 1e6


def machine_pace(reference_ns: list[int]) -> float:
    """How slow the machine ran while a ``loadgen.SpeedReference`` took
    ``reference_ns``, against the baseline box's undisturbed state: 1.0
    there, ~1.5 in its slow state.

    The wall-time metrics are divided by it (throughput multiplied),
    so a value reads as "what this run measures on the undisturbed
    baseline box"; see ``loadgen.SpeedReference`` for why.  The raw
    values are printed beside them.
    """
    return percentile(reference_ns, 0.5) / loadgen.REFERENCE_CHUNK_NS


def setup_seconds(
    setups_s: list[float], reference_ns: list[int]
) -> tuple[float, float]:
    """(``setup_s``, the pace it was divided by) for one run's set-ups.

    The lower quartile, not the median: back-to-back set-ups on the
    baseline box come in two clusters (0.066 s and 0.118 s on
    ``full-adapt``) as its speed flips, a run's median lands in either,
    and interference only ever adds time.  The pace is not allowed
    below 1: beside the small set-ups the reference's data stays in the
    cache and its walk reads 0.4-0.65 of the undisturbed chunk, which no
    set-up profits from (divided by it, ``full-adapt`` read 0.082 s in
    one set of ten runs and 0.110 s in the next; so clamped, and by the
    quartile, four sets an hour apart read 0.067-0.076 s).  No reference
    sample at all (set-ups shorter than its period) also reads as 1.
    """
    pace = max(1.0, machine_pace(reference_ns)) if reference_ns else 1.0
    return percentile(setups_s, 0.25) / pace, pace


def _p_ms(samples_ns: list[int], q: float) -> float:
    return _ms(percentile(samples_ns, q))


def block_percentile_ms(samples_ns: list[int], q: float) -> float:
    """The median, over ``LATENCY_BLOCKS`` consecutive blocks of the
    trace, of each block's ``q`` percentile.

    One stall (a run whose p99 reads 140 ms where its neighbours read
    15) delays a dozen neighbouring requests; pooled over the run that
    moves the p90's rank by a percent and its value by 10-20%, while
    here it spoils one block and the median passes it by (twelve
    ``warm-arrivals`` seeds: spread 0.10 pooled, 0.05 by blocks).  What
    this statistic no longer sees, the pooled p99 does.
    """
    size = len(samples_ns) // LATENCY_BLOCKS
    if size == 0:
        return _p_ms(samples_ns, q)
    return _ms(statistics.median(
        percentile(samples_ns[begin:begin + size], q)
        for begin in range(0, size * LATENCY_BLOCKS, size)
    ))


class Report:
    """Metric values with their sample counts, printed as they land."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}

    def put(self, name: str, value: float, samples: int) -> None:
        self.values[name] = value
        print(f"  {name:<44} {value:>14.4f}   n={samples}")

    @staticmethod
    def note(text: str) -> None:
        print(f"  {text}")


def quiesced_failures(deployment: Deployment) -> tuple[int, int]:
    """(checked, wrong) over one quiet visit of each surface path,
    against the oracle on the origin's final revision."""
    target = deployment.target
    oracle = oracle_hashes(
        target, revisions=deployment.origin.newsroom.revision_count
    )
    jar = CookieJar()
    wrong = 0
    for path in target.surface:
        response = fetch(deployment.cluster, path, jar)
        if response.status != 200 or body_hash(response.body) != oracle[path]:
            wrong += 1
    return len(target.surface), wrong


def _revise(deployment: Deployment) -> Optional[Callable[[], object]]:
    if deployment.target.mutates_origin:
        return deployment.origin.newsroom.revise
    return None


def _send_lags_ns(replay: loadgen.Replay) -> list[int]:
    return [o.send_ns - o.start_ns for o in replay.outcomes]


def _void_reasons(trace: Trace, replay: loadgen.Replay) -> list[str]:
    if trace.loop != "open":
        return []
    lag = _p_ms(_send_lags_ns(replay), 0.5)
    if lag > MAX_SEND_LAG_P50_MS:
        return [f"void: median send lag {lag:.3f} ms exceeds "
                f"{MAX_SEND_LAG_P50_MS} ms"]
    return []


# -- untraced: the end-to-end metrics ---------------------------------------


def run_untraced(
    target: Target,
    trace: Trace,
    report: Report,
    tamper: Optional[Callable[[Response], Response]],
) -> tuple[int, int, list[str]]:
    setups_s = []
    deployment = None
    with loadgen.SpeedReference() as setup_reference:
        while len(setups_s) < SETUP_REPEATS or (
            len(setups_s) < SETUP_REPEATS_MAX
            and sum(setups_s) < SETUP_BUDGET_S
        ):
            if deployment is not None:
                deployment.close()
                deployment = None
                gc.collect()
            started = time.perf_counter()
            deployment = deploy(target)
            setups_s.append(time.perf_counter() - started)
    try:
        oracle = None if target.mutates_origin else oracle_hashes(target)
        gc.collect()
        replay = loadgen.replay(
            trace, deployment.cluster, oracle,
            revise=_revise(deployment), tamper=tamper,
        )
        attempted, failed = len(replay.outcomes), replay.failed
        if target.mutates_origin:
            checked, wrong = quiesced_failures(deployment)
            attempted += checked
            failed += wrong
    finally:
        deployment.close()
    latencies = replay.latencies_ns
    samples = len(latencies)
    pace = machine_pace(replay.reference_ns)
    setup_s, setup_pace = setup_seconds(
        setups_s, setup_reference.samples_ns
    )
    raw_p50 = block_percentile_ms(latencies, 0.50)
    raw_p90 = block_percentile_ms(latencies, 0.90)
    raw_goodput = replay.good / (replay.wall_ns / 1e9)
    report.put("latency_p50_ms", raw_p50 / pace, samples)
    report.put("latency_p90_ms", raw_p90 / pace, samples)
    # An open loop's goodput is set by the schedule, not by the
    # machine's pace: it is reported as measured.
    report.put(
        "goodput_rps",
        raw_goodput if trace.loop == "open" else raw_goodput * pace,
        samples,
    )
    report.put(
        "bytes_per_request",
        sum(o.body_bytes for o in replay.outcomes) / samples, samples,
    )
    report.put("setup_s", setup_s, len(setups_s))
    report.put(
        "peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1,
    )
    report.note(
        f"machine pace {setup_pace:.4f} "
        f"(n={len(setup_reference.samples_ns)}) over the set-ups; as "
        "measured (s): " + ", ".join(f"{value:.3f}" for value in setups_s)
    )
    report.note(
        f"machine pace {pace:.4f} (n={len(replay.reference_ns)}); as "
        f"measured: latency_p50_ms {raw_p50:.4f}, latency_p90_ms "
        f"{raw_p90:.4f}, goodput_rps {raw_goodput:.4f}"
    )
    report.note(
        f"latency_p99_ms {_p_ms(latencies, 0.99) / pace:.4f} "
        f"(meaningful from 1,000 requests up; n={samples})"
    )
    report.note(f"send lag p50 {_p_ms(_send_lags_ns(replay), 0.5):.4f} ms")
    rendered = [
        latency
        for latency, planned in zip(latencies, trace.requests)
        if planned.refresh and target.prerenders
    ]
    if rendered:
        report.note(
            f"render_p50_ms {_p_ms(rendered, 0.5) / pace:.1f} "
            f"(requests that paid a browser render; n={len(rendered)})"
        )
    return attempted, failed, _void_reasons(trace, replay)


# -- traced: the per-layer metrics ------------------------------------------

_COUNTERS = {
    "requests": "msite_cluster_requests_total",
    "offshard": "msite_cluster_offshard_total",
    "spillovers": "msite_cluster_spillovers_total",
    "rejected": "msite_executor_rejected_total",
    "queue_depth_peak": "msite_executor_queue_depth_peak",
    "fastpath_hits": "msite_fastpath_hits_total",
    "fastpath_misses": "msite_fastpath_misses_total",
    "fastpath_stores": "msite_fastpath_stores_total",
    "cache_hits": "msite_cache_hits_total",
    "cache_misses": "msite_cache_misses_total",
    "stampedes": "msite_cache_stampedes_suppressed_total",
    "delta_applied": "msite_delta_applied_total",
    "delta_fallbacks": "msite_delta_fallbacks_total",
    "delta_patched": "msite_delta_patched_segments_total",
    "renders": "msite_proxy_browser_renders_total",
    "pool_queue_waits": "msite_pool_queue_waits_total",
}


def read_counts(deployment: Deployment) -> dict[str, float]:
    """Counts from the deployment's public registry, never times."""
    families = {
        family.name: sum(
            child.value for child in family.sorted_children()
        )
        for family in deployment.cluster.rollup().collect()
        if family.kind in ("counter", "gauge")
    }
    counts = {
        key: families.get(name, 0.0) for key, name in _COUNTERS.items()
    }
    counts["sessions"] = float(len(deployment.cluster.sessions))
    return counts


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def expected_page_fetches(trace: Trace) -> tuple[int, int]:
    """(least, most) origin page fetches the trace's traced requests
    imply: exactly one per first visit and per forced refresh (both
    always reach the pipeline), at most one for any other request (a
    returning session re-fetches only on a worker that holds no memo
    for it)."""
    traced = [
        planned for planned in trace.requests
        if loadgen.is_traced(planned.index)
    ]
    certain = sum(
        1 for planned in traced if planned.first_visit or planned.refresh
    )
    return certain, len(traced)


def run_traced(
    target: Target, trace: Trace, report: Report, trace_out: Optional[str]
) -> tuple[int, int, list[str]]:
    tracer = spans.Tracer()
    page_path = target.make_spec().page_path
    wrapped: list[spans.TracedOrigin] = []

    def wrap_origin(origin):
        wrapped.append(spans.TracedOrigin(tracer, origin, page_path))
        return wrapped[0]

    deployment = deploy(
        target,
        wrap_origin=wrap_origin,
        wrap_proxy=lambda proxy: spans.trace_proxy(tracer, proxy),
    )
    try:
        oracle = None if target.mutates_origin else oracle_hashes(target)
        gc.collect()
        before = read_counts(deployment)
        replay = loadgen.replay(
            trace, spans.TracedCluster(tracer, deployment.cluster),
            oracle, revise=_revise(deployment), tracer=tracer,
        )
        after = read_counts(deployment)
        attempted, failed = len(replay.outcomes), replay.failed
        if target.mutates_origin:
            checked, wrong = quiesced_failures(deployment)
            attempted += checked
            failed += wrong
        entries = len(deployment.cluster.shared_cache.cache)
        request_spans = list(tracer.spans)
        staged = stages.stage_replay(deployment, tracer, target.prerenders)
    finally:
        deployment.close()
    if trace_out:
        tracer.write_ndjson(trace_out)
        report.note(f"{len(tracer.spans)} spans written to {trace_out}")

    counts = {key: after[key] - before[key] for key in after}
    samples = len(replay.outcomes)
    traced = sum(1 for o in replay.outcomes if loadgen.is_traced(o.index))
    latencies = replay.latencies_ns
    lags = _send_lags_ns(replay)
    self_ns = spans.self_times_ns(request_spans)
    by_name: dict[str, list[spans.Span]] = {}
    for span in request_spans:
        by_name.setdefault(span.name, []).append(span)
    cluster_spans = by_name.get("cluster.handle", [])
    proxy_spans = by_name.get("core.proxy.handle", [])
    origin_spans = by_name.get("sites.origin_handle", [])
    fetches = wrapped[0].fetches

    put = report.put
    put("loadgen.send_lag_p50_ms", _p_ms(lags, 0.5), samples)
    put("loadgen.send_lag_p99_ms", _p_ms(lags, 0.99), samples)
    put("loadgen.latency_p99_ms", _p_ms(latencies, 0.99), samples)
    put("loadgen.machine_pace", machine_pace(replay.reference_ns),
        len(replay.reference_ns))
    # Compared over the requests that always run the pipeline (first
    # visits and refreshes): one kind of work, so the two medians sit
    # inside one mode instead of on the seam between memo hits and
    # pipeline runs.
    with_spans, without = [], []
    for planned, latency in zip(trace.requests, latencies):
        if planned.first_visit or planned.refresh:
            group = with_spans if loadgen.is_traced(planned.index) else without
            group.append(latency)
    put(
        "loadgen.trace_overhead_share",
        percentile(with_spans, 0.5) / percentile(without, 0.5) - 1.0,
        len(without),
    )
    durations = [s.duration_ns for s in cluster_spans]
    overheads = [self_ns[s.id] for s in cluster_spans]
    put("cluster.handle_p50_ms", _p_ms(durations, 0.5), len(durations))
    put("cluster.overhead_p50_ms", _p_ms(overheads, 0.5), len(overheads))
    put("cluster.overhead_p99_ms", _p_ms(overheads, 0.99), len(overheads))
    put("cluster.offshard_share",
        _share(counts["offshard"], counts["requests"]), samples)
    put("cluster.spillover_share",
        _share(counts["spillovers"], counts["requests"]), samples)
    put("runtime.rejected", counts["rejected"], samples)
    put("runtime.queue_depth_peak", after["queue_depth_peak"], samples)
    durations = [s.duration_ns for s in proxy_spans]
    put("core.proxy.handle_p50_ms", _p_ms(durations, 0.5), len(durations))
    put("core.proxy.handle_p99_ms", _p_ms(durations, 0.99), len(durations))
    put("core.proxy.self_p50_ms",
        _p_ms([self_ns[s.id] for s in proxy_spans], 0.5), len(proxy_spans))
    put("core.sessions.created", counts["sessions"], samples)
    put("net.origin_fetches_per_request", len(fetches) / traced, traced)
    put("net.origin_bytes_per_request",
        sum(size for _, _, size in fetches) / traced, traced)
    put("sites.origin_handle_p50_ms",
        _p_ms([s.duration_ns for s in origin_spans], 0.5),
        len(origin_spans))
    lookups = counts["fastpath_hits"] + counts["fastpath_misses"]
    put("core.fastpath.hit_ratio",
        _share(counts["fastpath_hits"], lookups), int(lookups))
    put("core.fastpath.hits", counts["fastpath_hits"], int(lookups))
    put("core.fastpath.stores", counts["fastpath_stores"], samples)
    lookups = counts["cache_hits"] + counts["cache_misses"]
    put("core.cache.hit_ratio",
        _share(counts["cache_hits"], lookups), int(lookups))
    put("core.cache.stampedes_suppressed", counts["stampedes"], int(lookups))
    put("core.cache.entries", float(entries), 1)
    attempts = counts["delta_applied"] + counts["delta_fallbacks"]
    put("core.delta.applied_share",
        _share(counts["delta_applied"], attempts), int(attempts))
    put("core.delta.fallbacks", counts["delta_fallbacks"], int(attempts))
    put("core.delta.patched_segments_per_apply",
        _share(counts["delta_patched"], counts["delta_applied"]),
        int(counts["delta_applied"]))
    put("browser.renders", counts["renders"], samples)
    put("browser.pool_queue_waits", counts["pool_queue_waits"], samples)

    stage_p50 = {
        name: percentile(values, 0.5)
        for name, values in staged.samples.items()
    }
    for name, values in staged.samples.items():
        if name == "core.pipeline.run_nodelta":
            continue
        if name in ("core.cache.get", "core.cache.put", "cluster.route"):
            put(f"{name}_p50_us", stage_p50[name] / 1e3, len(values))
        else:
            put(f"{name}_p50_ms", _ms(stage_p50[name]), len(values))
    # Differences are taken inside each sample, whose calls run within
    # ~0.1 s of each other, and the median is over those differences:
    # a difference of two medians lands on either side of the seam when
    # the machine changes speed half-way through the samples.
    nodelta_runs = staged.samples["core.pipeline.run_nodelta"]
    heavy = len(nodelta_runs)
    nodelta = stage_p50["core.pipeline.run_nodelta"]
    put(
        "core.delta.seed_p50_ms",
        _ms(percentile(
            [
                run - bare
                for run, bare in zip(
                    staged.samples["core.pipeline.run"], nodelta_runs
                )
            ],
            0.5,
        )),
        heavy,
    )
    unattributed = percentile(
        [
            bare - sum(staged.samples[name][i] for name in stages.RUN_STAGES)
            for i, bare in enumerate(nodelta_runs)
        ],
        0.5,
    )
    put("core.pipeline.unattributed_p50_ms", _ms(unattributed), heavy)
    for name, size in staged.sizes.items():
        put(name, float(size), 1)

    problems = spans.invariant_failures(tracer.spans)
    if len(cluster_spans) != traced or len(proxy_spans) != traced:
        problems.append(
            f"{traced} traced requests left {len(cluster_spans)} cluster "
            f"and {len(proxy_spans)} proxy spans"
        )
    if unattributed < -UNATTRIBUTED_SLACK * nodelta:
        problems.append(
            "the stage spans add up to more than the pipeline run they "
            f"split: unattributed {_ms(unattributed):.3f} ms of "
            f"{_ms(nodelta):.3f} ms"
        )
    page_fetches = sum(1 for _, is_page, _ in fetches if is_page)
    least, most = expected_page_fetches(trace)
    if not least <= page_fetches <= most:
        problems.append(
            f"{page_fetches} origin page fetches; the trace implies "
            f"{least}..{most}"
        )
    refreshes = sum(1 for planned in trace.requests if planned.refresh)
    expected_renders = refreshes if target.prerenders else 0
    if counts["renders"] != expected_renders:
        problems.append(
            f"{counts['renders']:.0f} browser renders; the trace implies "
            f"{expected_renders}"
        )
    return attempted, failed, problems + _void_reasons(trace, replay)


# -- entry point -------------------------------------------------------------


def main(
    argv: Optional[list[str]] = None,
    tamper: Optional[Callable[[Response], Response]] = None,
) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-out", help="write the traced run's spans here as NDJSON"
    )
    args = parser.parse_args(argv)
    # One core for the whole process, before any thread exists (threads
    # inherit it).  The program is pure Python, so the GIL allows it one
    # core anyway; left free to roam over both vCPUs, the same 84
    # requests cost 5.1-8.1 s of CPU from run to run as the GIL bounced
    # between cold caches.
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(allowed)})
    except OSError as exc:
        # A sandbox may forbid the call or the CPU; the run is then only
        # noisier, not wrong.
        print(f"perfbench: not pinned to one CPU ({exc})", file=sys.stderr)
    try:
        return _measure(args, tamper)
    finally:
        # For callers that go on living (the tests call ``main``); a
        # CPU set that changed under the run is no reason to fail it.
        try:
            os.sched_setaffinity(0, allowed)
        except OSError:
            pass


def _measure(
    args: argparse.Namespace,
    tamper: Optional[Callable[[Response], Response]],
) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics()[kind]
    target = TARGETS[args.workload]
    trace = compile_trace(args.workload, args.seed, args.seconds)
    print(
        f"perfbench {args.workload} ({trace.loop} loop, "
        f"{len(trace.requests)} requests, seed {args.seed}, "
        f"{'spans on' if args.trace else 'spans off'})"
    )
    print(f"  trace sha256 {trace_hash(trace)}")
    report = Report()
    if args.trace:
        attempted, failed, problems = run_traced(
            target, trace, report, args.trace_out
        )
    else:
        attempted, failed, problems = run_untraced(
            target, trace, report, tamper
        )
    for problem in problems:
        print(f"  FAILED: {problem}")
        # Also where a harness that keeps only the tail of stderr looks.
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    if set(report.values) != set(units):
        raise RuntimeError(
            "metrics out of step with BENCHMARK.json: "
            f"{sorted(set(report.values) ^ set(units))}"
        )
    correct = failed == 0 and not problems
    if failed:
        print(
            f"perfbench: {failed} of {attempted} responses wrong",
            file=sys.stderr,
        )
    print(f"  failed_share {failed / attempted:.6f}   n={attempted}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": report.values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
