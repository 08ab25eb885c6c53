"""Command-line interface for the m.Site tooling.

The admin-facing entry points a deployment actually uses:

* ``attributes`` — print the attribute menu (name + description),
* ``validate``   — check a spec JSON for consistency,
* ``generate``   — emit proxy shell source from a spec JSON,
* ``demo``       — run the built-in forum mobilization end to end and
  print what the proxy produced,
* ``metrics``    — drive the forum demo and print the deployment's
  Prometheus exposition (``GET /metrics``),
* ``trace``      — drive the forum demo and print the JSON dump of
  recent request traces (``GET /traces``),
* ``scalability`` — the Figure 7 sweep: the discrete-event model by
  default, or ``--real`` to drive actual threads through the concurrent
  runtime and report queue-wait / stampede-suppression metrics,
* ``chaos``      — drive the forum demo through a seeded fault schedule
  (failed/hung renders and origin fetches) and print the degradation
  report; exits non-zero if any request leaked a 500.

Run as ``python -m repro.cli <command>``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core.attributes import attribute_menu
from repro.core.codegen import generate_proxy_source
from repro.core.spec import AdaptationSpec
from repro.errors import MSiteError
from repro.sites.forum.spec import forum_demo_proxy


def _cmd_attributes(args: argparse.Namespace) -> int:
    menu = attribute_menu()
    width = max(len(name) for name, __ in menu)
    for name, description in menu:
        print(f"{name:<{width}}  {description}")
    return 0


def _load_spec(path: str) -> AdaptationSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return AdaptationSpec.from_json(handle.read())


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        spec = _load_spec(args.spec)
        spec.validate()
    except (OSError, ValueError, KeyError, MSiteError) as exc:
        print(f"invalid spec: {exc}", file=sys.stderr)
        return 1
    print(
        f"ok: {spec.site} ({len(spec.bindings)} bindings, "
        f"entry http://{spec.origin_host}{spec.page_path})"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    try:
        spec = _load_spec(args.spec)
        source = generate_proxy_source(spec, proxy_base=args.proxy_base)
    except (OSError, ValueError, KeyError, MSiteError) as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(f"wrote {args.output} ({len(source)} bytes)")
    else:
        print(source)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    proxy, mobile = forum_demo_proxy()
    entry = mobile.get("http://m.sawmillcreek.org/proxy.php")
    snapshot = mobile.get(
        "http://m.sawmillcreek.org/proxy.php?file=snapshot.jpg"
    )
    print("m.Site demo: mobilized the synthetic SawmillCreek forum")
    print(f"  entry page:     {len(entry.body):>7,} bytes "
          f"(original: 224,477)")
    print(f"  snapshot image: {len(snapshot.body):>7,} bytes")
    print(f"  map regions:    {entry.text_body.count('<area'):>7}")
    print(f"  counters:       {proxy.counters}")
    return 0


def _drive_forum(proxy, mobile, requests: int) -> None:
    """Issue a small representative workload against the forum proxy."""
    paths = ["", "?page=forums", "?file=snapshot.jpg", "?page=login"]
    for index in range(max(1, requests)):
        mobile.get(
            "http://m.sawmillcreek.org/proxy.php"
            + paths[index % len(paths)]
        )


def _cmd_metrics(args: argparse.Namespace) -> int:
    proxy, mobile = forum_demo_proxy()
    _drive_forum(proxy, mobile, args.requests)
    response = mobile.get("http://m.sawmillcreek.org/metrics")
    print(response.text_body, end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    proxy, mobile = forum_demo_proxy()
    _drive_forum(proxy, mobile, args.requests)
    response = mobile.get("http://m.sawmillcreek.org/traces")
    print(response.text_body)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.region_faults:
        return _cmd_region_chaos(args)
    from repro.resilience.chaos import format_report, run_chaos

    try:
        report = run_chaos(
            seed=args.seed,
            requests=args.requests,
            render_failure_rate=args.render_fail,
            origin_failure_rate=args.origin_fail,
            garbage_rate=args.garbage,
            warm=not args.cold,
            farm_faults=args.farm_faults,
            farm_consumers=args.farm_consumers,
        )
    except (ValueError, MSiteError) as exc:
        print(f"chaos run failed: {exc}", file=sys.stderr)
        return 1
    print(format_report(report))
    if report.internal_errors:
        print(
            f"FAIL: {report.internal_errors} requests leaked a 500",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_region_chaos(args: argparse.Namespace) -> int:
    """``msite chaos --region-faults [--smoke]``: kill one of two
    regions mid-workload and hold the run to zero non-degraded 5xx plus
    a fully-replayed invalidation log."""
    from repro.regions.chaos import format_region_report, run_region_chaos

    requests = min(args.requests, 60) if args.smoke else args.requests
    try:
        report = run_region_chaos(seed=args.seed, requests=requests)
    except (ValueError, MSiteError) as exc:
        print(f"region chaos run failed: {exc}", file=sys.stderr)
        return 1
    print(format_region_report(report))
    failed = False
    if report.non_degraded_5xx:
        print(
            f"FAIL: {report.non_degraded_5xx} non-degraded 5xx leaked "
            "through the failover",
            file=sys.stderr,
        )
        failed = True
    if not report.replay_caught_up:
        print(
            f"FAIL: healed region did not replay to the live offset "
            f"(head {report.log_head}, acked {report.acked})",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _cmd_autoscale_demo(args: argparse.Namespace) -> int:
    """A deterministic, sim-clock tour of the control loop.

    No threads, no fleet: a scripted flash-crowd metric trace drives
    the controller in decide-only mode while the demo book-keeps the
    simulated fleet size, then dumps the resulting ops event log as
    NDJSON — the same lines ``/ops/events.ndjson`` serves.
    """
    from repro.autoscale import Autoscaler, AutoscalerConfig, ControllerInputs
    from repro.ops import SequencedLog
    from repro.ops.stream import render_ndjson
    from repro.sim.clock import Clock

    # Queue depth / farm backlog per tick: calm, crowd, calm.
    queue_trace = [0, 1, 9, 24, 40, 36, 22, 9, 2, 1, 0, 0, 0, 0, 0, 0]
    backlog_trace = [0, 0, 3, 8, 12, 10, 6, 3, 1, 0, 0, 0, 0, 0, 0, 0]

    clock = Clock()
    ops = SequencedLog(name="ops", clock=clock)
    config = AutoscalerConfig(
        min_workers=1,
        max_workers=4,
        min_consumers=1,
        max_consumers=4,
        interval_s=0.25,
        cooldown_up_s=0.25,
        cooldown_down_s=1.0,
    )
    fleet = {"workers": 1, "consumers": 1}
    step = [0]

    def sample() -> ControllerInputs:
        index = min(step[0], len(queue_trace) - 1)
        return ControllerInputs(
            workers=fleet["workers"],
            queue_depth=queue_trace[index],
            consumers=fleet["consumers"],
            farm_backlog=backlog_trace[index],
        )

    scaler = Autoscaler(
        config=config, clock=clock, ops=ops, sampler=sample
    )
    print(
        f"{'t':>5}  {'queue':>5}  {'backlog':>7}  {'fleet':>7}  decision"
    )
    for tick in range(args.ticks):
        step[0] = tick
        inputs = sample()
        decision = scaler.tick()
        if decision.action != "hold":
            delta = 1 if decision.action == "up" else -1
            fleet[decision.target] += delta
        print(
            f"{clock.now:>5.2f}  {inputs.queue_depth:>5}  "
            f"{inputs.farm_backlog:>7}  "
            f"{fleet['workers']}w/{fleet['consumers']}c".rjust(7)
            + f"  {decision.action:<4} {decision.target:<9} "
            f"{decision.reason}"
        )
        clock.advance(config.interval_s)
    events = ops.retained()
    print(f"\nops event log ({len(events)} events, NDJSON):")
    print(render_ndjson(events), end="")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workload import format_report, run_scenario, scenario_names
    from repro.workload.scenarios import get_scenario

    if args.list:
        for name in scenario_names():
            scenario = get_scenario(name)
            print(f"{name:<16} [{scenario.site}] {scenario.description}")
        return 0
    if not args.scenario:
        print("workload: --scenario NAME or --list required", file=sys.stderr)
        return 2
    try:
        report = run_scenario(
            args.scenario,
            workers=args.workers,
            seed=args.seed,
            smoke=args.smoke,
            client_threads=args.clients,
            autoscale=args.autoscale,
            min_workers=args.min_workers,
        )
    except (KeyError, ValueError, MSiteError) as exc:
        print(f"workload run failed: {exc}", file=sys.stderr)
        return 1
    print(format_report(report))
    failed = False
    if report.non_degraded_5xx:
        print(
            f"FAIL: {report.non_degraded_5xx} non-degraded 5xx at warm "
            f"cache",
            file=sys.stderr,
        )
        failed = True
    if args.p99_budget_ms > 0 and report.p99_ms > args.p99_budget_ms:
        print(
            f"FAIL: p99 {report.p99_ms:.1f} ms over the "
            f"{args.p99_budget_ms:.0f} ms budget",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _cmd_scalability(args: argparse.Namespace) -> int:
    try:
        return _run_scalability(args)
    except (ValueError, MSiteError) as exc:
        print(f"scalability run failed: {exc}", file=sys.stderr)
        return 1


def _run_scalability(args: argparse.Namespace) -> int:
    if args.farm:
        return _run_farm_burst(args)
    percentages = (
        [float(p) for p in args.percentages.split(",")]
        if args.percentages
        else None
    )
    if args.workers is not None and not args.real:
        return _run_cluster_scalability(args, percentages)
    if args.real:
        from repro.bench.scalability import (
            ClosedLoopConfig,
            run_closed_loop_sweep,
        )

        shape = ClosedLoopConfig(
            workers=args.workers or 8,
            client_threads=8 if args.clients is None else args.clients,
            total_requests=args.requests,
            browser_service_s=args.browser_service_s,
        )
        results = run_closed_loop_sweep(shape, percentages)
        print(
            "Figure 7 (real thread pool): "
            f"{shape.workers} workers, {shape.client_threads} clients, "
            f"{args.requests} requests per point"
        )
        print(
            f"{'browser%':>8}  {'req/min':>12}  {'renders':>7}  "
            f"{'collapsed':>9}  {'q-wait ms':>9}  {'pool waits':>10}"
        )
        for result in results:
            print(
                f"{result.browser_fraction * 100:>7.0f}%  "
                f"{result.requests_per_minute:>12,.0f}  "
                f"{result.renders:>7}  "
                f"{result.stampedes_suppressed:>9}  "
                f"{result.queue_wait_mean_s * 1e3:>9.3f}  "
                f"{result.pool_queue_waits:>10}"
            )
        return 0

    from repro.bench.scalability import run_browser_percentage_sweep

    results = run_browser_percentage_sweep(percentages, use_pool=args.pool)
    print(
        "Figure 7 (discrete-event model): 2 cores, "
        f"pool={'on' if args.pool else 'off'}"
    )
    print(f"{'browser%':>8}  {'req/min':>12}  {'browser':>8}  {'light':>8}")
    for result in results:
        print(
            f"{result.browser_fraction * 100:>7.0f}%  "
            f"{result.mean_requests_per_minute:>12,.0f}  "
            f"{result.browser_requests:>8}  "
            f"{result.lightweight_requests:>8}"
        )
    return 0


def _run_farm_burst(args: argparse.Namespace) -> int:
    """The bursty (open-loop) Figure 7 variant: ``--farm [--smoke]``.

    Replays one seeded flash crowd against the inline-render seed
    architecture and against the render farm, and holds the farm side
    to zero non-degraded 5xx.  The full run additionally requires the
    inline baseline to saturate admission under the identical schedule
    (otherwise the burst was not a burst).
    """
    from repro.bench.crowd import (
        BURST,
        BURST_SMOKE,
        format_comparison,
        run_crowd_comparison,
    )

    smoke = getattr(args, "smoke", False)
    comparison = run_crowd_comparison(BURST_SMOKE if smoke else BURST)
    print(format_comparison(comparison))
    failed = False
    if comparison.candidate.non_degraded_5xx:
        print(
            f"FAIL: farm served {comparison.candidate.non_degraded_5xx} "
            "non-degraded 5xx under the burst",
            file=sys.stderr,
        )
        failed = True
    if not smoke and comparison.baseline.non_degraded_5xx == 0:
        print(
            "FAIL: inline baseline absorbed the burst without refusals — "
            "the schedule is not saturating; raise the peak rate",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _run_cluster_scalability(
    args: argparse.Namespace, percentages: Optional[list[float]]
) -> int:
    """The Figure 7 sweep per fleet size (``--workers N`` cluster mode)."""
    from dataclasses import replace

    from repro.bench.scalability import FLEET, run_closed_loop_sweep

    smoke = getattr(args, "smoke", False)
    if percentages is None:
        percentages = [1.0, 0.0] if smoke else [1.0, 0.50, 0.25, 0.10, 0.0]
    total_requests = 200 if smoke else args.requests
    fleet_sizes = (
        (1,) if args.workers == 1 else (1, args.workers)
    )
    results = run_closed_loop_sweep(
        replace(
            FLEET,
            client_threads=16 if args.clients is None else args.clients,
            total_requests=total_requests,
        ),
        percentages,
        fleet_sizes,
    )
    sweep = {
        fleet: [r for r in results if r.fleet_workers == fleet]
        for fleet in fleet_sizes
    }
    print(
        f"Figure 7 (cluster): fleet sizes {list(fleet_sizes)}, "
        f"{total_requests} requests per point, shared render cache"
    )
    failed = False
    for fleet in fleet_sizes:
        print(f"-- {fleet} worker{'s' if fleet != 1 else ''}")
        print(
            f"{'browser%':>8}  {'req/min':>12}  {'renders':>7}  "
            f"{'unique':>6}  {'collapsed':>9}  {'spill':>6}  {'offshard':>8}"
        )
        for result in sweep[fleet]:
            print(
                f"{result.browser_fraction * 100:>7.0f}%  "
                f"{result.requests_per_minute:>12,.0f}  "
                f"{result.renders:>7}  "
                f"{result.unique_render_keys:>6}  "
                f"{result.stampedes_suppressed:>9}  "
                f"{result.spillovers:>6}  "
                f"{result.offshard:>8}"
            )
            if result.renders != result.unique_render_keys:
                failed = True
                print(
                    f"FAIL: {result.renders} renders for "
                    f"{result.unique_render_keys} unique (page, device) "
                    f"pairs — duplicate renders in the fleet",
                    file=sys.stderr,
                )
    if len(fleet_sizes) > 1:
        base = {r.browser_fraction: r for r in sweep[1]}
        top = {r.browser_fraction: r for r in sweep[fleet_sizes[-1]]}
        zero = min(base)  # the lowest browser fraction measured
        if base[zero].requests_per_minute:
            speedup = (
                top[zero].requests_per_minute
                / base[zero].requests_per_minute
            )
            print(
                f"speedup at {zero * 100:.0f}% browser: "
                f"{speedup:.2f}x ({fleet_sizes[-1]} workers vs 1)"
            )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msite",
        description="m.Site content-adaptation tooling (Middleware 2012 "
        "reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "attributes", help="list the attribute menu"
    ).set_defaults(fn=_cmd_attributes)

    validate = commands.add_parser(
        "validate", help="validate a spec JSON file"
    )
    validate.add_argument("spec", help="path to the spec JSON")
    validate.set_defaults(fn=_cmd_validate)

    generate = commands.add_parser(
        "generate", help="generate proxy shell source from a spec"
    )
    generate.add_argument("spec", help="path to the spec JSON")
    generate.add_argument("-o", "--output", help="write source here")
    generate.add_argument(
        "--proxy-base", default="proxy.php",
        help="entry URL of the generated proxy (default proxy.php)",
    )
    generate.set_defaults(fn=_cmd_generate)

    commands.add_parser(
        "demo", help="mobilize the built-in forum end to end"
    ).set_defaults(fn=_cmd_demo)

    metrics = commands.add_parser(
        "metrics",
        help="drive the forum demo and print the Prometheus exposition",
    )
    metrics.add_argument(
        "--requests", type=int, default=8,
        help="requests to issue before scraping /metrics (default 8)",
    )
    metrics.set_defaults(fn=_cmd_metrics)

    trace = commands.add_parser(
        "trace",
        help="drive the forum demo and print the JSON trace dump",
    )
    trace.add_argument(
        "--requests", type=int, default=4,
        help="requests to issue before dumping /traces (default 4)",
    )
    trace.set_defaults(fn=_cmd_trace)

    chaos = commands.add_parser(
        "chaos",
        help="drive the forum demo through a seeded fault schedule and "
        "print the degradation report",
    )
    chaos.add_argument(
        "--seed", type=int, default=7,
        help="fault schedule seed (default 7)",
    )
    chaos.add_argument(
        "--requests", type=int, default=200,
        help="requests to drive through the fault schedule (default 200)",
    )
    chaos.add_argument(
        "--render-fail", type=float, default=0.3,
        help="fraction of renders that crash or hang (default 0.3)",
    )
    chaos.add_argument(
        "--origin-fail", type=float, default=0.1,
        help="fraction of origin fetches that fail or hang (default 0.1)",
    )
    chaos.add_argument(
        "--garbage", type=float, default=0.05,
        help="fraction of origin responses corrupted in flight "
        "(default 0.05)",
    )
    chaos.add_argument(
        "--cold", action="store_true",
        help="skip the cache warm-up (exercises the no-stale rungs)",
    )
    chaos.add_argument(
        "--farm-faults", action="store_true",
        help="route renders through the render farm and inject farm "
        "faults (a consumer crash mid-render, dead-letter quarantines)",
    )
    chaos.add_argument(
        "--farm-consumers", type=int, default=2,
        help="render farm consumers to start with --farm-faults "
        "(default 2; one is crashed a third of the way in)",
    )
    chaos.add_argument(
        "--region-faults", action="store_true",
        help="run the multi-region harness instead: kill one of two "
        "regions mid-workload, assert warm failover and CDC replay",
    )
    chaos.add_argument(
        "--smoke", action="store_true",
        help="with --region-faults: a seconds-scale gate run "
        "(at most 60 requests)",
    )
    chaos.set_defaults(fn=_cmd_chaos)

    scalability = commands.add_parser(
        "scalability", help="run the Figure 7 scalability sweep"
    )
    scalability.add_argument(
        "--farm", action="store_true",
        help="run the bursty (open-loop flash crowd) variant comparing "
        "inline renders against the render farm; with --smoke a "
        "seconds-scale gate run",
    )
    scalability.add_argument(
        "--real", action="store_true",
        help="drive real threads through the concurrent runtime "
        "instead of the discrete-event model",
    )
    scalability.add_argument(
        "--pool", action="store_true",
        help="enable the browser pool ablation (simulated sweep only)",
    )
    scalability.add_argument(
        "--percentages", default=None,
        help="comma-separated browser fractions (default: the paper's)",
    )
    scalability.add_argument(
        "--workers", type=int, default=None,
        help="with --real: executor worker threads (default 8); "
        "without --real: run the cluster sweep with N fleet workers "
        "behind the shard router",
    )
    scalability.add_argument(
        "--clients", type=int, default=None,
        help="closed-loop client threads (default 8 with --real, 16 in "
        "cluster mode)",
    )
    scalability.add_argument(
        "--requests", type=int, default=400,
        help="requests per data point (--real and cluster modes, "
        "default 400)",
    )
    scalability.add_argument(
        "--browser-service-s", type=float, default=0.020,
        help="scaled browser service time in seconds "
        "(--real only, default 0.020)",
    )
    scalability.add_argument(
        "--smoke", action="store_true",
        help="cluster mode: small fast run (200 requests, two "
        "percentages)",
    )
    scalability.set_defaults(fn=_cmd_scalability)

    workload = commands.add_parser(
        "workload",
        help="replay a named traffic scenario against a worker fleet",
    )
    workload.add_argument(
        "--scenario", default=None,
        help="scenario name (see --list)",
    )
    workload.add_argument(
        "--list", action="store_true",
        help="list the named scenarios and exit",
    )
    workload.add_argument(
        "--workers", type=int, default=None,
        help="fleet size (default: the scenario's own, usually 1)",
    )
    workload.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's seed (same seed => same trace)",
    )
    workload.add_argument(
        "--clients", type=int, default=8,
        help="client threads replaying the trace (default 8)",
    )
    workload.add_argument(
        "--autoscale", action="store_true",
        help="start the fleet at --min-workers and let the controller "
        "grow it up to --workers as the trace applies pressure",
    )
    workload.add_argument(
        "--min-workers", type=int, default=1,
        help="autoscale floor / starting fleet size (default 1)",
    )
    workload.add_argument(
        "--smoke", action="store_true",
        help="small fast run for the tier-1 gate (fails on any "
        "non-degraded 5xx or a busted p99 budget, like the full run)",
    )
    workload.add_argument(
        "--p99-budget-ms", type=float, default=1000.0,
        help="fail if p99 exceeds this many milliseconds "
        "(default 1000; 0 disables)",
    )
    workload.set_defaults(fn=_cmd_workload)

    autoscale_demo = commands.add_parser(
        "autoscale-demo",
        help="deterministic sim-clock controller walkthrough with the "
        "resulting ops event log as NDJSON",
    )
    autoscale_demo.add_argument(
        "--ticks", type=int, default=16,
        help="controller ticks to simulate (default 16)",
    )
    autoscale_demo.set_defaults(fn=_cmd_autoscale_demo)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
