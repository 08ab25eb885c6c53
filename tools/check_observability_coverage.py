"""Enforce statement-coverage floors for the instrumented packages.

The container has no third-party coverage package, so this uses the
stdlib :mod:`trace` module: it runs each package's unit suites under a
line tracer (worker threads included via :func:`threading.settrace`) and
compares the executed lines against each module's executable lines.

Covered packages: ``repro.observability`` and ``repro.resilience`` —
the two layers whose correctness is mostly *accounting* (metrics,
spans, breaker state, retry budgets), where untested lines are silent
lies on the ``/metrics`` endpoint — plus ``repro.cluster``, whose
routing/spill-over/rollup branches are exactly the lines that only
matter when a worker is down or saturated (a per-package ``floor``
raises its bar to 95%), the one cache class in ``core/cache.py`` (95%),
whose single-flight and write-behind branches only run under a race or
a restart, ``repro.regions`` (95%), whose CDC pump and replay /
partition-heal / failover branches only run when a region is down or
behind (the log they replay is ``repro.ops``'s, 95%, measured by one
contract suite collected once per role), the workload layer (``repro.workload`` and
``repro.sites.news``, both at 95%), whose determinism and 5xx
accounting the scenario regression gate leans on,
``repro.renderfarm`` (95%), whose scheduling branches only run under
backpressure or failure, the HTML lexer with its tree builders
(``html/tokenizer.py``, ``html/parser.py``, ``html/entities.py``, 95%),
whose recovery branches only run on tag soup, the browser render
path (``repro.render`` + ``repro.css``, 95%), whose clipping and
edge-norm branches decide the snapshot's bytes, and the gate with the
render-once ladder (``core/fastpath.py`` + ``core/prerender.py``, 95%),
whose audit, re-vouch and degrade branches only run when an origin
lies, a tier evicts or a render fails.

Usage:  python tools/check_observability_coverage.py [--floor 0.80]

``--floor`` is the default; a package entry may carry its own
``"floor"`` that overrides it.

The end-to-end proxy tests are deliberately excluded — they cover the
pipeline integration, not these packages, and many real renders under a
line tracer would blow the tier-1 time budget (the render entry's own
suites render three pages, ~50 s traced in all).  The unit suites exercise the
packages directly, which is what the floor is about.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import trace as trace_module
from collections import defaultdict

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir)
)
SRC_DIR = os.path.join(REPO_ROOT, "src")

PACKAGES = [
    {
        "label": "repro.observability",
        "dir": os.path.join(SRC_DIR, "repro", "observability"),
        "suites": [
            "tests/observability/test_metrics.py",
            "tests/observability/test_tracing.py",
            "tests/observability/test_exposition.py",
            "tests/observability/test_properties.py",
        ],
    },
    {
        "label": "repro.resilience",
        "dir": os.path.join(SRC_DIR, "repro", "resilience"),
        "suites": [
            "tests/resilience/test_retry.py",
            "tests/resilience/test_breaker.py",
            "tests/resilience/test_faults.py",
            # The one chaos harness lives here; its two scripts'
            # suites drive it (the regions one is listed again below).
            "tests/resilience/test_chaos.py",
            "tests/regions/test_chaos_regions.py",
        ],
    },
    {
        # The fast-path modules span three packages, so this entry
        # names files instead of a directory.
        "label": "repro fast path",
        "files": [
            os.path.join(SRC_DIR, "repro", "core", "plan.py"),
            os.path.join(SRC_DIR, "repro", "core", "fastpath.py"),
            os.path.join(SRC_DIR, "repro", "html", "stream.py"),
            os.path.join(SRC_DIR, "repro", "dom", "index.py"),
        ],
        "suites": [
            "tests/fastpath/test_plan.py",
            "tests/fastpath/test_fastpath_cache.py",
            "tests/fastpath/test_bundle_container.py",
            "tests/fastpath/test_pipeline_unit.py",
            "tests/fastpath/test_revalidation.py",
            "tests/sites/test_conditional.py",
            "tests/html/test_stream_units.py",
            "tests/dom/test_query_index.py",
        ],
    },
    {
        # The gate and the render-once ladder: whether to adapt at all,
        # and the one road to the heavyweight browser.  The gate's
        # audit-mismatch, bundle-gone-after-304 and re-vouch branches
        # only run when an origin lies or a tier evicts, and the
        # ladder's double-check, refresh lane and degrade rungs only
        # under a race or an outage — exactly where an untested line is
        # a wrong page.  The rest of tests/fastpath is listed above.
        "label": "core fast path + render ladder",
        "files": [
            os.path.join(SRC_DIR, "repro", "core", "fastpath.py"),
            os.path.join(SRC_DIR, "repro", "core", "prerender.py"),
        ],
        "floor": 0.95,
        "suites": [
            "tests/fastpath/test_proxy_304.py",
            "tests/core/test_prerender.py",
            "tests/core/test_object_caching.py",
            "tests/core/test_render_ladder.py",
        ],
    },
    {
        # Routing and rollup: the spill-over / worker-down / forced
        # branches only run when something is wrong, so the floor is
        # higher than the default.  The e2e conformance and hammer
        # suites are excluded (real renders under a line tracer), same
        # policy as the other packages.
        "label": "repro.cluster",
        "dir": os.path.join(SRC_DIR, "repro", "cluster"),
        "floor": 0.95,
        "suites": [
            "tests/cluster/test_router_properties.py",
            "tests/cluster/test_sharedcache.py",
            "tests/cluster/test_rollup.py",
            "tests/cluster/test_deployment.py",
            "tests/cluster/test_snapshotstore.py",
            "tests/cluster/test_tiers.py",
        ],
    },
    {
        # The one cache class: single-flight, the mid-flight
        # invalidation guard, stale grace, read-through and the
        # write-behind/invalidate ordering all live in core/cache.py
        # now, and most of those branches only run under a race or a
        # restart.  Measured by the cache contract — the ``[memory]``
        # suites where they live, their ``[memory, disk]`` re-collection
        # — plus the disk-specific suite above.
        "label": "repro cache",
        "files": [
            os.path.join(SRC_DIR, "repro", "core", "cache.py"),
        ],
        "floor": 0.95,
        "suites": [
            "tests/core/test_cache.py",
            "tests/resilience/test_stale_cache.py",
            "tests/concurrency/test_single_flight.py",
            "tests/properties/test_cache_properties.py",
            "tests/cluster/contract_disk",
        ],
    },
    {
        # The one lexer and the tree builders it feeds: recovery
        # branches (unterminated tags, bogus declarations, stray
        # slashes) only run on soup, which is what the origin sends on
        # a bad day.  The stream writer, the lexer's third reader in
        # this package, is measured with the fast path above.
        "label": "repro html",
        "files": [
            os.path.join(SRC_DIR, "repro", "html", "tokenizer.py"),
            os.path.join(SRC_DIR, "repro", "html", "parser.py"),
            os.path.join(SRC_DIR, "repro", "html", "entities.py"),
        ],
        "floor": 0.95,
        "suites": [
            "tests/html",
        ],
    },
    {
        # The multi-region layer: CDC pump/replay (the log itself is
        # measured with repro.ops below), partition/heal, failover
        # routing, full resync — branches that only run when a
        # region is down or behind, which is exactly when they must
        # work.  A small run of the ``regions`` chaos script rides
        # along: it drives the kill, revive and heal branches.  The full
        # failover e2e suite is excluded per the standard tracer-budget
        # policy.
        "label": "repro.regions",
        "dir": os.path.join(SRC_DIR, "repro", "regions"),
        "floor": 0.95,
        "suites": [
            "tests/regions/test_deployment.py",
            "tests/regions/test_chaos_regions.py",
        ],
    },
    {
        # The scenario engine and the replay driver every harness
        # shares (workload/replay.py): trace compilation must be
        # byte-stable and the replay loops honest about 5xx accounting,
        # so the bar matches the cluster package.  The engine suite
        # uses the tiny smoke scenarios (no pre-render) to stay inside
        # the tracer budget.
        "label": "repro.workload",
        "dir": os.path.join(SRC_DIR, "repro", "workload"),
        "floor": 0.95,
        "suites": [
            "tests/workload/test_arrivals.py",
            "tests/workload/test_population.py",
            "tests/workload/test_scenarios.py",
            "tests/workload/test_properties.py",
            "tests/workload/test_engine.py",
            "tests/workload/test_replay.py",
            "tests/bench/test_reporting.py",
        ],
    },
    {
        # The render farm: scheduling policy (lanes, coalescing,
        # promotion, displacement, dead letters) whose untested branches
        # are exactly the ones that only run under backpressure or
        # failure.  The burst/chaos e2e suites are excluded per the
        # standard tracer-budget policy; the unit, property, and
        # harness suites drive the package directly.
        "label": "repro.renderfarm",
        "dir": os.path.join(SRC_DIR, "repro", "renderfarm"),
        "floor": 0.95,
        "suites": [
            "tests/renderfarm/test_properties.py",
            "tests/renderfarm/test_farm.py",
            "tests/renderfarm/test_promotion.py",
            "tests/renderfarm/test_harness.py",
        ],
    },
    {
        # The delta fast path: segment scanning, footprint analysis,
        # and the identical/replace/fallback rungs.  Every shortcut here
        # is a soundness bet on rarely-taken guard branches, so the
        # floor matches the cluster package.  The suites are the dom
        # diff units + properties and the delta scanner/engine/
        # differential/session suites.
        "label": "repro delta path",
        "files": [
            os.path.join(SRC_DIR, "repro", "dom", "diff.py"),
            os.path.join(SRC_DIR, "repro", "core", "delta.py"),
        ],
        "floor": 0.95,
        "suites": [
            "tests/dom/test_diff.py",
            "tests/dom/test_diff_properties.py",
            "tests/delta/test_scanner.py",
            "tests/delta/test_footprints.py",
            "tests/delta/test_engine.py",
            "tests/delta/test_differential.py",
            "tests/delta/test_session_delta.py",
        ],
    },
    {
        # The one sequenced log and its wire framings: gap-free
        # sequencing, retention/truncation, NDJSON/SSE round-trips, and
        # resume — the contract suite runs once per role (``ops``,
        # ``cdclog``).  Every consumer (chaos assertions, dashboards,
        # the SSE resume contract, a healed region's replay) leans on
        # exactness here, so the floor matches the cluster package.
        "label": "repro.ops",
        "dir": os.path.join(SRC_DIR, "repro", "ops"),
        "floor": 0.95,
        "suites": [
            "tests/ops/test_events.py",
            "tests/ops/test_events_cdclog.py",
            "tests/ops/test_stream.py",
            "tests/ops/test_endpoint.py",
        ],
    },
    {
        # The autoscaling controller: hysteresis, cooldowns, bounds,
        # and graceful drain — the branches that only run when load is
        # moving, which is the only time the controller matters.  The
        # elastic conformance suite is excluded per the standard
        # tracer-budget policy (real renders under a line tracer).
        "label": "repro.autoscale",
        "dir": os.path.join(SRC_DIR, "repro", "autoscale"),
        "floor": 0.95,
        "suites": [
            "tests/autoscale/test_controller.py",
            "tests/autoscale/test_fleet.py",
            "tests/autoscale/test_drain.py",
        ],
    },
    {
        # The browser render path: the cascade's rule hash, layout, the
        # rasterizer's clipped blits and the image transforms, whose
        # edge branches (a glyph half off the canvas, a 1-pixel-wide
        # frame, an upscale) decide bytes every phone receives.  Three
        # real page renders (the two golden snapshot pins, the budget
        # guard) run under the tracer; the rest are unit-sized.
        "label": "repro.render + repro.css",
        "dirs": [
            os.path.join(SRC_DIR, "repro", "render"),
            os.path.join(SRC_DIR, "repro", "css"),
        ],
        "floor": 0.95,
        "suites": [
            "tests/render",
            "tests/css",
        ],
    },
    {
        # The news origin: the feed windowing / pagination surface the
        # adaptation attributes cut against.
        "label": "repro.sites.news",
        "dir": os.path.join(SRC_DIR, "repro", "sites", "news"),
        "floor": 0.95,
        "suites": [
            "tests/sites/test_news.py",
        ],
    },
]


def _package_files(pkg: dict) -> list[tuple[str, str]]:
    """(display name, absolute path) pairs for one coverage entry."""
    if "files" in pkg:
        return [(os.path.basename(path), path) for path in pkg["files"]]
    return [
        (name, os.path.join(directory, name))
        for directory in pkg.get("dirs") or [pkg["dir"]]
        for name in sorted(os.listdir(directory))
        if name.endswith(".py") and name != "__init__.py"
        # The package inits are pure re-exports; they are excluded so
        # the floors measure behaviour, not import plumbing.
    ]


class _RepoOnlyIgnore:
    """Trace repository files only, keyed by full path.

    The stdlib :class:`trace._Ignore` caches its verdict by module
    *basename*: once a same-named module under ``ignoredirs`` is seen
    (hypothesis's ``conjecture/engine.py``, any stdlib ``__init__.py``),
    every later module with that basename — including ours — is dropped
    and reports a spurious 0%.  Keying on the resolved path instead
    also stops the tracer from line-counting third-party internals.
    """

    def __init__(self, root: str) -> None:
        self._root = root.rstrip(os.sep) + os.sep
        self._cache: dict[str, int] = {}

    def names(self, filename: str, modname: str) -> int:
        verdict = self._cache.get(filename)
        if verdict is None:
            verdict = int(
                not os.path.abspath(filename).startswith(self._root)
            )
            self._cache[filename] = verdict
        return verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--floor", type=float, default=0.80,
        help="default minimum fraction of executable lines covered per "
        "package (default 0.80; a package entry's own 'floor' wins)",
    )
    args = parser.parse_args(argv)

    os.chdir(REPO_ROOT)
    for path in (SRC_DIR, REPO_ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    # Keep the hypothesis suites quick under the ~10x line-trace slowdown.
    os.environ.setdefault("MSITE_HYPOTHESIS_PROFILE", "coverage")

    import pytest

    all_suites = [suite for pkg in PACKAGES for suite in pkg["suites"]]
    tracer = trace_module.Trace(count=1, trace=0)
    tracer.ignore = _RepoOnlyIgnore(SRC_DIR)
    threading.settrace(tracer.globaltrace)
    try:
        exit_code = tracer.runfunc(
            pytest.main, [*all_suites, "-q", "-p", "no:cacheprovider"]
        )
    finally:
        threading.settrace(None)
    if exit_code != 0:
        print(f"coverage unit suites failed (pytest exit {exit_code})")
        return 1

    covered: dict[str, set[int]] = defaultdict(set)
    for (filename, lineno), hits in tracer.results().counts.items():
        if hits > 0:
            covered[os.path.abspath(filename)].add(lineno)

    failed = False
    for pkg in PACKAGES:
        print(f"\n{pkg['label']} statement coverage:")
        total_executable = 0
        total_covered = 0
        for name, path in _package_files(pkg):
            executable = set(trace_module._find_executable_linenos(path))
            hit = covered.get(os.path.abspath(path), set()) & executable
            total_executable += len(executable)
            total_covered += len(hit)
            fraction = len(hit) / len(executable) if executable else 1.0
            print(
                f"  {name:<16} {len(hit):>4}/{len(executable):<4} "
                f"({fraction:6.1%})"
            )

        overall = (
            total_covered / total_executable if total_executable else 1.0
        )
        floor = pkg.get("floor", args.floor)
        print(
            f"  {'TOTAL':<16} {total_covered:>4}/{total_executable:<4} "
            f"({overall:6.1%}), floor {floor:.0%}"
        )
        if overall < floor:
            print("  FAIL: coverage below the floor")
            failed = True
        else:
            print("  ok: floor respected")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
