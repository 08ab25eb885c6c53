"""The adaptation hot path: fast-path cache and streaming serializer.

The PR's acceptance bar: on the warm forum workload the fast path must
at least double adapts/sec over the full pipeline, with a non-zero
cross-session hit ratio.  Run with ``-s`` to see the measured table.
"""

import statistics
import time

import pytest

from repro.bench.hotpath import (
    FORUM_HOST,
    format_report,
    forum_spec,
    run_hotpath_bench,
)
from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.plan import TransformPlan
from repro.core.sessions import SessionManager
from repro.html.parser import parse_html
from repro.net.client import HttpClient
from tests.html.reference_tokenizer import tokenize as reference_tokenize


@pytest.mark.smoke
def test_hotpath_smoke_fastpath_hits_and_speedup():
    """Tier-1 smoke: a short warm run must hit the fast path and beat
    the full pipeline by the 2x acceptance floor."""
    results = run_hotpath_bench(requests=20)
    print("\n" + format_report(results))
    warm = results["warm"]
    assert warm["fastpath_hit_ratio"] > 0, (
        "warm forum workload never hit the adapted-response cache"
    )
    assert warm["fastpath_hits"] >= warm["fastpath_misses"], (
        "a warm workload should be hit-dominated"
    )
    # All but the audit sample (1 in 32) of the hits.
    assert warm["origin_not_modified"] >= 0.9 * warm["fastpath_hits"], (
        "a warm hit should revalidate with a 304, not re-fetch the page"
    )
    assert results["speedup"] >= 2.0, (
        f"fast path {results['speedup']:.1f}x over the full pipeline; "
        f"the acceptance floor is 2x"
    )


def test_hotpath_full_run_stream_faster_than_dom():
    """Full bench: the one-pass serializer beats parse+serialize on the
    filter-only spec, and the warm numbers hold at a larger sample."""
    results = run_hotpath_bench(requests=120)
    print("\n" + format_report(results))
    assert results["speedup"] >= 2.0
    assert results["warm"]["fastpath_hit_ratio"] >= 0.9
    stream = results["stream"]
    assert stream["stream_on"]["streamed"] > 0, (
        "the filter-only spec never took the streaming path"
    )
    assert stream["speedup"] >= 1.0, (
        f"streaming emitted slower than the DOM round-trip "
        f"({stream['speedup']:.2f}x)"
    )


@pytest.mark.smoke
def test_full_run_pays_for_no_delta_seed(forum_app):
    """Tier-1 smoke: a storable full run only *stashes* its delta seed.

    The memo a seed turns into is read by a later warm miss, if one
    ever comes, so building it is that miss's cost.  When it was the
    full run's, a forced re-adaptation of the forum page took ~2.4x a
    delta-disabled one; stashing measures ~1.0x.  A ratio of two runs
    taken back to back holds on any box, and eager work creeping back
    into ``DeltaEngine.seed`` fails it.
    """
    spec = forum_spec()
    plan = TransformPlan.compile(spec)

    def run_s(delta_enabled: bool) -> float:
        services = ProxyServices(
            origins={FORUM_HOST: forum_app}, delta_enabled=delta_enabled
        )
        session = SessionManager(services.storage).create()
        pipeline = AdaptationPipeline(spec, services, session, plan=plan)
        started = time.perf_counter()
        pipeline.run(force_refresh=True)
        return time.perf_counter() - started

    ratios = []
    for sample in range(12):
        # Alternate which variant goes first so drift cancels.
        order = ((True, False), (False, True))[sample % 2]
        seconds = {flag: run_s(flag) for flag in order}
        if sample:  # the first pair warms imports and selector caches
            ratios.append(seconds[True] / seconds[False])
    ratio = statistics.median(ratios)
    print(f"\nfull run, delta on / off: {ratio:.2f}x over {len(ratios)} pairs")
    assert ratio <= 1.25, (
        f"a full run with the delta engine on takes {ratio:.2f}x one "
        f"with it off; seeding is meant to be deferred to the warm miss "
        f"that needs the memo"
    )


@pytest.mark.smoke
def test_building_the_tree_costs_no_more_than_tokenizing_used_to(forum_app):
    """Tier-1 smoke: ``parse_html`` stays on the regex-driven scanner.

    The yardstick is the character-loop tokenizer the scanner replaced
    (frozen under ``tests/html``): merely *counting* its tokens on the
    forum entry page took 6.3 ms when building the whole tree took
    10.9 ms, a ratio of 1.73.  With the tree builder fed straight from
    ``scan`` the ratio measures ~0.9.  Both sides are pure-Python string
    work on the same page, so the ratio holds on any box, and a
    per-character loop creeping back into the lexer fails it.
    """
    page = HttpClient({FORUM_HOST: forum_app}).get(
        f"http://{FORUM_HOST}/"
    ).text_body

    def seconds(call) -> float:
        started = time.perf_counter()
        call()
        return time.perf_counter() - started

    variants = {
        "parse": lambda: parse_html(page),
        "reference": lambda: sum(1 for _ in reference_tokenize(page)),
    }
    ratios = []
    for sample in range(12):
        # Alternate which variant goes first so drift cancels.
        order = (("parse", "reference"), ("reference", "parse"))[sample % 2]
        taken = {name: seconds(variants[name]) for name in order}
        if sample:  # the first pair warms the regex and method caches
            ratios.append(taken["parse"] / taken["reference"])
    ratio = statistics.median(ratios)
    print(f"\nparse_html / reference tokenize: {ratio:.2f}x over {len(ratios)} pairs")
    assert ratio <= 1.1, (
        f"parse_html takes {ratio:.2f}x what the character-loop tokenizer "
        f"took to tokenize the same page; the scanner is meant to make "
        f"the whole parse cheaper than that"
    )
