"""The delta engine end to end: seed, rungs, fallbacks, memo lifecycle.

Every applied delta in this suite is cross-checked against a fresh
deployment that adapts the mutated page from scratch — the byte-identity
invariant, asserted at the unit scale (the differential suite repeats it
over the conformance specs).

A full run only *stashes* its inputs (``deferred``); the memo is built,
or refused, by the first warm miss that needs it (``seeds`` /
``seed_skips``), so the assertions about a memo sit after that miss.
"""

import gc
import threading
import weakref

import pytest

from repro.core.delta import UPHEAVAL_FRACTION, DeltaEngine
from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.sim.clock import Clock

HOST = "delta.example"

PAGE = (
    "<!DOCTYPE html><html><head><title>Delta</title></head><body>"
    '<div id="masthead"><h1>Site</h1></div>'
    '<div id="feed">'
    '<div class="teaser"><a href="/a/1">One</a></div>'
    '<div class="teaser"><a href="/a/2">Two</a></div>'
    "</div>"
    '<div id="sidebar"><p>about the desk</p></div>'
    '<div id="ad" class="promo"><p>buy things</p></div>'
    '<div id="note" class="alert"><p>service notice</p></div>'
    '<p id="plain">hello</p>'
    "<script>var page = 1;</script>"
    "</body></html>"
)


class ScriptedOrigin(Application):
    def __init__(self, page: str = PAGE):
        self.page = page

    def handle(self, request: Request) -> Response:
        return Response.html(self.page)


def make_spec() -> AdaptationSpec:
    spec = AdaptationSpec(site="Delta", origin_host=HOST)
    spec.add("cacheable", ttl_s=600)
    spec.add("strip_scripts")
    spec.add(
        "subpage", ObjectSelector.css("#sidebar"),
        subpage_id="side", title="Desk",
    )
    spec.add("remove_object", ObjectSelector.css(".promo"))
    spec.add("hide_object", ObjectSelector.css(".alert"))
    return spec


def deploy(page: str = PAGE, **flags):
    origin = ScriptedOrigin(page)
    clock = Clock()
    services = ProxyServices(
        origins={HOST: origin}, clock=clock, **flags
    )
    manager = SessionManager(clock=clock)
    return origin, clock, services, manager


def adapt(services, manager, spec=None, **kwargs):
    pipeline = AdaptationPipeline(
        spec or make_spec(), services, manager.create()
    )
    return pipeline.run(**kwargs)


def counts(services, *names) -> tuple:
    registry = services.observability.registry
    return tuple(
        registry.counter(f"msite_delta_{name}_total").value
        for name in names
    )


def from_scratch(page: str, spec=None) -> str:
    """What a cold deployment produces for this page — the oracle."""
    __, __, services, manager = deploy(page, delta_enabled=False)
    return adapt(services, manager, spec=spec).entry_html


def the_stash(services):
    """The one key's one record, built or not."""
    (stash,) = services.delta._memos.values()
    return stash


def the_memo(services):
    memo = the_stash(services).memo
    assert memo is not None
    return memo


def builds(services) -> int:
    """Memo builds run so far, refused ones included."""
    return services.observability.registry.histogram(
        "msite_delta_seed_seconds"
    ).snapshot().count


# -- seeding ---------------------------------------------------------------


def test_full_run_seeds_a_piecewise_memo():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    assert counts(services, "deferred", "seeds", "seed_skips") == (1, 0, 0)
    assert builds(services) == 0
    assert the_stash(services).ctx is not None  # unbuilt
    origin.page = PAGE.replace("hello", "goodbye")
    adapt(services, manager)
    assert counts(services, "deferred", "seeds", "seed_skips") == (1, 1, 0)
    assert builds(services) == 1
    memo = the_memo(services)
    assert len(memo.pieces) == len(memo.raw_scan.segments)
    assert memo.parts  # the body split into its top-level parts


#: Filter steps whose output depends on content elsewhere in the page,
#: so the filter phase cannot run segment by segment.
NON_PIECEWISE_FILTERS = {
    "title_rewrite": lambda spec: spec.add("title_rewrite", title="Mobile"),
    "doctype_rewrite": lambda spec: spec.add("doctype_rewrite"),
    "source_replace": lambda spec: spec.add(
        "source_replace", ObjectSelector.regex("notice"),
        replacement="NOTICE", count=1,
    ),
}

#: A body edit, a title edit, a revision to soup and a grown head.
REVISIONS = [
    ("hello", "changed"),
    ("<title>Delta</title>", "<title>X</title>"),
    ('<p id="plain">hello</p>', "<p>one<p>two"),
    ("<head>", '<head><meta name="x">'),
]


@pytest.mark.parametrize("attribute", sorted(NON_PIECEWISE_FILTERS))
def test_non_piecewise_filter_plans_are_not_memoized(attribute):
    spec = make_spec()
    NON_PIECEWISE_FILTERS[attribute](spec)
    origin, __, services, manager = deploy()
    adapt(services, manager, spec=spec)
    for runs, (old, new) in enumerate(REVISIONS, start=2):
        origin.page = PAGE.replace(old, new)
        result = adapt(services, manager, spec=spec)
        assert result.entry_html == from_scratch(origin.page, spec)
        # Refused by every full run, before anything is stashed.
        assert counts(services, "seed_skips") == (runs,)
        assert not services.delta._memos
    assert counts(
        services, "deferred", "seeds", "applied", "identical", "fallbacks"
    ) == (0, 0, 0, 0, 0)
    assert builds(services) == 0


def test_disabling_delta_or_fastpath_removes_the_engine():
    assert deploy(delta_enabled=False)[2].delta is None
    assert deploy(fastpath_enabled=False)[2].delta is None
    assert deploy()[2].delta is not None


@pytest.mark.parametrize(
    "mutate_spec,refused_by_the_run",
    [
        # What a selector can reach is only known against a parse.
        (
            lambda spec: spec.add("hide_object", ObjectSelector.css("body")),
            False,
        ),
        (
            lambda spec: spec.add("hide_object", ObjectSelector.css("title")),
            False,
        ),
        # The plan's steps alone decide these.
        (
            lambda spec: spec.add(
                "hide_object", ObjectSelector.xpath("//div[@id='note']")
            ),
            True,
        ),
        (
            lambda spec: spec.add(
                "relocate_object", ObjectSelector.css("#note"),
                destination="#feed", position="before",
            ),
            True,
        ),
    ],
    ids=["scaffold", "head-descendant", "no-css-group", "toplevel-rewriter"],
)
def test_global_plans_are_not_memoized(mutate_spec, refused_by_the_run):
    origin, __, services, manager = deploy()
    spec = make_spec()
    mutate_spec(spec)
    adapt(services, manager, spec=spec)
    assert counts(services, "deferred", "seed_skips") == (
        (0, 1) if refused_by_the_run else (1, 0)
    )
    origin.page = PAGE.replace("hello", "goodbye")
    result = adapt(services, manager, spec=spec)
    assert counts(services, "seeds", "applied") == (0, 0)
    # One refusal per full run, whichever side of the run it fell on.
    assert counts(services, "seed_skips") == (
        (2,) if refused_by_the_run else (1,)
    )
    assert builds(services) == (0 if refused_by_the_run else 1)
    assert result.entry_html == from_scratch(origin.page, spec)


def test_soup_pages_are_not_memoized():
    soup = (
        "<html><body><p>one<p>two</p>"
        '<div class="alert">notice</div></body></html>'
    )
    spec = AdaptationSpec(site="Delta", origin_host=HOST)
    spec.add("cacheable", ttl_s=600)
    spec.add("strip_scripts")
    spec.add("hide_object", ObjectSelector.css(".alert"))
    origin, __, services, manager = deploy(soup)
    adapt(services, manager, spec=spec)
    assert counts(services, "deferred", "seed_skips") == (1, 0)
    # The scanner meets the soup when the warm miss builds the memo;
    # refused, the miss takes the full pipeline (whose own soup stash
    # waits for a miss of its own).
    origin.page = soup.replace("two", "three")
    result = adapt(services, manager, spec=spec)
    assert counts(services, "seeds", "seed_skips") == (0, 1)
    assert counts(services, "no_memo") == (1,)  # the cold miss only
    assert the_stash(services).ctx is not None  # unbuilt
    assert result.entry_html == from_scratch(origin.page, spec)


def test_siblings_sharing_an_id_are_not_memoized():
    # Both separators key as ("e", "div", "#", "sep"); one keyed part
    # cannot stand for both, so the build refuses the memo.
    page = PAGE.replace(
        '<p id="plain">hello</p>',
        '<p id="y">why</p><div id="sep"></div>'
        '<p id="z">zed</p><div id="sep"></div>',
    )
    origin, __, services, manager = deploy(page)
    adapt(services, manager)
    origin.page = page.replace(
        '<p id="z">zed</p><div id="sep"></div>',
        '<p id="z">zed</p><div id="sep">changed</div>',
    )
    result = adapt(services, manager)
    assert counts(services, "seeds", "seed_skips", "applied") == (0, 1, 0)
    assert result.entry_html == from_scratch(origin.page)


def test_a_revision_that_repeats_an_id_falls_back():
    page = PAGE.replace(
        '<p id="plain">hello</p>',
        '<p id="y">why</p><div id="sep">a</div><p id="z">zed</p>',
    )
    origin, __, services, manager = deploy(page)
    adapt(services, manager)
    origin.page = page.replace(
        '<p id="z">zed</p>', '<p id="z">zed</p><div id="sep">b</div>'
    )
    result = adapt(services, manager)
    assert counts(services, "seeds", "applied", "fallbacks") == (1, 0, 1)
    assert result.entry_html == from_scratch(origin.page)


def test_a_survivor_that_would_take_a_lost_siblings_key_is_not_memoized():
    # The run removes the first of two id-less div.k siblings; recounted,
    # the survivor would key as the first, so the build refuses.
    page = PAGE.replace(
        '<p id="plain">hello</p>',
        '<div class="k" data-x="1">first</div><div class="k">second</div>',
    )
    spec = make_spec()
    spec.add("remove_object", ObjectSelector.css('[data-x="1"]'))
    origin, __, services, manager = deploy(page)
    adapt(services, manager, spec=spec)
    origin.page = page.replace("second", "second edited")
    result = adapt(services, manager, spec=spec)
    assert counts(services, "seeds", "seed_skips", "applied") == (0, 1, 0)
    assert result.entry_html == from_scratch(origin.page, spec)


# -- the rungs -------------------------------------------------------------


def test_patch_rung_leaves_bytes_identical_to_a_full_adaptation():
    origin, __, services, manager = deploy()
    first = adapt(services, manager)
    origin.page = PAGE.replace("hello", "goodbye")
    second = adapt(services, manager)
    assert counts(services, "applied", "patched_segments") == (1, 1)
    assert second.fastpath_hit  # served via bundle replay
    assert second.etag != first.etag
    assert second.entry_html == from_scratch(origin.page)
    assert "goodbye" in second.entry_html


@pytest.mark.parametrize(
    "body_open", ['<body class="home">', '<body data-x="a&gt;b">']
)
def test_menu_lands_inside_a_body_that_has_attributes(body_open):
    # The menu used to be looked for behind a literal "<body>" and,
    # failing that, put in front of the doctype (quirks mode).
    page = PAGE.replace("<body>", body_open)
    origin, __, services, manager = deploy(page)
    first = adapt(services, manager)
    assert first.entry_html.startswith("<!DOCTYPE html>")
    assert f'{body_open}<ul id="msite-menu">' in first.entry_html
    origin.page = page.replace("hello", "goodbye")
    second = adapt(services, manager)
    assert counts(services, "applied", "fallbacks") == (1, 0)
    assert second.entry_html == from_scratch(origin.page)
    assert f'{body_open}<ul id="msite-menu">' in second.entry_html


def test_identical_rung_when_the_filter_erases_the_change():
    origin, __, services, manager = deploy()
    first = adapt(services, manager)
    origin.page = PAGE.replace("var page = 1;", "var page = 2;")
    second = adapt(services, manager)
    assert counts(services, "identical", "applied") == (1, 0)
    assert second.entry_html == first.entry_html
    assert second.etag != first.etag  # new content-fp, same bytes
    # The re-stored bundle makes the next request a plain hit.
    third = adapt(services, manager)
    assert third.fastpath_hit and third.entry_html == first.entry_html


def test_localize_rung_reruns_the_confined_step():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    # .alert is matched by hide_object (localizable); the delta re-runs
    # it on the new fragment, so the edit arrives already hidden.
    origin.page = PAGE.replace("service notice", "updated notice")
    second = adapt(services, manager)
    assert counts(services, "applied") == (1,)
    assert second.entry_html == from_scratch(origin.page)
    assert "updated notice" in second.entry_html
    assert 'display: none' in second.entry_html


def test_localized_step_may_empty_the_segment():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    # .promo is matched by remove_object: the re-run removes the new
    # fragment outright and the segment stays absent from the entry.
    origin.page = PAGE.replace("buy things", "buy more things")
    second = adapt(services, manager)
    assert counts(services, "applied") == (1,)
    assert second.entry_html == from_scratch(origin.page)
    assert "buy more things" not in second.entry_html


def test_inserted_and_removed_segments_patch_in_place():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    origin.page = PAGE.replace(
        '<p id="plain">hello</p>',
        '<p id="extra">fresh paragraph</p>',
    )
    second = adapt(services, manager)
    assert counts(services, "applied") == (1,)
    assert counts(services, "patched_segments") == (2,)  # remove + insert
    assert second.entry_html == from_scratch(origin.page)
    assert "fresh paragraph" in second.entry_html
    assert "hello" not in second.entry_html


def test_inserted_segment_lands_before_its_anchor():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    origin.page = PAGE.replace(
        '<p id="plain">', '<p id="early">first words</p><p id="plain">'
    )
    second = adapt(services, manager)
    assert counts(services, "applied") == (1,)
    assert second.entry_html == from_scratch(origin.page)
    assert second.entry_html.index("first words") < (
        second.entry_html.index("hello")
    )


def test_successive_deltas_keep_tracking_the_origin():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    page = PAGE
    for round_number in range(1, 5):
        page = page.replace(
            "<h1>Site</h1>", f"<h1>Site r{round_number}</h1>"
        ).replace("hello", f"hello r{round_number}")
        origin.page = page
        result = adapt(services, manager)
        assert counts(services, "applied") == (round_number,)
        assert result.entry_html == from_scratch(page)


def test_a_segments_footprint_after_a_delta_is_a_fresh_builds():
    # The box holds a <div> and, on another element, id="lead": no one
    # element is div#lead, so a fresh build gives the box no footprint
    # for that step.  Nor may the delta that revised the box.
    spec = make_spec()
    spec.add("hide_object", ObjectSelector.css("div#lead"))
    box = (
        '<div id="box"><div class="a">inside</div>'
        '<span id="lead">y</span></div>'
    )
    page = PAGE.replace('<p id="plain">', box + '<p id="plain">')
    revised = page.replace("inside", "inside too")

    def footprints(first: str, second: str) -> dict:
        origin, __, services, manager = deploy(first)
        adapt(services, manager, spec=spec)
        origin.page = second
        result = adapt(services, manager, spec=spec)
        assert counts(services, "applied") == (1,)
        assert result.entry_html == from_scratch(second, spec)
        return the_memo(services).seg_steps

    after_delta = footprints(page, revised)
    # Built over the revised box; the delta edits a segment no step
    # touches.
    fresh = footprints(revised, revised.replace("hello", "goodbye"))
    assert ("e", "div", "#", "box") not in fresh
    assert after_delta == fresh


# -- fallbacks and the memo lifecycle --------------------------------------


def test_upheaval_falls_back_to_a_full_replay_and_reseeds():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    rebuilt = (
        "<!DOCTYPE html><html><head><title>Delta</title></head><body>"
        + "".join(f'<div id="new{n}"><p>block</p></div>' for n in range(9))
        + '<div id="sidebar"><p>about the desk</p></div>'
        + "</body></html>"
    )
    origin.page = rebuilt
    result = adapt(services, manager)
    registry = services.observability.registry
    assert counts(services, "fallbacks", "applied") == (1, 0)
    assert registry.counter(
        "msite_delta_fallback_upheaval_total"
    ).value == 1
    assert result.entry_html == from_scratch(rebuilt)
    # The full replay stashed a new seed; only the first was ever built.
    assert counts(services, "deferred", "seeds") == (2, 1)


def test_non_localizable_step_on_a_changed_segment_falls_back():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    # #sidebar is claimed by the subpage step, which delta cannot
    # re-run in isolation.
    origin.page = PAGE.replace("about the desk", "about the newsroom")
    result = adapt(services, manager)
    registry = services.observability.registry
    assert counts(services, "fallbacks") == (1,)
    assert registry.counter("msite_delta_fallback_steps_total").value == 1
    assert result.entry_html == from_scratch(origin.page)
    # The edit surfaced through the re-run subpage step, not the entry.
    (side,) = result.subpages
    assert b"newsroom" in result.files[side.path].data
    # UPHEAVAL_FRACTION guards the classifier we just exercised.
    assert 0.0 < UPHEAVAL_FRACTION < 1.0


def test_expired_memo_is_dropped_and_the_run_reseeds():
    origin, clock, services, manager = deploy()
    adapt(services, manager)
    clock.advance(600)  # the cacheable ttl, to the second
    origin.page = PAGE.replace("hello", "later")
    result = adapt(services, manager)
    assert counts(services, "expired", "applied") == (1, 0)
    assert result.entry_html == from_scratch(origin.page)
    # An expired stash is dropped unbuilt; the run stashed a new one.
    assert counts(services, "deferred", "seeds") == (2, 0)
    assert builds(services) == 0


def test_a_built_memo_expires_when_its_run_does():
    origin, clock, services, manager = deploy()
    adapt(services, manager)  # t0; fresh until t0 + 600
    clock.advance(300)
    origin.page = PAGE.replace("hello", "sooner")
    adapt(services, manager)  # builds the memo at t0 + 300
    assert counts(services, "seeds", "applied") == (1, 1)
    clock.advance(300)
    origin.page = PAGE.replace("hello", "later")
    result = adapt(services, manager)
    # The deadline is the storing run's, not the build's.
    assert counts(services, "expired", "applied") == (1, 1)
    assert result.entry_html == from_scratch(origin.page)


def test_apply_failure_drops_the_memo(monkeypatch):
    origin, __, services, manager = deploy()
    adapt(services, manager)
    apply = DeltaEngine._apply

    def half_then_boom(self, *args):
        apply(self, *args)
        raise RuntimeError("injected apply failure")

    monkeypatch.setattr(DeltaEngine, "_apply", half_then_boom)
    origin.page = PAGE.replace("hello", "goodbye")
    result = adapt(services, manager)
    assert counts(services, "fallbacks", "applied") == (1, 0)
    assert result.entry_html == from_scratch(origin.page)
    # The half-patched memo is gone; the full replay stashed a new seed,
    # and with the fault healed the next delta applies cleanly.
    monkeypatch.undo()
    origin.page = origin.page.replace("goodbye", "again")
    healed = adapt(services, manager)
    assert counts(services, "applied") == (1,)
    assert healed.entry_html == from_scratch(origin.page)


def test_forget_drops_memos_for_the_site():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    services.delta.forget("SomeOtherSite")
    the_stash(services)  # untouched
    services.delta.forget("Delta")
    assert not services.delta._memos
    origin.page = PAGE.replace("hello", "goodbye")
    adapt(services, manager)
    assert counts(services, "no_memo") == (2,)  # cold miss + this one
    assert builds(services) == 0


def test_forget_everything():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    origin.page = PAGE.replace("hello", "goodbye")
    adapt(services, manager)
    the_memo(services)  # a built memo goes the same way a stash does
    services.delta.forget()
    assert not services.delta._memos


# -- the stash -------------------------------------------------------------


def test_refresh_runs_stash_and_only_the_revision_builds():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    for __ in range(4):
        adapt(services, manager, force_refresh=True)
    assert counts(services, "deferred", "seeds") == (5, 0)
    assert builds(services) == 0
    origin.page = PAGE.replace("hello", "goodbye")
    result = adapt(services, manager)
    assert counts(services, "deferred", "seeds", "applied") == (5, 1, 1)
    assert builds(services) == 1
    assert result.entry_html == from_scratch(origin.page)


def test_a_replaced_stash_is_garbage():
    __, __, services, manager = deploy()
    adapt(services, manager)
    # Document is slotted, so watch the context that owns it.
    replaced = weakref.ref(the_stash(services).ctx)
    adapt(services, manager, force_refresh=True)
    gc.collect()
    assert replaced() is None


def race_two_warm_misses(monkeypatch, services, manager, spec=None):
    """Two sessions miss on one stash at once; the second is made to
    arrive while the first is still building.  Returns both results
    and how many builds ran."""
    engine = services.delta
    arrivals = threading.Semaphore(0)
    build_calls = []
    attempt, build_memo = engine.attempt, engine._build_memo

    def arriving(*args):
        arrivals.release()
        return attempt(*args)

    def building(*args):
        build_calls.append(args)
        # One arrival is this thread's own; wait for the other's.
        for __ in range(2):
            assert arrivals.acquire(timeout=10)
        return build_memo(*args)

    monkeypatch.setattr(engine, "attempt", arriving)
    monkeypatch.setattr(engine, "_build_memo", building)
    pipelines = [
        AdaptationPipeline(spec or make_spec(), services, manager.create())
        for __ in range(2)
    ]
    results = []
    threads = [
        threading.Thread(target=lambda p=p: results.append(p.run()))
        for p in pipelines
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 2
    return results, len(build_calls)


def test_concurrent_misses_on_one_stash_build_once(monkeypatch):
    origin, __, services, manager = deploy()
    adapt(services, manager)
    origin.page = PAGE.replace("hello", "goodbye")
    results, build_calls = race_two_warm_misses(
        monkeypatch, services, manager
    )
    assert build_calls == 1
    assert counts(services, "seeds", "seed_skips") == (1, 0)
    # The builder patched; the waiter found the patched baseline.
    assert counts(services, "applied", "identical") == (1, 1)
    oracle = from_scratch(origin.page)
    assert [result.entry_html for result in results] == [oracle, oracle]


def test_concurrent_misses_share_a_refused_build(monkeypatch):
    soup = (
        "<html><body><p>one<p>two</p>"
        '<div class="alert">notice</div></body></html>'
    )
    spec = AdaptationSpec(site="Delta", origin_host=HOST)
    spec.add("cacheable", ttl_s=600)
    spec.add("hide_object", ObjectSelector.css(".alert"))
    origin, __, services, manager = deploy(soup)
    adapt(services, manager, spec=spec)
    origin.page = soup.replace("two", "three")
    results, build_calls = race_two_warm_misses(
        monkeypatch, services, manager, spec
    )
    assert build_calls == 1
    # The builder counts the refusal; to the waiter there is no memo.
    assert counts(services, "seeds", "seed_skips") == (0, 1)
    assert counts(services, "no_memo") == (2,)  # the cold miss, the waiter
    oracle = from_scratch(origin.page, spec)
    assert [result.entry_html for result in results] == [oracle, oracle]


# -- refilter fallbacks ----------------------------------------------------


def test_revision_to_soup_falls_back_in_piecewise_mode():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    # The revision needs soup recovery, so the raw rescan bails and
    # the full pipeline (which can parse it) takes over.
    origin.page = PAGE.replace("<p id=\"plain\">hello</p>", "<p>one<p>two")
    second = adapt(services, manager)
    assert counts(services, "fallbacks", "fallback_scan") == (1, 1)
    assert counts(services, "applied") == (0,)
    assert second.entry_html == from_scratch(origin.page)


def test_head_edit_falls_back_in_piecewise_mode():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    origin.page = PAGE.replace(
        "<title>Delta</title>", "<title>Renamed</title>"
    )
    second = adapt(services, manager)
    assert counts(services, "fallback_structure") == (1,)
    assert second.entry_html == from_scratch(origin.page)
    assert "Renamed" in second.entry_html


def test_crashing_filter_falls_back_then_the_rebuild_is_refused(
    monkeypatch,
):
    origin, __, services, manager = deploy()
    adapt(services, manager)
    origin.page = PAGE.replace("hello", "hello again")
    adapt(services, manager)
    the_memo(services)

    def boom(self, pipeline, piece):
        raise RuntimeError("filter exploded")

    monkeypatch.setattr(DeltaEngine, "_filter_piece", boom)
    origin.page = PAGE.replace("hello", "goodbye")
    second = adapt(services, manager)
    assert counts(services, "fallback_scan") == (1,)
    assert second.entry_html == from_scratch(origin.page)
    # The next build cannot prove piecewise filtering either: refused,
    # the miss takes the full pipeline, which stashes once more.
    origin.page = PAGE.replace("hello", "farewell")
    third = adapt(services, manager)
    assert counts(services, "seeds", "seed_skips", "applied") == (1, 1, 1)
    assert the_stash(services).ctx is not None
    assert third.entry_html == from_scratch(origin.page)


def test_text_runs_merging_across_a_stripped_script_fall_back():
    page = (
        "<html><head><title>T</title></head><body>"
        '<div id="m">masthead</div>'
        '<p id="x">xx</p>'
        "<script>var s;</script>"
        '<p id="y">yy</p>'
        '<div id="note" class="alert"><p>n</p></div>'
        "</body></html>"
    )
    spec = AdaptationSpec(site="Delta", origin_host=HOST)
    spec.add("cacheable", ttl_s=600)
    spec.add("strip_scripts")
    spec.add("hide_object", ObjectSelector.css(".alert"))
    origin, __, services, manager = deploy(page)
    adapt(services, manager, spec=spec)
    origin.page = page.replace("masthead", "the masthead")
    adapt(services, manager, spec=spec)
    the_memo(services)
    # Both paragraphs become bare text runs; once the script between
    # them is stripped they would merge in a direct scan, which the
    # splice model cannot represent.
    origin.page = page.replace('<p id="x">xx</p>', "intro").replace(
        '<p id="y">yy</p>', "outro"
    )
    second = adapt(services, manager, spec=spec)
    assert counts(services, "fallback_scan") == (1,)
    assert second.entry_html == from_scratch(origin.page, spec)


# -- classification fallbacks ----------------------------------------------


def test_removing_a_step_implicated_segment_falls_back():
    origin, __, services, manager = deploy()
    adapt(services, manager)
    # The .alert div is hide_object's footprint; its disappearance
    # would leave the step's effect unaccounted for.
    origin.page = PAGE.replace(
        '<div id="note" class="alert"><p>service notice</p></div>', ""
    )
    second = adapt(services, manager)
    assert counts(services, "fallback_steps") == (1,)
    assert second.entry_html == from_scratch(origin.page)


def test_non_localizable_selector_falls_back():
    spec = AdaptationSpec(site="Delta", origin_host=HOST)
    spec.add("cacheable", ttl_s=600)
    spec.add("strip_scripts")
    # Localizable step name, but the sibling combinator needs context
    # beyond the segment.
    spec.add("hide_object", ObjectSelector.css(".alert + p"))
    origin, __, services, manager = deploy()
    adapt(services, manager, spec=spec)
    origin.page = PAGE.replace("service notice", "renewed notice")
    second = adapt(services, manager, spec=spec)
    assert counts(services, "seeds") == (1,)
    assert counts(services, "fallback_steps") == (1,)
    assert second.entry_html == from_scratch(origin.page, spec)


def test_step_spanning_two_segments_falls_back():
    page = PAGE.replace(
        '<p id="plain">hello</p>',
        '<p id="plain">hello</p>'
        '<div id="note2" class="alert"><p>another notice</p></div>',
    )
    spec = AdaptationSpec(site="Delta", origin_host=HOST)
    spec.add("cacheable", ttl_s=600)
    spec.add("strip_scripts")
    spec.add("hide_object", ObjectSelector.css(".alert"))
    origin, __, services, manager = deploy(page)
    adapt(services, manager, spec=spec)
    # hide_object touches both .alert segments, so neither edit is
    # confined to its own segment.
    origin.page = page.replace("service notice", "renewed notice")
    second = adapt(services, manager, spec=spec)
    assert counts(services, "fallback_steps") == (1,)
    assert second.entry_html == from_scratch(origin.page, spec)


def test_plan_that_empties_the_body_is_not_memoized():
    page = (
        "<html><head><title>E</title></head><body>"
        '<div id="a"><p>alpha</p></div>'
        '<div id="b"><p>beta</p></div>'
        "</body></html>"
    )
    spec = AdaptationSpec(site="Delta", origin_host=HOST)
    spec.add("cacheable", ttl_s=600)
    spec.add("remove_object", ObjectSelector.css("#a"))
    spec.add("remove_object", ObjectSelector.css("#b"))
    origin, __, services, manager = deploy(page)
    adapt(services, manager, spec=spec)
    origin.page = page.replace("alpha", "ALPHA")
    second = adapt(services, manager, spec=spec)
    # An empty residual has no part to split the body around: the
    # build refuses it, and the miss takes the full pipeline.
    assert counts(services, "seeds", "seed_skips", "applied") == (0, 1, 0)
    assert second.entry_html == from_scratch(origin.page, spec)
    assert "ALPHA" not in second.entry_html
