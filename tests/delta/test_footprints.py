"""Selector footprints and the small pure helpers of the delta engine.

Footprint soundness is the property everything else leans on: a step
whose footprint says "touches nothing in this subtree" must truly match
nothing there, while over-approximation (claiming a touch that a full
match would reject) is always allowed.
"""

from types import SimpleNamespace

import pytest

from repro.core import fastpath
from repro.core.delta import (
    _Fallback,
    _Patch,
    _Stash,
    _seedable,
    scan_segments,
    SubtreeSummary,
    _is_subsequence,
    _patchable_pair,
    _selector_is_localizable,
    compound_may_match,
    step_touches,
    steps_touching,
    DeltaEngine,
)
from repro.core.fastpath import rebundle as _rebundle
from repro.core.plan import TransformPlan
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.core.subpages import assemble_entry as _rebuild_entry
from repro.dom.node import Comment, Text
from repro.html.parser import parse_fragment, parse_html
from repro.html.serializer import serialize
from repro.observability import Observability


def _steps(*selectors: str):
    spec = AdaptationSpec(site="F", origin_host="origin.example")
    for css in selectors:
        spec.add("hide_object", ObjectSelector.css(css))
    return TransformPlan.compile(spec).dom_steps


def _forest(html: str):
    return parse_fragment(html)


# -- compound_may_match ----------------------------------------------------


def test_compound_checks_tag_id_class_and_attributes():
    (element,) = _forest('<div id="feed" class="list wide" data-x="1"></div>')
    cases = {
        "div": True,
        "span": False,
        "#feed": True,
        "#other": False,
        ".list.wide": True,
        ".list.narrow": False,
        '[data-x="1"]': True,
        '[data-x="2"]': False,
    }
    for css, expected in cases.items():
        (step,) = _steps(css)
        compound = step.selector_group.alternatives[0].compounds[-1]
        assert compound_may_match(compound, element) is expected, css


def test_pseudo_classes_are_conservatively_assumed_to_match():
    (element,) = _forest("<li>solo</li>")
    (step,) = _steps("li:first-child")
    compound = step.selector_group.alternatives[0].compounds[-1]
    assert compound_may_match(compound, element)


# -- step_touches / steps_touching ----------------------------------------


def test_step_touches_finds_matches_anywhere_in_the_subtree():
    nodes = _forest('<div><ul><li class="hot">x</li></ul></div>')
    (hot,) = _steps(".hot")
    (cold,) = _steps(".cold")
    assert step_touches(hot, nodes)
    assert not step_touches(cold, nodes)
    # Non-element nodes never match anything.
    assert not step_touches(hot, [Text("plain")])


def test_step_without_a_parsed_selector_touches_nothing():
    spec = AdaptationSpec(site="F", origin_host="origin.example")
    spec.add("hide_object", ObjectSelector.css("#unclosed["))
    (step,) = TransformPlan.compile(spec).dom_steps
    assert step.selector_group is None
    assert not step_touches(step, _forest("<div id='unclosed'></div>"))


def test_batched_footprints_agree_with_per_step_probes():
    steps = _steps("#feed", ".teaser", "aside", "#absent")
    nodes = _forest(
        '<div id="feed"><div class="teaser">t</div></div><p>text</p>'
    )
    batched = steps_touching(steps, nodes)
    individual = {
        index for index, step in enumerate(steps)
        if step_touches(step, nodes)
    }
    assert batched >= individual  # widening is allowed...
    assert 3 not in batched  # ...but absent probes must stay out


def test_summary_widens_across_elements_but_stays_sound():
    # One element is a <div>, a different one carries id="feed": the
    # summary satisfies a div#feed probe (documented widening) even
    # though the exact walk rejects it.
    nodes = _forest('<div class="a">x</div><span id="feed">y</span>')
    (step,) = _steps("div#feed")
    compound = step.selector_group.alternatives[0].compounds[-1]
    summary = SubtreeSummary.of(nodes)
    assert summary.may_contain_match(compound)
    assert not step_touches(step, nodes)
    # A probe naming anything truly absent is rejected outright.
    (absent,) = _steps("nav.missing")
    missing = absent.selector_group.alternatives[0].compounds[-1]
    assert not summary.may_contain_match(missing)
    assert not SubtreeSummary.of([Text("just text")]).tags


# -- localizability --------------------------------------------------------


def test_sibling_combinators_and_pseudos_are_not_localizable():
    localizable, sibling, general, pseudo, nested_pseudo = _steps(
        "#feed > .item", "h2 + p", "h2 ~ p", "li:first-child",
        "ul li:last-child",
    )
    assert _selector_is_localizable(localizable)
    assert not _selector_is_localizable(sibling)
    assert not _selector_is_localizable(general)
    assert not _selector_is_localizable(pseudo)
    assert not _selector_is_localizable(nested_pseudo)


def test_unparsed_selectors_are_not_localizable():
    spec = AdaptationSpec(site="F", origin_host="origin.example")
    spec.add("hide_object", ObjectSelector.css("#unclosed["))
    (step,) = TransformPlan.compile(spec).dom_steps
    assert not _selector_is_localizable(step)


# -- small pure helpers ----------------------------------------------------


def test_is_subsequence():
    assert _is_subsequence([], ["a"])
    assert _is_subsequence(["a", "c"], ["a", "b", "c"])
    assert not _is_subsequence(["c", "a"], ["a", "b", "c"])
    assert not _is_subsequence(["x"], ["a", "b"])


def test_patchable_pairs_require_matching_kinds_and_tags():
    div, = _forest("<div>x</div>")
    div2, = _forest("<div>y</div>")
    span, = _forest("<span>z</span>")
    assert _patchable_pair(div, div2)
    assert not _patchable_pair(div, span)
    assert _patchable_pair(Text("a"), Text("b"))
    assert _patchable_pair(Comment("a"), Comment("b"))
    assert not _patchable_pair(Text("a"), Comment("b"))


def test_rebuild_entry_mirrors_emit_entry_shapes():
    body = "<html><body><p>x</p></body></html>"
    assert _rebuild_entry(body, "", "") == body
    assert _rebuild_entry(body, "<ul>m</ul>", "") == (
        "<html><body><ul>m</ul><p>x</p></body></html>"
    )
    assert _rebuild_entry(body, "", "<i>a</i>") == (
        "<html><body><p>x</p><i>a</i></body></html>"
    )
    # Bodies without the literal tags fall back to concatenation.
    assert _rebuild_entry("<p>x</p>", "<ul>m</ul>", "<i>a</i>") == (
        "<ul>m</ul><p>x</p><i>a</i>"
    )


def test_rebundle_swaps_only_the_entry_artifact():
    entry = fastpath.BundleFile("entry.html", "text/html", b"old")
    other = fastpath.BundleFile("sub.html", "text/html", b"sub")
    bundle = fastpath.FastpathBundle(
        etag="e0",
        entry_rel="entry.html",
        entry_html="old",
        files=[entry, other],
        subpages=[{"id": "sub"}],
        notes=["delta: entry patched incrementally", "kept"],
        snapshot_bytes=7,
        used_browser=True,
    )
    patched = _rebundle(bundle, "new", "e1")
    assert patched.etag == "e1"
    assert patched.entry_html == "new"
    assert [f.data for f in patched.files] == [b"new", b"sub"]
    assert patched.files[1] is other  # unchanged artifacts are shared
    assert patched.subpages == [{"id": "sub"}]
    assert patched.subpages[0] is not bundle.subpages[0]
    assert patched.notes == ["kept", "delta: entry patched incrementally"]
    assert not patched.used_browser
    # The original bundle is untouched.
    assert bundle.entry_html == "old" and bundle.files[0].data == b"old"


def test_render_body_without_part_cache_serializes_the_residual():
    engine = DeltaEngine(Observability().registry)
    residual = parse_html("<html><body><p>whole</p></body></html>")
    memo = SimpleNamespace(entry_parts=None, residual=residual)
    assert engine._render_body(memo) == serialize(residual)


def test_render_body_bails_to_full_serialization_on_a_stray_child():
    # A residual child the part cache has never seen (defensive: the
    # apply loop keeps the cache in lockstep) re-serializes the whole
    # body rather than emit a hole.
    engine = DeltaEngine(Observability().registry)
    residual = parse_html("<html><body><p>stray</p></body></html>")
    memo = SimpleNamespace(
        entry_parts={}, residual=residual, residual_by_key={},
        shell_prefix="", shell_suffix="",
    )
    assert engine._render_body(memo) == serialize(residual)


# -- memo construction bails (direct) --------------------------------------

MEMO_SRC = (
    "<html><head></head><body>"
    '<div id="a"><p>x</p></div><div id="b"><p>y</p></div>'
    "</body></html>"
)


def _memo_ctx(**overrides):
    ctx = SimpleNamespace(
        document=parse_html(MEMO_SRC),
        prerender_page=None,
        partial_prerender_targets=(),
        media_thumbnails=(),
        source=MEMO_SRC,
        plan=SimpleNamespace(top_level=lambda: []),
    )
    for name, value in overrides.items():
        setattr(ctx, name, value)
    return ctx


def _memo_pipeline():
    return SimpleNamespace(plan=SimpleNamespace(dom_steps=[]))


def _build(engine, ctx, entry_html="", bundle=None):
    stash = _Stash(
        ctx=ctx, entry_html=entry_html, bundle=bundle,
        ttl_s=0.0, raw_source=None, deadline=0.0,
    )
    return engine._build_memo(_memo_pipeline(), stash)


def test_memo_refuses_prerender_and_thumbnail_runs():
    # Decided from flags alone, so the full run itself refuses these.
    healthy = SimpleNamespace(degraded=None)
    assert _seedable(_memo_pipeline(), _memo_ctx(), healthy)
    for ctx in (
        _memo_ctx(prerender_page="p2"),
        _memo_ctx(partial_prerender_targets=("t",)),
        _memo_ctx(media_thumbnails=("t",)),
    ):
        assert not _seedable(_memo_pipeline(), ctx, healthy)
    assert not _seedable(
        _memo_pipeline(), _memo_ctx(), SimpleNamespace(degraded="stale")
    )


def test_memo_refuses_a_residual_without_a_body():
    engine = DeltaEngine(Observability().registry)
    ctx = _memo_ctx(document=SimpleNamespace(body=None))
    assert _build(engine, ctx) is None


def test_memo_refuses_a_reordered_residual():
    # Steps may only remove top-level children; a residual whose
    # children are out of source order is not a subsequence.
    engine = DeltaEngine(Observability().registry)
    reordered = MEMO_SRC.replace(
        '<div id="a"><p>x</p></div><div id="b"><p>y</p></div>',
        '<div id="b"><p>y</p></div><div id="a"><p>x</p></div>',
    )
    ctx = _memo_ctx(document=parse_html(reordered))
    assert _build(engine, ctx) is None


def test_memo_refuses_an_entry_it_cannot_reconstruct():
    engine = DeltaEngine(Observability().registry)
    assert _build(engine, _memo_ctx(), "not the entry") is None


def test_memo_refuses_a_bundle_missing_the_entry_file():
    engine = DeltaEngine(Observability().registry)
    ctx = _memo_ctx()
    rebuilt = _rebuild_entry(serialize(ctx.document), "", "")
    bundle = SimpleNamespace(files=[], entry_rel="entry.html")
    assert _build(engine, ctx, rebuilt, bundle) is None


# -- piecewise-setup proof obligations (direct) ----------------------------

RAW_SRC = MEMO_SRC  # two divs; scans cleanly


def _piecewise_pipeline():
    return SimpleNamespace(plan=SimpleNamespace(filter_steps=[]))


def _identity_filter(monkeypatch, mapping=None):
    """Stub the per-piece filter so each arm can be forced directly."""
    table = dict(mapping or {})

    def fake(self, pipeline, piece):
        return table.get(piece, piece)

    monkeypatch.setattr(DeltaEngine, "_filter_piece", fake)


def test_piecewise_setup_needs_a_scannable_raw_source(monkeypatch):
    engine = DeltaEngine(Observability().registry)
    assert engine._piecewise_setup(None, None, "x", None) is None
    assert (
        engine._piecewise_setup(
            _piecewise_pipeline(), "<p>no body here</p>", "x", None
        )
        is None
    )


def test_piecewise_setup_refuses_when_the_filter_raises(monkeypatch):
    engine = DeltaEngine(Observability().registry)

    def boom(self, pipeline, piece):
        raise RuntimeError("filter exploded")

    monkeypatch.setattr(DeltaEngine, "_filter_piece", boom)
    scan = scan_segments(RAW_SRC)
    assert (
        engine._piecewise_setup(
            _piecewise_pipeline(), RAW_SRC, RAW_SRC, scan
        )
        is None
    )


def test_piecewise_setup_refuses_a_shell_mismatch(monkeypatch):
    engine = DeltaEngine(Observability().registry)
    _identity_filter(monkeypatch)
    other = scan_segments(
        "<html><head><title>t</title></head><body><hr></body></html>"
    )
    assert (
        engine._piecewise_setup(
            _piecewise_pipeline(), RAW_SRC, RAW_SRC, other
        )
        is None
    )


def test_piecewise_setup_refuses_a_concatenation_mismatch(monkeypatch):
    engine = DeltaEngine(Observability().registry)
    _identity_filter(monkeypatch)
    scan = scan_segments(RAW_SRC)
    # Same shell, but the claimed filtered source has extra bytes the
    # per-piece outputs cannot account for.
    doctored = RAW_SRC.replace("<p>x</p>", "<p>x</p><p>extra</p>")
    assert (
        engine._piecewise_setup(
            _piecewise_pipeline(), RAW_SRC, doctored, scan
        )
        is None
    )


def test_piecewise_setup_refuses_unscannable_pieces(monkeypatch):
    # Two pieces that only form valid markup once concatenated: the
    # per-segment model cannot hold them, even though the joined
    # output is byte-exact.
    engine = DeltaEngine(Observability().registry)
    _identity_filter(
        monkeypatch,
        {
            '<div id="a"><p>x</p></div>': "<div>",
            '<div id="b"><p>y</p></div>': "</div>",
        },
    )
    raw_scan = scan_segments(RAW_SRC)
    filtered = raw_scan.prelude + "<div></div>" + raw_scan.tail
    assert (
        engine._piecewise_setup(
            _piecewise_pipeline(), RAW_SRC, filtered,
            scan_segments(filtered),
        )
        is None
    )


def test_piecewise_setup_refuses_a_splice_mismatch(monkeypatch):
    # Piece-by-piece the outputs are two text runs; a direct scan of
    # the joined page merges them into one segment.  The splice proof
    # must fail rather than memoize the wrong segmentation.
    engine = DeltaEngine(Observability().registry)
    _identity_filter(
        monkeypatch,
        {
            '<div id="a"><p>x</p></div>': "alpha ",
            '<div id="b"><p>y</p></div>': "beta",
        },
    )
    raw_scan = scan_segments(RAW_SRC)
    filtered = raw_scan.prelude + "alpha beta" + raw_scan.tail
    assert (
        engine._piecewise_setup(
            _piecewise_pipeline(), RAW_SRC, filtered,
            scan_segments(filtered),
        )
        is None
    )


# -- classification and application edges (direct) -------------------------


def test_multi_node_segment_raw_is_a_fragment_fallback():
    engine = DeltaEngine(Observability().registry)
    key = ("e", "div", "#", "a")
    with pytest.raises(_Fallback) as bail:
        engine._classify_one(
            "mutate", key, SimpleNamespace(seg_steps={}), {},
            {key: SimpleNamespace(raw="<p>a</p><p>b</p>")}, [], None,
        )
    assert bail.value.reason == "fragment"


def test_localize_wraps_step_crashes_in_a_fallback():
    engine = DeltaEngine(Observability().registry)
    spec = AdaptationSpec(site="F", origin_host="origin.example")

    def boom(ctx, binding):
        raise RuntimeError("applier exploded")

    step = SimpleNamespace(
        definition=SimpleNamespace(name="hide_object", applier=boom),
        binding=None,
    )
    pipeline = SimpleNamespace(spec=spec, proxy_base="http://m.example")
    with pytest.raises(_Fallback) as bail:
        engine._localize(
            pipeline, parse_fragment("<div>x</div>"), [0], [step]
        )
    assert bail.value.reason == "localize"


def test_apply_swaps_when_the_residual_node_is_gone():
    # A mutate patch whose residual node has vanished (defensive: the
    # classifier only emits these for live keys) swaps the new nodes
    # in rather than diffing against nothing.
    engine = DeltaEngine(Observability().registry)
    residual = parse_html("<html><body></body></html>")
    memo = SimpleNamespace(
        residual_by_key={}, residual=residual, entry_parts=None
    )
    (node,) = parse_fragment("<em>new</em>")
    patch = _Patch("mutate", ("e", "em", "", 0), nodes=[node])
    assert engine._apply(memo, None, [patch]) == 1
    assert memo.residual_by_key[patch.identity] is node
    assert "<em>new</em>" in serialize(residual)
