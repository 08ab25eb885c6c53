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
    _is_subsequence,
    _keys_name_their_segments,
    _selector_is_localizable,
    compound_may_match,
    steps_touching,
    DeltaEngine,
)
from repro.core.fastpath import rebundle as _rebundle
from repro.core.plan import TransformPlan
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.core.subpages import assemble_entry as _rebuild_entry
from repro.dom.node import Text
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


# -- steps_touching ------------------------------------------------------


def test_footprints_find_matches_anywhere_in_the_subtree():
    nodes = _forest('<div><ul><li class="hot">x</li></ul></div>')
    hot, cold = _steps(".hot", ".cold")
    assert steps_touching([hot, cold], nodes) == {0}
    # Non-element nodes never match anything.
    assert steps_touching([hot], [Text("plain")]) == set()


def test_step_without_a_parsed_selector_touches_nothing():
    spec = AdaptationSpec(site="F", origin_host="origin.example")
    spec.add("hide_object", ObjectSelector.css("#unclosed["))
    (step,) = TransformPlan.compile(spec).dom_steps
    assert step.selector_group is None
    assert not steps_touching([step], _forest("<div id='unclosed'></div>"))


def test_batched_footprints_agree_with_per_step_probes():
    steps = _steps("#feed", ".teaser", "aside", "#absent", "p", "div.teaser")
    nodes = _forest(
        '<div id="feed"><div class="teaser">t</div></div><p>text</p>'
    )
    individual = {
        index for index, step in enumerate(steps)
        if steps_touching([step], nodes)
    }
    assert steps_touching(steps, nodes) == individual == {0, 1, 4, 5}


def test_footprints_keep_the_per_element_conjunction():
    # One element is a <div>, a different one carries id="feed": no
    # single element is div#feed, so the step touches nothing here.
    nodes = _forest('<div class="a">x</div><span id="feed">y</span>')
    probes = _steps("div#feed", "span#feed", "nav.missing")
    assert steps_touching(probes, nodes) == {1}
    assert steps_touching(probes, [Text("just text")]) == set()


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


def test_keys_name_their_segments():
    a0, a1, b = ("e", "div", "a", 0), ("e", "div", "a", 1), ("e", "p", "#", "b")
    assert _keys_name_their_segments([a0, a1, b], [a0, a1, b])
    assert _keys_name_their_segments([a0, a1, b], [b])  # a bucket lost whole
    assert _keys_name_their_segments([a0, b], [a0])
    # Recounted, the survivor of a half-lost bucket keys as its first.
    assert not _keys_name_their_segments([a0, a1, b], [a0, b])
    assert not _keys_name_their_segments([b, a0, b], [a0])  # a shared id
    assert not _keys_name_their_segments([a0, b], [b, a0])


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
        entry_body=b"old",
        files=[entry, other],
        subpages=[{"id": "sub"}],
        notes=["delta: entry patched incrementally", "kept"],
        snapshot_bytes=7,
        used_browser=True,
    )
    patched = _rebundle(bundle, b"new", "e1")
    assert patched.etag == "e1"
    assert patched.entry_html == "new"
    assert [f.data for f in patched.files] == [b"new", b"sub"]
    assert patched.files[1] is other  # unchanged artifacts are shared
    assert patched.subpages == ({"id": "sub"},)
    # Read-only subpage metadata is shared, not copied per revision.
    assert patched.subpages is bundle.subpages
    assert patched.notes == ("kept", "delta: entry patched incrementally")
    assert not patched.used_browser
    # The original bundle is untouched.
    assert bundle.entry_html == "old" and bundle.files[0].data == b"old"


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


def _memo_pipeline(filter_steps=()):
    return SimpleNamespace(
        plan=SimpleNamespace(dom_steps=[], filter_steps=list(filter_steps))
    )


def _build(engine, ctx, entry_html="", bundle=None, raw_source=MEMO_SRC):
    stash = _Stash(
        ctx=ctx, entry_body=entry_html.encode("utf-8"), bundle=bundle,
        raw_source=raw_source, deadline=0.0,
    )
    return engine._build_memo(_memo_pipeline(), stash)


def test_memo_refuses_prerender_and_thumbnail_runs():
    # Decided from flags alone, so the full run itself refuses these.
    healthy = SimpleNamespace(degraded=None)
    assert _seedable(_memo_pipeline(), _memo_ctx(), healthy)
    # So is a filter phase that cannot be run segment by segment.
    title = SimpleNamespace(definition=SimpleNamespace(name="title_rewrite"))
    assert not _seedable(_memo_pipeline([title]), _memo_ctx(), healthy)
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


# -- the build's piecewise setup and its proofs (direct) -------------------

ENTRY_BUNDLE = SimpleNamespace(
    files=[SimpleNamespace(relpath="entry.html")], entry_rel="entry.html"
)


def _identity_filter(monkeypatch, mapping=None):
    """Stub the per-piece filter so each proof can be forced directly."""
    table = dict(mapping or {})

    def fake(self, pipeline, piece):
        return table.get(piece, piece)

    monkeypatch.setattr(DeltaEngine, "_filter_piece", fake)


def _build_filtered(filtered, raw_source=MEMO_SRC):
    """Build against a run whose filter phase turned ``raw_source``
    into ``filtered``; every proof before the piecewise ones holds."""
    ctx = _memo_ctx(source=filtered, document=parse_html(filtered))
    entry = _rebuild_entry(serialize(ctx.document), "", "")
    engine = DeltaEngine(Observability().registry)
    return _build(engine, ctx, entry, ENTRY_BUNDLE, raw_source)


def test_piecewise_setup_admits_a_page_whose_pieces_prove_out(monkeypatch):
    _identity_filter(monkeypatch)
    memo = _build_filtered(MEMO_SRC)
    assert memo is not None
    assert [seg.raw for seg in memo.raw_scan.segments] == memo.pieces
    assert "".join(memo.parts.values()) == (
        '<div id="a"><p>x</p></div><div id="b"><p>y</p></div>'
    )
    assert memo.shell_prefix.endswith("<body>")


def test_piecewise_setup_needs_a_scannable_raw_source(monkeypatch):
    _identity_filter(monkeypatch)
    assert _build_filtered(MEMO_SRC, "<p>no body here</p>") is None


def test_piecewise_setup_refuses_when_the_filter_raises(monkeypatch):
    def boom(self, pipeline, piece):
        raise RuntimeError("filter exploded")

    monkeypatch.setattr(DeltaEngine, "_filter_piece", boom)
    assert _build_filtered(MEMO_SRC) is None


def test_piecewise_setup_refuses_a_shell_mismatch(monkeypatch):
    prelude = scan_segments(MEMO_SRC).prelude
    _identity_filter(
        monkeypatch, {prelude: prelude.replace("<head>", "<head><meta>")}
    )
    assert _build_filtered(MEMO_SRC) is None


def test_piecewise_setup_refuses_a_concatenation_mismatch(monkeypatch):
    # Same shell, but the run's filtered source has extra bytes the
    # per-piece outputs cannot account for.
    _identity_filter(monkeypatch)
    doctored = MEMO_SRC.replace("<p>x</p>", "<p>x</p><p>extra</p>")
    assert _build_filtered(doctored) is None


def test_piecewise_setup_refuses_unscannable_pieces(monkeypatch):
    # Two pieces that only form valid markup once concatenated: the
    # per-segment model cannot hold them, even though the joined
    # output is byte-exact.
    _identity_filter(
        monkeypatch,
        {
            '<div id="a"><p>x</p></div>': "<div>",
            '<div id="b"><p>y</p></div>': "</div>",
        },
    )
    raw_scan = scan_segments(MEMO_SRC)
    assert _build_filtered(
        raw_scan.prelude + "<div></div>" + raw_scan.tail
    ) is None


def test_piecewise_setup_refuses_a_splice_mismatch(monkeypatch):
    # Piece-by-piece the outputs are two text runs; a direct scan of
    # the joined page merges them into one segment.  The splice proof
    # must fail rather than memoize the wrong segmentation.
    _identity_filter(
        monkeypatch,
        {
            '<div id="a"><p>x</p></div>': "alpha ",
            '<div id="b"><p>y</p></div>': "beta",
        },
    )
    raw_scan = scan_segments(MEMO_SRC)
    assert _build_filtered(
        raw_scan.prelude + "alpha beta" + raw_scan.tail
    ) is None


# -- classification and application edges (direct) -------------------------


def test_multi_node_segment_raw_is_a_fragment_fallback():
    engine = DeltaEngine(Observability().registry)
    key = ("e", "div", "#", "a")
    with pytest.raises(_Fallback) as bail:
        engine._classify_one(
            "mutate", key, SimpleNamespace(seg_steps={}),
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
            pipeline, parse_fragment("<div>x</div>")[0], [0], [step]
        )
    assert bail.value.reason == "localize"


def test_apply_lays_the_parts_out_in_scan_order():
    engine = DeltaEngine(Observability().registry)
    a, b, c = (("e", "p", tag, 0) for tag in "abc")
    memo = SimpleNamespace(
        parts={a: "<p>a</p>", b: "<p>b</p>"}, seg_steps={b: {0}},
    )
    (node,) = parse_fragment("<p>c</p>")
    order = [SimpleNamespace(identity=key) for key in (c, b)]
    engine._apply(memo, [_Patch(a), _Patch(c, node=node)], order)
    assert list(memo.parts.items()) == [(c, "<p>c</p>"), (b, "<p>b</p>")]
    assert memo.seg_steps == {b: {0}}


def test_apply_refuses_a_part_that_outlived_its_segment():
    # Defensive: the classifier removes every segment the new scan
    # lacks.  A part left over would be an entry the page no longer
    # has, so the attempt drops the memo instead.
    engine = DeltaEngine(Observability().registry)
    key = ("e", "p", "", 0)
    memo = SimpleNamespace(parts={key: "<p>stale</p>"}, seg_steps={})
    with pytest.raises(RuntimeError):
        engine._apply(memo, [], [])
