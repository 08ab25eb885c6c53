"""Incremental re-adaptation: the warm cache-*miss* fast path.

The fast path (:mod:`repro.core.fastpath`) replays whole adapted
responses, but any origin content change busts the ``content-fp``
component of the bundle key and forces a full pipeline replay — parse,
every plan phase, serialize — even when consecutive origin renders
differ in a handful of subtrees.  This module turns that warm miss into
a near-hit:

1.  After a full run stores a bundle, :meth:`DeltaEngine.seed` stashes
    the run's inputs under the (site, path, device, spec) key.  Most
    stashes are never read — a refresh, a TTL expiry or a newer run
    replaces them — so nothing is computed from one until a warm miss
    asks.  The first such miss builds the *memo* from it, and the
    stash keeps it, with the latest stored bundle, for the rest of its
    life: the origin source split into top-level **segments** (the
    ``<body>``'s direct children, each keyed by stable identity) with
    each one's filter output, the post-run residual's top-level nodes
    serialized one by one inside the shell around them, and per-step
    selector footprints (which segments each compiled plan step may
    touch).

2.  On a warm miss for the same key, :meth:`DeltaEngine.attempt`
    rescans the new origin source, runs the filter phase over just the
    segments whose raw bytes changed (every filter step is piecewise —
    a plan whose filter phase is not is never stashed, and a page whose
    piecewise proof fails is never memoized), and aligns the segments
    against the memo by identity.  The attempt then takes one of three
    rungs:

    * **identical** — the filtered pieces are byte-equal (the change
      was filtered away): the old bundle is re-stored under the new
      content fingerprint, nothing is recomputed;
    * **replace** — every changed segment takes one path: its new raw
      slice is parsed, the plan steps implicated in it (none, or only
      *localizable* transforms confined to this one segment) re-run on
      the fragment, and the result's serialization takes the old
      part's place;
    * **fallback** — anything else (structural upheaval, a non-local
      step, a scanner bail) falls through to the full pipeline replay.

    The parts, laid out in the new scan's order inside the shell, are
    the entry body; the entry artifact is swapped inside a copy of the
    cached bundle, and the result is stored under the new
    ``content-fp`` — so subsequent requests for the same render are
    plain fast-path hits.

The hard invariant — enforced by the differential suites — is that a
delta-patched response is **byte-identical** to a from-scratch full
adaptation of the new origin.  Every shortcut in this module is either
verified when the memo is built (the segment scanner is cross-checked
against the real parser; the entry reconstruction against the run that
was stashed, part by part; the per-segment filter output against the
whole-page filter, concatenated and spliced) or guarded by a conservative bail
that takes the full-replay path instead.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass, field
from difflib import SequenceMatcher
from typing import Any, Optional

from repro.core import fastpath
from repro.core.pipeline import PipelineContext, apply_steps
from repro.core.subpages import (
    ajax_injection_html,
    assemble_entry,
    menu_html,
)
from repro.dom import diff
from repro.dom.document import Document
from repro.dom.element import Element, VOID_ELEMENTS
from repro.dom.node import Node
from repro.html.parser import _IMPLIED_CLOSERS, parse_fragment, parse_html
from repro.html.serializer import serialize
from repro.html.tokenizer import scan

#: DOM-phase attributes whose effect is a pure function of the matched
#: subtree — safe to re-run on an isolated fragment.  Everything else
#: (subpage minting, pagination, relocation…) forces a full replay when
#: its footprint intersects a changed segment.
LOCALIZABLE_STEPS = frozenset({"feed_window", "remove_object", "hide_object"})

#: Filter attributes that are *piecewise-safe*: pure all-matches
#: substitutions whose every match lies wholly inside one well-formed
#: element or tag, so filtering segment-by-segment concatenates to the
#: same bytes as filtering the whole page.  Attributes with insertion
#: or first-match semantics (``doctype_rewrite``, ``title_rewrite``,
#: counted ``source_replace``) are excluded — their output depends on
#: content elsewhere in the page — and a plan that has one is never
#: memoized.
PIECEWISE_FILTERS = frozenset(
    {"strip_scripts", "strip_css", "rewrite_images"}
)

#: DOM-phase attributes that may insert or move nodes at the top level
#: of the body — they would break the segment↔residual mapping, so a
#: plan containing one is never memoized.
_TOPLEVEL_REWRITERS = frozenset(
    {"insert_object", "relocate_object", "replace_object", "insert_js"}
)

#: A changed fraction above this is a rebuild, not an edit.
UPHEAVAL_FRACTION = 0.5


# ---------------------------------------------------------------------------
# segment scanning


@dataclass
class Segment:
    """One top-level body child, as a raw slice of the filtered source."""

    identity: tuple
    raw: str
    kind: str  # 'element' | 'text' | 'comment'
    tag: str = ""
    elem_id: Optional[str] = None
    assigned: Optional[str] = None
    classes: str = ""

    @property
    def facts(self) -> tuple:
        return (
            self.kind, self.raw, self.tag,
            self.elem_id, self.assigned, self.classes,
        )


@dataclass
class ScanResult:
    """A source split into prelude + body segments + tail."""

    prelude: str
    segments: list[Segment]
    tail: str


class _ScanBail(Exception):
    """The source is not strictly well-formed enough to segment."""


# Searched in the source itself (ASCII case folding): offsets into
# ``source.lower()`` are not offsets into ``source``.
_BODY_OPEN = re.compile(r"<body", re.IGNORECASE | re.ASCII)
_BODY_CLOSE = re.compile(r"</body", re.IGNORECASE | re.ASCII)


def scan_segments(source: str) -> Optional[ScanResult]:
    """Split a page into ``<body>`` prelude, segments, and tail.

    Returns ``None`` whenever the markup needs any of the parser's soup
    recovery (implied closers, stray end tags, head scaffolding inside
    the body…) — those cases re-adapt through the full pipeline.  The
    guarantee this strictness buys: every returned element segment
    parses identically via :func:`parse_fragment` and in page context,
    so fragments patched into the residual match a full re-parse.
    """
    opened = _BODY_OPEN.search(source)
    closes = [match.start() for match in _BODY_CLOSE.finditer(source)]
    if opened is None or not closes:
        return None
    # The region opens with the <body> tag itself (a longer name, as in
    # <bodyguard>, bails); one the close cuts short, or follows, reads
    # as unterminated and bails too.
    sink = _SegmentSink(source, body_end=None)
    try:
        scan(source, sink, opened.start(), closes[-1])
        facts = sink.finish()
    except _ScanBail:
        return None
    return ScanResult(
        prelude=source[: sink.body_end],
        segments=_assign_identities(facts),
        tail=source[closes[-1] :],
    )


def rescan_segments(source: str, baseline: ScanResult) -> Optional[ScanResult]:
    """:func:`scan_segments`, reusing a previous scan of a similar page.

    Unchanged segments are recognized by raw byte equality from both
    ends of the body region, so only the changed middle pays for a real
    depth-tracked scan — the delta path's cost then scales with the
    size of the change, not the page.  Falls back to a full scan (and
    its verdict) whenever the shortcut's preconditions wobble; the
    result is always exactly what :func:`scan_segments` would return.
    """
    prelude, tail = baseline.prelude, baseline.tail
    if not (source.startswith(prelude) and source.endswith(tail)):
        return scan_segments(source)
    start = len(prelude)
    end = len(source) - len(tail)
    if end < start:
        return scan_segments(source)
    old = baseline.segments
    front = 0
    cursor = start
    while front < len(old):
        raw = old[front].raw
        if cursor + len(raw) <= end and source.startswith(raw, cursor):
            cursor += len(raw)
            front += 1
        else:
            break
    back = 0
    back_cursor = end
    while back < len(old) - front:
        raw = old[len(old) - 1 - back].raw
        if back_cursor - len(raw) >= cursor and source.startswith(
            raw, back_cursor - len(raw)
        ):
            back_cursor -= len(raw)
            back += 1
        else:
            break
    try:
        middle = _scan_region(source, cursor, back_cursor)
    except _ScanBail:
        # The middle may only be malformed *relative to the splice
        # boundaries* (e.g. an element left open across them); the full
        # scan is the authority.
        return scan_segments(source)
    facts = (
        [seg.facts for seg in old[:front]]
        + middle
        + [seg.facts for seg in old[len(old) - back :]]
    )
    # Two adjacent text runs would have been one segment in a full
    # scan — the splice boundaries cut through a text run.  Re-scan.
    if _adjacent_text(facts):
        return scan_segments(source)
    return ScanResult(
        prelude=prelude,
        segments=_assign_identities(facts),
        tail=tail,
    )


_Facts = tuple  # (kind, raw, tag, elem_id, assigned, classes)


def _scan_region(source: str, start: int, end: int) -> list[_Facts]:
    """Depth-tracked scan of a body region into top-level fact tuples."""
    sink = _SegmentSink(source, body_end=start)
    scan(source, sink, start, end)
    return sink.finish()


class _SegmentSink:
    """The strict reader of :func:`repro.html.tokenizer.scan`.

    The tree builder's nesting rules with every recovery turned into a
    bail: whatever the lexer had to recover from, and whatever the
    builder would restructure (scaffolding, implied closers, stray or
    mismatched end tags, self-closing non-voids).  Each top-level node
    becomes one fact tuple whose raw text is sliced by the lexer's
    offsets.  With ``body_end=None`` the first event must be the
    ``<body>`` tag, whose end is recorded instead of segmented.
    """

    def __init__(self, source: str, body_end: Optional[int]) -> None:
        self.source = source
        self.body_end = body_end
        self.facts: list[_Facts] = []
        self._stack: list[str] = []
        self._root_start = 0
        self._root_facts: tuple = ()

    def recovered(self, reason: str, at: int) -> None:
        raise _ScanBail(reason)

    def doctype(self, name, start, end) -> None:
        raise _ScanBail("markup declaration inside body")

    def _emit(self, kind, start, end, facts=("", None, None, "")) -> None:
        self.facts.append((kind, self.source[start:end], *facts))

    def comment(self, data, start, end) -> None:
        if not self._stack:
            self._emit("comment", start, end)

    def text(self, data, start, end) -> None:
        if not self._stack:
            self._emit("text", start, end)

    def start_tag(self, name, attributes, self_closing, start, end) -> None:
        if self.body_end is None:
            if name != "body":
                raise _ScanBail(f"<{name}> where <body> was expected")
            self.body_end = end
            return
        if name in ("html", "head", "body"):
            raise _ScanBail(f"<{name}> inside body")
        stack = self._stack
        closers = _IMPLIED_CLOSERS.get(name)
        if closers is not None and any(tag in closers for tag in stack):
            raise _ScanBail(f"<{name}> would imply-close an open element")
        void = name in VOID_ELEMENTS
        if self_closing and not void:
            raise _ScanBail(f"self-closing <{name}/>")
        if not stack:
            self._root_start = start
            self._root_facts = (
                name,
                attributes.get("id"),
                attributes.get(diff.IDENTITY_ATTRIBUTE),
                attributes.get("class", ""),
            )
            if void:
                self._emit("element", start, end, self._root_facts)
        if not void:
            stack.append(name)

    def end_tag(self, name, start, end) -> None:
        stack = self._stack
        if not stack or stack[-1] != name:
            raise _ScanBail(f"end tag </{name}> does not close the top")
        stack.pop()
        if not stack:
            self._emit("element", self._root_start, end, self._root_facts)

    def finish(self) -> list[_Facts]:
        if self._stack or self.body_end is None:
            raise _ScanBail("region ends with open elements")
        return self.facts


def _assign_identities(merged: list[_Facts]) -> list[Segment]:
    """Segments keyed by :func:`repro.dom.diff.shape_keys`."""
    keys = diff.shape_keys(
        (kind, tag, elem_id, assigned, classes)
        for kind, __, tag, elem_id, assigned, classes in merged
    )
    return [
        Segment(identity, raw, kind, tag, elem_id, assigned, classes)
        for identity, (kind, raw, tag, elem_id, assigned, classes)
        in zip(keys, merged)
    ]


# ---------------------------------------------------------------------------
# selector footprints


def compound_may_match(compound, element: Element) -> bool:
    """Context-free over-approximation of one compound selector.

    Evaluates only the locally-decidable simple selectors (tag, id,
    class, attribute tests); pseudo-classes are conservatively assumed
    to match.  Any full right-to-left selector match requires the
    rightmost compound to accept the subject element, so *may-match
    nowhere in a subtree* soundly implies *matches nowhere in it*.
    """
    if compound.tag is not None and element.tag != compound.tag:
        return False
    if compound.element_id is not None and element.id != compound.element_id:
        return False
    for class_name in compound.class_names:
        if not element.has_class(class_name):
            return False
    for test in compound.attribute_tests:
        if not test.matches(element):
            return False
    return True


def _rightmost_compounds(step) -> list:
    group = step.selector_group
    if group is None:
        return []
    return [alt.compounds[-1] for alt in group.alternatives]


def steps_touching(plan_steps, nodes: list[Node]) -> set[int]:
    """Indices of steps whose footprint may intersect these subtrees.

    One walk: every element is tested against the rightmost compounds
    of each step not yet known to touch, so a step's verdict is exactly
    "some single element may match it" — never widened by facts drawn
    from different elements.
    """
    pending = [
        (index, compounds)
        for index, step in enumerate(plan_steps)
        if (compounds := _rightmost_compounds(step))
    ]
    touching: set[int] = set()
    for node in nodes:
        if not isinstance(node, Element):
            continue
        for element in (node, *node.descendant_elements()):
            if not pending:
                return touching
            hits = {
                index
                for index, compounds in pending
                if any(compound_may_match(c, element) for c in compounds)
            }
            if hits:
                touching |= hits
                pending = [p for p in pending if p[0] not in hits]
    return touching


def _selector_is_localizable(step) -> bool:
    """No pseudo-classes, no sibling combinators — the match outcome
    cannot depend on anything outside the fragment's own subtree (its
    ancestors in a scratch document are ``html > body``, exactly as in
    the real page, because segments are top-level body children)."""
    group = step.selector_group
    if group is None:
        return False
    for alternative in group.alternatives:
        if any(c in ("+", "~") for c in alternative.combinators):
            return False
        for compound in alternative.compounds:
            if compound.pseudo_tests:
                return False
    return True


# ---------------------------------------------------------------------------
# the memo


@dataclass
class DeltaMemo:
    """Everything needed to re-adapt one page incrementally."""

    #: The filtered source's segments: the baseline the next delta's
    #: segments are aligned against.
    segments: list[Segment]
    #: A scan of the *unfiltered* (normalized) origin source, plus each
    #: raw segment's filter output and that output's scanned facts.  A
    #: delta rescans the raw source and runs the filter phase only over
    #: segments whose raw bytes changed; the build verified that the
    #: pieces concatenate to exactly the globally filtered page.
    raw_scan: ScanResult
    pieces: list[str]
    piece_facts: list[list[_Facts]]
    #: The entry body as a shell around its top-level nodes, each one
    #: serialized and keyed by identity in body order (absent keys were
    #: detached into subpages or removed by the run).  A delta
    #: re-serializes only the nodes it swaps in.
    parts: dict[tuple, str]
    shell_prefix: str
    shell_suffix: str
    #: identity → indices (into plan.dom_steps) of steps whose selector
    #: footprint intersects that segment.
    seg_steps: dict[tuple, set[int]]
    menu: str
    ajax_injection: str


@dataclass
class _Stash:
    """A key's one record: the latest full run and the memo built from it.

    ``lock`` guards the one build and every attempt after it; ``bundle``
    is the latest bundle stored for the key, which each attempt moves
    forward.  Nothing may mutate ``ctx.document`` once the run that
    stashed it has returned: the memo's proofs are made against it
    later.
    """

    #: The run's :class:`PipelineContext`, entry page bytes and
    #: pre-filter source; all three ``None`` once ``memo`` holds the
    #: verdict of the one build.
    ctx: Any
    entry_body: Optional[bytes]
    bundle: fastpath.FastpathBundle
    raw_source: Optional[str]
    #: Clock time past which the run's frozen artifacts (subpage
    #: renders, images) are no longer fresh; attempts from then on take
    #: the full pipeline, which re-validates every component.  Only the
    #: storing run knows it.
    deadline: float
    memo: Optional[DeltaMemo] = None
    lock: threading.Lock = field(default_factory=threading.Lock)


_COUNTER_HELP = {
    "deferred": "Full runs that stashed their inputs for a later memo.",
    "seeds": "Delta memos built from a stash by a warm miss.",
    "seed_skips":
        "Full runs not delta-eligible, plus stashes a memo build refused.",
    "applied": "Warm misses served by patching the cached bundle.",
    "identical":
        "Warm misses where filtering erased the origin change entirely.",
    "fallbacks": "Delta attempts that fell back to a full replay.",
    "patched_segments": "Segments replaced, inserted or removed by deltas.",
    "no_memo": "Warm misses with no memo to delta against.",
    "expired": "Delta memos dropped because their freshness lapsed.",
    "session_served": "Entry responses shipped as session patch manifests.",
    "session_fallback":
        "Session delta requests answered with the full body.",
}


def delta_counter(registry, name: str):
    """The ``msite_delta_*`` counter family on one registry."""
    return registry.counter(
        f"msite_delta_{name}_total", _COUNTER_HELP[name]
    )


def _seedable(pipeline, ctx, result) -> bool:
    """The refusals a full run can afford: flags and the plan's steps."""
    if ctx.prerender_page or ctx.partial_prerender_targets:
        return False
    if ctx.media_thumbnails:
        return False
    if result.degraded is not None:
        return False
    plan = pipeline.plan
    if any(
        step.definition.name not in PIECEWISE_FILTERS
        for step in plan.filter_steps
    ):
        return False
    for step in plan.dom_steps:
        if step.definition.name in _TOPLEVEL_REWRITERS:
            return False
        if step.selector_group is None:
            return False
    return True


class DeltaEngine:
    """Per-deployment incremental re-adaptation state and logic."""

    def __init__(self, registry) -> None:
        self._registry = registry
        #: A key's stash, from the full run that made it until a newer
        #: run replaces it or it is dropped.
        self._memos: dict[tuple, _Stash] = {}
        self._lock = threading.Lock()
        self._seed_seconds = registry.histogram(
            "msite_delta_seed_seconds",
            "Time warm misses spent building a delta memo from a stash.",
        )

    def _counter(self, name: str):
        return delta_counter(self._registry, name)

    def _memo_key(self, pipeline, device_class: str) -> tuple:
        return (
            pipeline.spec.site,
            pipeline.spec.page_path,
            device_class,
            pipeline.plan.fingerprint,
        )

    def forget(self, site: Optional[str] = None) -> None:
        """Drop stashes (all, or one site's) after an invalidation."""
        with self._lock:
            if site is None:
                self._memos.clear()
            else:
                for key in [k for k in self._memos if k[0] == site]:
                    del self._memos[key]

    def _drop(self, key: tuple, stash: _Stash) -> None:
        """Forget this stash, unless a newer run replaced it."""
        with self._lock:
            if self._memos.get(key) is stash:
                del self._memos[key]

    # ------------------------------------------------------------------
    # seeding

    def seed(
        self,
        pipeline,
        ctx,
        result,
        bundle: fastpath.FastpathBundle,
        ttl_s: float,
        device_class: str,
        raw_source: str,
    ) -> bool:
        """Stash a just-completed full run for a later memo build.

        Only the refusals that cost a walk over the plan's steps are
        decided here; everything that needs a scan, a parse or a
        serialization waits in the stash for the first warm miss that
        wants the memo (:meth:`attempt`), because most full runs are
        followed by none.

        ``raw_source`` is the normalized origin source *before* the
        filter phase ran: the memo captures per-segment filter output
        from it, so deltas filter only what changed.

        Returns ``False`` (and counts ``seed_skips``) when the run is
        not delta-eligible; the run itself is unaffected.
        """
        key = self._memo_key(pipeline, device_class)
        if not _seedable(pipeline, ctx, result):
            self._counter("seed_skips").inc()
            with self._lock:
                self._memos.pop(key, None)
            return False
        stash = _Stash(
            ctx=ctx,
            entry_body=result.entry_body,
            bundle=bundle,
            raw_source=raw_source,
            deadline=pipeline.services.now + ttl_s,
        )
        with self._lock:
            self._memos[key] = stash
        self._counter("deferred").inc()
        return True

    def _memo_from(self, pipeline, stash) -> Optional[DeltaMemo]:
        """The stash's memo, built once; the caller holds ``stash.lock``.

        Concurrent warm misses on one key wait for the one build and
        share its verdict.
        """
        if stash.ctx is None:
            if stash.memo is None:
                self._counter("no_memo").inc()
            return stash.memo
        started = time.perf_counter()
        stash.memo = self._build_memo(pipeline, stash)
        self._seed_seconds.observe(time.perf_counter() - started)
        stash.ctx = stash.entry_body = stash.raw_source = None
        self._counter("seed_skips" if stash.memo is None else "seeds").inc()
        return stash.memo

    def _build_memo(self, pipeline, stash) -> Optional[DeltaMemo]:
        """The memo, or ``None`` when any of its proofs fails."""
        ctx = stash.ctx
        steps = pipeline.plan.dom_steps
        scan = scan_segments(ctx.source)
        if scan is None:
            return None
        # Cross-check the scanner against the real parser: the pristine
        # parse's body children must agree with the scanned segments in
        # count and identity.  This makes scanner correctness a
        # *verified* property of each memo, not an assumption.
        pristine = parse_html(ctx.source)
        body = pristine.body
        if body is None:
            return None
        pristine_children = list(body.children)
        pristine_keys = diff.child_keys(pristine_children)
        if pristine_keys != [seg.identity for seg in scan.segments]:
            return None
        # A step whose rightmost compound could select the scaffolding
        # (or anything in the head) has effects the segment model cannot
        # scope; skip the memo for such "global" plans.
        head = pristine.head
        scaffold = [pristine.document_element, body]
        if any(
            compound_may_match(compound, element)
            for step in steps
            for compound in _rightmost_compounds(step)
            for element in scaffold
            if element is not None
        ) or (head is not None and steps_touching(steps, [head])):
            return None
        # Per-segment step footprints over the pristine subtrees.
        seg_steps: dict[tuple, set[int]] = {}
        for segment, child in zip(scan.segments, pristine_children):
            touching = steps_touching(steps, [child])
            if touching:
                seg_steps[segment.identity] = touching
        # Residual mapping: every top-level survivor of the run must be
        # the scanned segment its key names (steps may only have removed
        # or detached top-level children).
        residual_body = ctx.document.body
        if residual_body is None:
            return None
        residual_children = list(residual_body.children)
        residual_keys = diff.child_keys(residual_children)
        if not _keys_name_their_segments(pristine_keys, residual_keys):
            return None
        # Assemble the entry with the builder the full run used and
        # verify byte equality against the run that just happened — if
        # re-serializing its residual cannot reproduce *this* run, it
        # cannot be trusted to reproduce a patched one.
        menu = menu_html(ctx)
        ajax_injection = ajax_injection_html(ctx)
        body_html = serialize(ctx.document)
        if (
            assemble_entry(body_html, menu, ajax_injection).encode("utf-8")
            != stash.entry_body
        ):
            return None
        # The part split: the document must serialize to exactly one
        # shell around its top-level nodes' serializations, joined.
        parts = {
            key: serialize(node)
            for key, node in zip(residual_keys, residual_children)
        }
        joined = "".join(parts.values())
        if not joined or body_html.count(joined) != 1:
            return None
        shell_prefix, shell_suffix = body_html.split(joined)
        # The stashing run's session directory is not the attempting
        # pipeline's: the bundle must carry its own entry file.
        bundle = stash.bundle
        if not any(item.relpath == bundle.entry_rel for item in bundle.files):
            return None
        # Piecewise filtering, admitted only when this page's raw
        # prelude, segments and tail, filtered one by one, concatenate
        # to exactly the globally filtered source *and* splice to
        # exactly its direct scan — a per-page proof that segment
        # filtering commutes with concatenation here.
        raw_scan = scan_segments(stash.raw_source)
        if raw_scan is None:
            return None
        try:
            prelude = self._filter_piece(pipeline, raw_scan.prelude)
            tail = self._filter_piece(pipeline, raw_scan.tail)
            pieces, piece_facts = self._filter_walk(
                pipeline, raw_scan.segments
            )
        except Exception:
            return None
        if (prelude, tail) != (scan.prelude, scan.tail):
            return None
        if prelude + "".join(pieces) + tail != ctx.source:
            return None
        spliced = [fact for facts in piece_facts for fact in facts]
        if spliced != [seg.facts for seg in scan.segments]:
            return None
        return DeltaMemo(
            segments=scan.segments,
            raw_scan=raw_scan,
            pieces=pieces,
            piece_facts=piece_facts,
            parts=parts,
            shell_prefix=shell_prefix,
            shell_suffix=shell_suffix,
            seg_steps=seg_steps,
            menu=menu,
            ajax_injection=ajax_injection,
        )

    def _filter_piece(self, pipeline, piece: str) -> str:
        """The plan's filter phase over one source slice."""
        ctx = PipelineContext(pipeline.spec, piece, pipeline.proxy_base)
        apply_steps(pipeline.plan.filter_steps, ctx)
        return ctx.source

    def _filter_walk(self, pipeline, segments, memo=None):
        """Each raw segment's filter output and that output's facts.

        A segment the memo holds byte for byte under its identity keeps
        its piece; any other is filtered as a slice, and the output is
        scanned only when the filter changed it (where the filter is an
        identity, the raw scan's facts are the filtered facts).  Raises
        when a filter crashes or a piece will not scan.
        """
        held = {} if memo is None else {
            seg.identity: (seg.raw, piece, facts)
            for seg, piece, facts in zip(
                memo.raw_scan.segments, memo.pieces, memo.piece_facts
            )
        }
        pieces: list[str] = []
        piece_facts: list[list[_Facts]] = []
        for seg in segments:
            raw, piece, facts = held.get(seg.identity, (None, "", []))
            if raw != seg.raw:
                piece = self._filter_piece(pipeline, seg.raw)
                facts = (
                    [seg.facts] if piece == seg.raw
                    else _scan_region(piece, 0, len(piece))
                )
            pieces.append(piece)
            piece_facts.append(facts)
        return pieces, piece_facts

    # ------------------------------------------------------------------
    # the delta attempt

    def attempt(self, pipeline, miss: fastpath.Miss):
        """Serve this warm miss by patching, or return ``None``.

        ``None`` sends the caller down the full pipeline (which will
        stash a new seed for the next change).
        """
        key = self._memo_key(pipeline, miss.device_class)
        with self._lock:
            stash = self._memos.get(key)
        if stash is None:
            self._counter("no_memo").inc()
            return None
        if pipeline.services.now >= stash.deadline:
            self._counter("expired").inc()
            self._drop(key, stash)
            return None
        with stash.lock:
            memo = self._memo_from(pipeline, stash)
            outcome = (
                None if memo is None
                else self._attempt_locked(pipeline, stash, memo, miss)
            )
        if stash.memo is None:
            # A refused build, or an apply that left the memo unusable.
            self._drop(key, stash)
        return outcome

    def _attempt_locked(self, pipeline, stash, memo, miss):
        """Rescan the raw source, filter only what changed, and take a
        rung: *identical* when filtering erased the change, *replace*
        when every changed segment can be swapped in, else fallback."""
        try:
            raw_scan = rescan_segments(miss.source, memo.raw_scan)
            if raw_scan is None:
                raise _Fallback("scan")
            if (raw_scan.prelude, raw_scan.tail) != (
                memo.raw_scan.prelude, memo.raw_scan.tail
            ):
                raise _Fallback("structure")
            try:
                pieces, piece_facts = self._filter_walk(
                    pipeline, raw_scan.segments, memo
                )
            except Exception:
                raise _Fallback("scan")
            spliced = [fact for facts in piece_facts for fact in facts]
            # Adjacent text runs would have merged in a direct scan of
            # the filtered page (e.g. a filtered-away segment between
            # them); the splice model cannot represent that.
            if _adjacent_text(spliced):
                raise _Fallback("scan")
            identical = pieces == memo.pieces
            if not identical:
                segments = _assign_identities(spliced)
                patches = self._classify(memo, segments, pipeline)
        except _Fallback as bail:
            return self._fallback(bail.reason)
        if identical:
            # The origin change was entirely filtered away (a script
            # edit under strip_scripts, say): the entry stands as is.
            self._counter("identical").inc()
            entry_body = stash.bundle.entry_body
        else:
            try:
                self._apply(memo, patches, segments)
                entry_body = assemble_entry(
                    memo.shell_prefix
                    + "".join(memo.parts.values())
                    + memo.shell_suffix,
                    memo.menu,
                    memo.ajax_injection,
                ).encode("utf-8")
            except Exception:
                # The parts may be half-patched; the memo is unusable.
                stash.memo = None
                self._counter("fallbacks").inc()
                return None
            memo.segments = segments
            self._counter("applied").inc()
            self._counter("patched_segments").inc(len(patches))
        memo.raw_scan, memo.pieces, memo.piece_facts = (
            raw_scan, pieces, piece_facts
        )
        # The re-stored bundle still embeds the run's frozen artifacts,
        # so it may only live out their *remaining* freshness.
        services = pipeline.services
        stash.bundle = fastpath.rebundle(stash.bundle, entry_body, miss.etag)
        miss.store_bundle(
            services.cache, stash.bundle,
            max(stash.deadline - services.now, 0.0),
        )
        return fastpath.replay_bundle(
            pipeline, stash.bundle, miss.origin_bytes, miss.etag
        )

    def _fallback(self, reason: str):
        self._counter("fallbacks").inc()
        counter = self._registry.counter(
            f"msite_delta_fallback_{reason}_total",
            f"Delta fallbacks to full replay: {reason}.",
        )
        counter.inc()
        return None

    # -- classification (no mutation) ----------------------------------

    def _classify(self, memo, segments, pipeline) -> list["_Patch"]:
        old_keys = [seg.identity for seg in memo.segments]
        new_keys = [seg.identity for seg in segments]
        old_raw = {seg.identity: seg.raw for seg in memo.segments}
        new_by_key = {seg.identity: seg for seg in segments}
        if len(new_by_key) != len(segments):
            # Two segments share a key (an id, say); parts are keyed.
            raise _Fallback("structure")
        matcher = SequenceMatcher(a=old_keys, b=new_keys, autojunk=False)
        changed: list[tuple[str, tuple]] = []
        for op, i1, i2, j1, j2 in matcher.get_opcodes():
            if op == "equal":
                changed += [
                    ("mutate", identity)
                    for identity in old_keys[i1:i2]
                    if old_raw[identity] != new_by_key[identity].raw
                ]
            else:
                # Identity lists pair only on equality; a replace block
                # is removals plus insertions.
                changed += [("remove", key) for key in old_keys[i1:i2]]
                changed += [("insert", key) for key in new_keys[j1:j2]]
        total = max(len(old_keys), len(new_keys), 1)
        if len(changed) / total > UPHEAVAL_FRACTION:
            raise _Fallback("upheaval")
        plan_steps = pipeline.plan.dom_steps
        return [
            self._classify_one(
                action, identity, memo, new_by_key, plan_steps, pipeline
            )
            for action, identity in changed
        ]

    def _classify_one(
        self, action, identity, memo, new_by_key, plan_steps, pipeline
    ) -> "_Patch":
        """One changed segment's patch: parse it, run its steps on it.

        The steps implicated are those whose footprint touched the old
        segment or touches the new one; each must be a localizable
        transform whose footprint is this segment alone.  A removed
        segment may have none.
        """
        implicated: set[int] = set(memo.seg_steps.get(identity, ()))
        if action == "remove":
            if implicated:
                raise _Fallback("steps")
            return _Patch(identity)
        nodes = parse_fragment(new_by_key[identity].raw)
        if len(nodes) != 1:
            # One segment must parse to exactly one node, or its part
            # would lose track of it.
            raise _Fallback("fragment")
        new_touching = steps_touching(plan_steps, nodes)
        implicated |= new_touching
        for index in implicated:
            step = plan_steps[index]
            if step.definition.name not in LOCALIZABLE_STEPS:
                raise _Fallback("steps")
            if not _selector_is_localizable(step):
                raise _Fallback("steps")
            if any(
                index in touching
                for seg_id, touching in memo.seg_steps.items()
                if seg_id != identity
            ):
                raise _Fallback("steps")
        return _Patch(
            identity,
            node=self._localize(
                pipeline, nodes[0], sorted(implicated), plan_steps
            ),
            new_touching=frozenset(new_touching),
        )

    def _localize(
        self, pipeline, node: Node, step_indices, plan_steps
    ) -> Optional[Node]:
        """Re-run the implicated steps over the fragment in isolation.

        With no step implicated there is nothing to run: the pristine
        parse is the segment's adapted form.
        """
        if not step_indices:
            return node
        body = Element("body", children=[node])
        scratch = Document()
        scratch.append(Element("html", children=[Element("head"), body]))
        ctx = PipelineContext(
            pipeline.spec, "", pipeline.proxy_base
        )
        ctx.document = scratch
        try:
            apply_steps([plan_steps[index] for index in step_indices], ctx)
        except Exception as exc:
            raise _Fallback("localize") from exc
        survivors = list(body.children)
        if len(survivors) > 1:  # pragma: no cover - no such step today
            raise _Fallback("localize")
        return survivors[0] if survivors else None

    # -- application (mutates the memo) --------------------------------

    def _apply(self, memo, patches, segments) -> None:
        """Serialize each patch's node in place of the segment's old
        part, bring the footprints along, and lay the parts out in the
        new scan's order."""
        parts = memo.parts
        for patch in patches:
            parts.pop(patch.identity, None)
            memo.seg_steps.pop(patch.identity, None)
            # A localized step may legitimately empty the segment (e.g.
            # a remove_object matching the root): the key stays absent.
            if patch.node is not None:
                parts[patch.identity] = serialize(patch.node)
            if patch.new_touching:
                memo.seg_steps[patch.identity] = set(patch.new_touching)
        memo.parts = {
            seg.identity: parts[seg.identity]
            for seg in segments
            if seg.identity in parts
        }
        if len(memo.parts) != len(parts):
            raise RuntimeError("a part outlived its segment")


class _Fallback(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class _Patch:
    identity: tuple
    #: The segment's adapted node (none for a remove, or when a
    #: localized step removed the whole segment).
    node: Optional[Node] = None
    #: Steps whose footprint intersects the *pristine* new fragment —
    #: the segment's footprint entry for subsequent deltas.
    new_touching: frozenset = frozenset()


def _adjacent_text(facts: list[_Facts]) -> bool:
    """Two text runs side by side, which a direct scan reads as one."""
    return any(a[0] == b[0] == "text" for a, b in zip(facts, facts[1:]))


def _is_subsequence(needle: list, haystack: list) -> bool:
    it = iter(haystack)
    return all(item in it for item in needle)


def _keys_name_their_segments(pristine: list, residual: list) -> bool:
    """Whether each residual key surely names the segment it came from.

    The pristine keys must be unique (two siblings may share an id) and
    the residual an ordered subsequence of them in which no ordinal
    bucket (same shape, no id) lost only some of its members: the
    residual's ordinals are recounted, so a survivor behind a lost
    sibling would take that sibling's key.
    """
    if len(set(pristine)) != len(pristine):
        return False
    if not _is_subsequence(residual, pristine):
        return False
    kept = set(residual)
    return not any(
        isinstance(key[-1], int) and key[:-1] + (0,) in kept
        for key in set(pristine) - kept
    )
