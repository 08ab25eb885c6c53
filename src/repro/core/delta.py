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
    asks.  The first such miss builds the *memo* from it: the
    post-filter source split into top-level **segments** (the
    ``<body>``'s direct children, each keyed by stable identity), the
    post-run residual document whose serialization produced the entry
    page, per-step selector footprints (which segments each compiled
    plan step may touch), and the stored bundle itself.

2.  On a warm miss for the same key, :meth:`DeltaEngine.attempt`
    re-runs only the filter phase over the new origin source, re-scans
    its segments, and aligns them against the memo by identity.  Each
    changed segment is handled by the cheapest sound rung:

    * **identical** — the filtered sources are byte-equal (the change
      was filtered away): the old bundle is re-stored under the new
      content fingerprint, nothing is recomputed;
    * **patch** — no plan step's footprint intersects the segment: the
      residual's subtree is patched in place with a stable-identity
      change-set from :mod:`repro.dom.diff`;
    * **localize** — every implicated step is a *localizable* transform
      confined to this one segment: the steps re-run on the parsed new
      fragment in a scratch document and the result splices into the
      residual;
    * **fallback** — anything else (structural upheaval, a non-local
      step, a scanner bail) falls through to the full pipeline replay.

    The patched residual re-serializes into the entry page, the entry
    artifact is swapped inside a copy of the cached bundle, and the
    result is stored under the new ``content-fp`` — so subsequent
    requests for the same render are plain fast-path hits.

The hard invariant — enforced by the differential suites — is that a
delta-patched response is **byte-identical** to a from-scratch full
adaptation of the new origin.  Every shortcut in this module is either
verified when the memo is built (the segment scanner is cross-checked
against the real parser; the entry reconstruction is cross-checked
against the run that was stashed) or guarded by a conservative bail
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
from repro.dom.node import Comment, Node, Text
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
#: content elsewhere in the page.
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
    for before, after in zip(facts, facts[1:]):
        if before[0] == "text" and after[0] == "text":
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
    """Identity keys mirroring :func:`repro.dom.diff.child_keys`."""
    segments: list[Segment] = []
    ordinals: dict[tuple, int] = {}

    def _next(bucket: tuple) -> int:
        ordinal = ordinals.get(bucket, 0)
        ordinals[bucket] = ordinal + 1
        return ordinal

    for kind, raw, tag, elem_id, assigned, classes in merged:
        if kind == "element":
            if elem_id is not None:
                identity = ("e", tag, "#", elem_id)
            elif assigned is not None:
                identity = ("e", tag, "@", assigned)
            else:
                shape = (tag, classes)
                identity = ("e", *shape, _next(("e", *shape)))
        elif kind == "text":
            identity = ("t", _next(("t",)))
        else:
            identity = ("c", _next(("c",)))
        segments.append(
            Segment(
                identity=identity,
                raw=raw,
                kind=kind,
                tag=tag,
                elem_id=elem_id,
                assigned=assigned,
                classes=classes,
            )
        )
    return segments


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


def step_touches(step, nodes: list[Node]) -> bool:
    """May this plan step select anything inside these subtrees?"""
    compounds = _rightmost_compounds(step)
    if not compounds:
        return False
    for node in nodes:
        if not isinstance(node, Element):
            continue
        for element in (node, *node.descendant_elements()):
            for compound in compounds:
                if compound_may_match(compound, element):
                    return True
    return False


@dataclass
class SubtreeSummary:
    """Aggregate facts about a forest, for batched footprint tests.

    Loses the per-element conjunction (an element that is ``div`` and
    an element that is ``#feed`` satisfy a ``div#feed`` probe even if
    they are different elements), which only *widens* footprints —
    still sound, one walk instead of one per step.
    """

    tags: set
    ids: set
    classes: set

    @classmethod
    def of(cls, nodes: list[Node]) -> "SubtreeSummary":
        tags: set = set()
        ids: set = set()
        classes: set = set()
        for node in nodes:
            if not isinstance(node, Element):
                continue
            for element in (node, *node.descendant_elements()):
                tags.add(element.tag)
                elem_id = element.id
                if elem_id is not None:
                    ids.add(elem_id)
                class_attr = element.attributes.get("class")
                if class_attr:
                    classes.update(class_attr.split())
        return cls(tags=tags, ids=ids, classes=classes)

    def may_contain_match(self, compound) -> bool:
        if compound.tag is not None and compound.tag not in self.tags:
            return False
        if (
            compound.element_id is not None
            and compound.element_id not in self.ids
        ):
            return False
        for class_name in compound.class_names:
            if class_name not in self.classes:
                return False
        # Attribute and pseudo tests are conservatively assumed to pass.
        return True


def steps_touching(plan_steps, nodes: list[Node]) -> set[int]:
    """Indices of steps whose footprint may intersect these subtrees."""
    summary = SubtreeSummary.of(nodes)
    return {
        index
        for index, step in enumerate(plan_steps)
        if any(
            summary.may_contain_match(compound)
            for compound in _rightmost_compounds(step)
        )
    }


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

    #: The full filtered source, kept only in *global-filter* mode
    #: (``raw_scan is None``) where it is the identical-rung baseline.
    filtered_source: Optional[str]
    scan: ScanResult
    #: Piecewise-filter mode: a scan of the *unfiltered* (normalized)
    #: origin source, plus each raw segment's filter output and that
    #: output's scanned facts.  A delta then rescans the cheap raw
    #: source and runs the filter phase only over segments whose raw
    #: bytes changed; the build verified that the pieces concatenate to
    #: exactly the globally filtered page.  ``None`` when the plan's
    #: filter phase is not piecewise-safe.
    raw_scan: Optional[ScanResult]
    pieces: Optional[list]
    piece_facts: Optional[list]
    #: The post-run document whose serialization is the entry body; it
    #: is patched in place on every applied delta.
    residual: Document
    #: identity → residual top-level node (absent keys were detached
    #: into subpages or removed by the original run).
    residual_by_key: dict[tuple, Node]
    #: identity → indices (into plan.dom_steps) of steps whose selector
    #: footprint intersects that segment.
    seg_steps: dict[tuple, set[int]]
    menu: str
    ajax_injection: str
    #: Per-segment serialized HTML keyed by identity, with the shell
    #: around the body children, so a delta re-serializes only patched
    #: segments.  ``None`` when the build-time concatenation check
    #: failed (the full-document serializer is the fallback).
    entry_parts: Optional[dict]
    shell_prefix: str
    shell_suffix: str
    bundle: fastpath.FastpathBundle
    entry_rel: str
    ttl_s: float
    #: Clock time past which the memo's frozen artifacts (subpage
    #: renders, images) are no longer fresh; delta attempts after this
    #: take the full pipeline, which re-validates every component.
    deadline: float = 0.0
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class _Stash:
    """One full run's inputs, kept until a warm miss needs the memo.

    Nothing may mutate ``ctx.document`` once the run that stashed it
    has returned: the memo's proofs are made against it later.
    """

    #: The run's :class:`PipelineContext`; ``None`` once ``memo`` holds
    #: the verdict of the one build (under ``lock``).
    ctx: Any
    entry_html: str
    bundle: fastpath.FastpathBundle
    ttl_s: float
    raw_source: Optional[str]
    #: Only the storing run knows when its artifacts stop being fresh.
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
    "patched_segments": "Segments patched in place across all deltas.",
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
    for step in pipeline.plan.dom_steps:
        if step.definition.name in _TOPLEVEL_REWRITERS:
            return False
        if step.selector_group is None:
            return False
    return True


class DeltaEngine:
    """Per-deployment incremental re-adaptation state and logic."""

    def __init__(self, registry) -> None:
        self._registry = registry
        #: A key holds the latest full run's stash until the first warm
        #: miss builds the memo from it, the memo from then on.
        self._memos: dict[tuple, DeltaMemo | _Stash] = {}
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
        """Drop memos and stashes (all, or one site's) after an
        invalidation."""
        with self._lock:
            if site is None:
                self._memos.clear()
            else:
                for key in [k for k in self._memos if k[0] == site]:
                    del self._memos[key]

    def _drop(self, key: tuple, held) -> None:
        """Forget what this key held, unless a newer run replaced it."""
        with self._lock:
            if self._memos.get(key) is held:
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
        raw_source: Optional[str] = None,
    ) -> bool:
        """Stash a just-completed full run for a later memo build.

        Only the refusals that cost a walk over the plan's steps are
        decided here; everything that needs a scan, a parse or a
        serialization waits in the stash for the first warm miss that
        wants the memo (:meth:`attempt`), because most full runs are
        followed by none.

        ``raw_source`` is the normalized origin source *before* the
        filter phase ran; when given (and the filter phase is
        piecewise-safe) the memo also captures per-segment filter
        output so deltas can filter only what changed.

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
            entry_html=result.entry_html,
            bundle=bundle,
            ttl_s=ttl_s,
            raw_source=raw_source,
            deadline=pipeline.services.now + ttl_s,
        )
        with self._lock:
            self._memos[key] = stash
        self._counter("deferred").inc()
        return True

    def _memo_from(self, pipeline, key, stash) -> Optional[DeltaMemo]:
        """The memo this stash builds, built once.

        Concurrent warm misses on one key wait on the stash's lock for
        the one build and share its verdict.
        """
        with stash.lock:
            if stash.ctx is None:
                if stash.memo is None:
                    self._counter("no_memo").inc()
                return stash.memo
            started = time.perf_counter()
            stash.memo = self._build_memo(pipeline, stash)
            self._seed_seconds.observe(time.perf_counter() - started)
            stash.ctx = None
            if stash.memo is None:
                self._counter("seed_skips").inc()
                self._drop(key, stash)
            else:
                self._counter("seeds").inc()
                with self._lock:
                    if self._memos.get(key) is stash:
                        self._memos[key] = stash.memo
            return stash.memo

    def _build_memo(self, pipeline, stash) -> Optional[DeltaMemo]:
        ctx = stash.ctx
        bundle = stash.bundle
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
        html_el = pristine.document_element
        head = pristine.head
        scaffold: list[Node] = [n for n in (html_el, head, body) if n is not None]
        for step in steps:
            for compound in _rightmost_compounds(step):
                for element in scaffold:
                    if compound_may_match(compound, element):
                        return None
                if head is not None and any(
                    compound_may_match(compound, el)
                    for el in head.descendant_elements()
                ):
                    return None
        # Per-segment step footprints over the pristine subtrees.
        seg_steps: dict[tuple, set[int]] = {}
        for segment, child in zip(scan.segments, pristine_children):
            touching = {
                index
                for index, step in enumerate(steps)
                if step_touches(step, [child])
            }
            if touching:
                seg_steps[segment.identity] = touching
        # Residual mapping: every top-level survivor of the run must be
        # one of the scanned segments (an ordered subsequence — steps
        # may only have removed or detached top-level children).
        residual_body = ctx.document.body
        if residual_body is None:
            return None
        residual_children = list(residual_body.children)
        residual_keys = diff.child_keys(residual_children)
        if not _is_subsequence(residual_keys, pristine_keys):
            return None
        residual_by_key = dict(zip(residual_keys, residual_children))
        # Assemble the entry with the builder the full run used and
        # verify byte equality against the run that just happened — if
        # re-serializing its residual cannot reproduce *this* run, it
        # cannot be trusted to reproduce a patched one.
        menu = menu_html(ctx)
        ajax_injection = ajax_injection_html(ctx)
        body_html = serialize(ctx.document)
        rebuilt = assemble_entry(body_html, menu, ajax_injection)
        if rebuilt != stash.entry_html:
            return None
        # Per-segment serialization: valid only if the document's
        # serialization is exactly shell + concatenated children.
        entry_parts: Optional[dict] = {
            key: serialize(node)
            for key, node in zip(residual_keys, residual_children)
        }
        joined = "".join(entry_parts[key] for key in residual_keys)
        shell_prefix = shell_suffix = ""
        split = body_html.find(joined) if joined else -1
        if joined and split != -1 and body_html.count(joined) == 1:
            shell_prefix = body_html[:split]
            shell_suffix = body_html[split + len(joined) :]
        else:
            entry_parts = None
        # The bundle's own relative path: the stashing run's session
        # directory is not the attempting pipeline's.
        entry_rel = bundle.entry_rel
        if not any(item.relpath == entry_rel for item in bundle.files):
            return None
        filtered_source: Optional[str] = ctx.source
        raw_scan = pieces = piece_facts = None
        piecewise = self._piecewise_setup(
            pipeline, stash.raw_source, ctx.source, scan
        )
        if piecewise is not None:
            raw_scan, pieces, piece_facts = piecewise
            filtered_source = None
        return DeltaMemo(
            filtered_source=filtered_source,
            scan=scan,
            raw_scan=raw_scan,
            pieces=pieces,
            piece_facts=piece_facts,
            residual=ctx.document,
            residual_by_key=residual_by_key,
            seg_steps=seg_steps,
            menu=menu,
            ajax_injection=ajax_injection,
            entry_parts=entry_parts,
            shell_prefix=shell_prefix,
            shell_suffix=shell_suffix,
            bundle=bundle,
            entry_rel=entry_rel,
            ttl_s=stash.ttl_s,
            deadline=stash.deadline,
        )

    def _filter_piece(self, pipeline, piece: str) -> str:
        """The plan's filter phase over one source slice."""
        ctx = PipelineContext(pipeline.spec, piece, pipeline.proxy_base)
        apply_steps(pipeline.plan.filter_steps, ctx)
        return ctx.source

    def _piecewise_setup(
        self, pipeline, raw_source, filtered_source, filtered_scan
    ):
        """Per-segment filter state, or ``None`` if unverifiable.

        The scheme is admitted only when (a) every filter step is in
        :data:`PIECEWISE_FILTERS`, and (b) filtering this page's raw
        prelude, segments, and tail one by one concatenates to exactly
        the globally filtered source *and* splices to exactly its
        direct scan — a per-page proof that segment filtering commutes
        with concatenation here.
        """
        if raw_source is None:
            return None
        if any(
            step.definition.name not in PIECEWISE_FILTERS
            for step in pipeline.plan.filter_steps
        ):
            return None
        raw_scan = scan_segments(raw_source)
        if raw_scan is None:
            return None
        try:
            prelude = self._filter_piece(pipeline, raw_scan.prelude)
            tail = self._filter_piece(pipeline, raw_scan.tail)
            pieces = [
                self._filter_piece(pipeline, seg.raw)
                for seg in raw_scan.segments
            ]
        except Exception:
            return None
        if prelude != filtered_scan.prelude or tail != filtered_scan.tail:
            return None
        if prelude + "".join(pieces) + tail != filtered_source:
            return None
        piece_facts: list = []
        spliced: list = []
        for seg, piece in zip(raw_scan.segments, pieces):
            if piece == seg.raw:
                # The filter was an identity on this segment, so the raw
                # scan's facts are the filtered facts.
                facts = [seg.facts]
            else:
                try:
                    facts = _scan_region(piece, 0, len(piece))
                except _ScanBail:
                    return None
            piece_facts.append(facts)
            spliced.extend(facts)
        if spliced != [seg.facts for seg in filtered_scan.segments]:
            return None
        return raw_scan, pieces, piece_facts

    # ------------------------------------------------------------------
    # the delta attempt

    def attempt(self, pipeline, miss: fastpath.Miss):
        """Serve this warm miss by patching, or return ``None``.

        ``None`` sends the caller down the full pipeline (which will
        stash a new seed for the next change).
        """
        key = self._memo_key(pipeline, miss.device_class)
        with self._lock:
            memo = self._memos.get(key)
        if memo is None:
            self._counter("no_memo").inc()
            return None
        if pipeline.services.now >= memo.deadline:
            self._counter("expired").inc()
            self._drop(key, memo)
            return None
        if isinstance(memo, _Stash):
            memo = self._memo_from(pipeline, key, memo)
            if memo is None:
                return None
        with memo.lock:
            outcome = self._attempt_locked(pipeline, memo, miss)
        if outcome is _DROP_MEMO:
            self._drop(key, memo)
            return None
        return outcome

    def _attempt_locked(self, pipeline, memo, miss):
        etag = miss.etag
        try:
            if memo.raw_scan is not None:
                scan, refresh = self._refilter_piecewise(
                    pipeline, memo, miss.source
                )
            else:
                scan, refresh = self._refilter_global(
                    pipeline, memo, miss.source
                )
        except _Fallback as bail:
            return self._fallback(bail.reason)
        if scan is None:
            # The origin change was entirely filtered away (a script
            # edit under strip_scripts, say): re-store the cached bundle
            # under the new content fingerprint, byte-for-byte.
            self._counter("identical").inc()
            new_bundle = fastpath.rebundle(
                memo.bundle, memo.bundle.entry_html, etag
            )
            self._store(pipeline, miss, new_bundle, memo)
            memo.bundle = new_bundle
            refresh()
            return fastpath.replay_bundle(
                pipeline, new_bundle, miss.origin_bytes, etag
            )
        plan_steps = pipeline.plan.dom_steps
        try:
            patches = self._classify(memo, scan, plan_steps, pipeline)
        except _Fallback as bail:
            return self._fallback(bail.reason)
        try:
            patched = self._apply(memo, scan, patches)
        except Exception:
            # The residual may be half-patched; the memo is unusable.
            self._counter("fallbacks").inc()
            return _DROP_MEMO
        entry_html = assemble_entry(
            self._render_body(memo), memo.menu, memo.ajax_injection
        )
        new_bundle = fastpath.rebundle(memo.bundle, entry_html, etag)
        self._store(pipeline, miss, new_bundle, memo)
        # Refresh the memo in place: the residual already evolved, the
        # new scan becomes the baseline, and footprints update only for
        # the segments that changed.
        memo.scan = scan
        memo.bundle = new_bundle
        refresh()
        self._reindex(memo, patches)
        self._counter("applied").inc()
        self._counter("patched_segments").inc(len(patches))
        return fastpath.replay_bundle(
            pipeline, new_bundle, miss.origin_bytes, etag
        )

    def _refilter_global(self, pipeline, memo, source):
        """Filter the whole page and rescan; ``(None, …)`` if identical.

        Returns ``(scan, refresh)`` where ``refresh`` moves the memo's
        filter baseline forward once the delta has been applied, or a
        ``None`` scan when filtering erased the change entirely.
        """
        ctx = PipelineContext(pipeline.spec, source, pipeline.proxy_base)
        apply_steps(pipeline.plan.filter_steps, ctx)
        filtered = ctx.source
        if filtered == memo.filtered_source:
            return None, lambda: None
        scan = rescan_segments(filtered, memo.scan)
        if scan is None:
            raise _Fallback("scan")
        if scan.prelude != memo.scan.prelude or scan.tail != memo.scan.tail:
            raise _Fallback("structure")

        def refresh() -> None:
            memo.filtered_source = filtered

        return scan, refresh

    def _refilter_piecewise(self, pipeline, memo, source):
        """Rescan the raw source and filter only what changed.

        The whole-page filter run is the delta path's largest fixed
        cost; this replaces it with a raw rescan (which already scales
        with the change) plus a filter pass over just the changed
        segments, splicing memoized filter output for everything else.
        The build proved piecewise filtering byte-equal to the global
        pass for this page and plan (:meth:`_piecewise_setup`).
        """
        raw_scan = rescan_segments(source, memo.raw_scan)
        if raw_scan is None:
            raise _Fallback("scan")
        if (
            raw_scan.prelude != memo.raw_scan.prelude
            or raw_scan.tail != memo.raw_scan.tail
        ):
            raise _Fallback("structure")
        old = {
            seg.identity: (seg.raw, memo.pieces[i], memo.piece_facts[i])
            for i, seg in enumerate(memo.raw_scan.segments)
        }
        pieces: list = []
        piece_facts: list = []
        spliced: list = []
        for seg in raw_scan.segments:
            hit = old.get(seg.identity)
            if hit is not None and hit[0] == seg.raw:
                piece, facts = hit[1], hit[2]
            else:
                try:
                    piece = self._filter_piece(pipeline, seg.raw)
                    if piece == seg.raw:
                        facts = [seg.facts]
                    else:
                        facts = _scan_region(piece, 0, len(piece))
                except Exception:
                    raise _Fallback("scan")
            pieces.append(piece)
            piece_facts.append(facts)
            spliced.extend(facts)
        # Adjacent text runs would have merged in a direct scan of the
        # filtered page (e.g. a filtered-away segment between them);
        # the splice model cannot represent that.
        for before, after in zip(spliced, spliced[1:]):
            if before[0] == "text" and after[0] == "text":
                raise _Fallback("scan")

        def refresh() -> None:
            memo.raw_scan = raw_scan
            memo.pieces = pieces
            memo.piece_facts = piece_facts

        if pieces == memo.pieces:
            return None, refresh
        scan = ScanResult(
            prelude=memo.scan.prelude,
            segments=_assign_identities(spliced),
            tail=memo.scan.tail,
        )
        return scan, refresh

    def _render_body(self, memo) -> str:
        """The residual's body HTML, re-serializing changed parts only."""
        if memo.entry_parts is None:
            return serialize(memo.residual)
        inverse = {
            id(node): key for key, node in memo.residual_by_key.items()
        }
        parts: list[str] = []
        for child in memo.residual.body.children:
            key = inverse.get(id(child))
            part = (
                memo.entry_parts.get(key) if key is not None else None
            )
            if part is None:  # pragma: no cover - defensive
                return serialize(memo.residual)
            parts.append(part)
        return memo.shell_prefix + "".join(parts) + memo.shell_suffix

    def _fallback(self, reason: str):
        self._counter("fallbacks").inc()
        counter = self._registry.counter(
            f"msite_delta_fallback_{reason}_total",
            f"Delta fallbacks to full replay: {reason}.",
        )
        counter.inc()
        return None

    def _store(self, pipeline, miss, bundle, memo):
        # The re-stored bundle still embeds the memo's frozen artifacts,
        # so it may only live out their *remaining* freshness.
        services = pipeline.services
        remaining = memo.deadline - services.now
        miss.store_bundle(services.cache, bundle, max(remaining, 0.0))

    # -- classification (no mutation) ----------------------------------

    def _classify(self, memo, scan, plan_steps, pipeline) -> list["_Patch"]:
        old_keys = [seg.identity for seg in memo.scan.segments]
        new_keys = [seg.identity for seg in scan.segments]
        old_by_key = {seg.identity: seg for seg in memo.scan.segments}
        new_by_key = {seg.identity: seg for seg in scan.segments}
        matcher = SequenceMatcher(a=old_keys, b=new_keys, autojunk=False)
        changed: list[tuple[str, tuple]] = []
        for op, i1, i2, j1, j2 in matcher.get_opcodes():
            if op == "equal":
                for offset in range(i2 - i1):
                    identity = old_keys[i1 + offset]
                    if (
                        old_by_key[identity].raw
                        != new_by_key[identity].raw
                    ):
                        changed.append(("mutate", identity))
            else:
                # Identity lists pair only on equality; a replace block
                # is removals plus insertions.
                for index in range(i1, i2):
                    changed.append(("remove", old_keys[index]))
                for index in range(j1, j2):
                    changed.append(("insert", new_keys[index]))
        total = max(len(old_keys), len(new_keys), 1)
        if len(changed) / total > UPHEAVAL_FRACTION:
            raise _Fallback("upheaval")
        patches: list[_Patch] = []
        for action, identity in changed:
            patches.append(
                self._classify_one(
                    action, identity, memo, old_by_key, new_by_key,
                    plan_steps, pipeline,
                )
            )
        # Inserts need an anchor: the first *following* new segment that
        # already has a residual node.
        for patch in patches:
            if patch.action == "insert":
                patch.anchor = self._anchor_for(
                    patch.identity, scan.segments, memo, patches
                )
        return patches

    def _classify_one(
        self, action, identity, memo, old_by_key, new_by_key,
        plan_steps, pipeline,
    ) -> "_Patch":
        implicated: set[int] = set(memo.seg_steps.get(identity, ()))
        new_nodes: list[Node] = []
        new_touching: set[int] = set()
        if action in ("mutate", "insert"):
            new_nodes = parse_fragment(new_by_key[identity].raw)
            if len(new_nodes) != 1:
                # One segment must parse to exactly one node, or the
                # residual map (and part cache) would lose track.
                raise _Fallback("fragment")
            new_touching = steps_touching(plan_steps, new_nodes)
            implicated |= new_touching
        if action == "remove":
            if implicated:
                raise _Fallback("steps")
            return _Patch(action, identity, steps=frozenset())
        if not implicated:
            return _Patch(
                action, identity, nodes=new_nodes,
                new_touching=frozenset(new_touching),
            )
        for index in implicated:
            step = plan_steps[index]
            if step.definition.name not in LOCALIZABLE_STEPS:
                raise _Fallback("steps")
            if not _selector_is_localizable(step):
                raise _Fallback("steps")
            footprint = {
                seg_id
                for seg_id, touching in memo.seg_steps.items()
                if index in touching
            }
            footprint.add(identity)
            if footprint != {identity}:
                raise _Fallback("steps")
        transformed = self._localize(
            pipeline, new_nodes, sorted(implicated), plan_steps
        )
        return _Patch(
            action, identity, nodes=transformed,
            steps=frozenset(implicated),
            new_touching=frozenset(new_touching),
        )

    def _localize(
        self, pipeline, nodes: list[Node], step_indices, plan_steps
    ) -> list[Node]:
        """Re-run the implicated steps over the fragment in isolation."""
        scratch = Document()
        html_el = Element("html")
        body = Element("body")
        html_el.append(Element("head"))
        html_el.append(body)
        scratch.append(html_el)
        for node in nodes:
            body.append(node)
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
        return survivors

    def _anchor_for(self, identity, new_segments, memo, patches):
        seen = False
        removed = {
            patch.identity for patch in patches if patch.action == "remove"
        }
        for segment in new_segments:
            if segment.identity == identity:
                seen = True
                continue
            if not seen:
                continue
            node = memo.residual_by_key.get(segment.identity)
            if node is not None and segment.identity not in removed:
                return node
        return None

    # -- application (mutates the residual) ----------------------------

    def _apply(self, memo, scan, patches) -> int:
        count = 0
        for patch in patches:
            count += 1
            if patch.action == "remove":
                node = memo.residual_by_key.pop(patch.identity, None)
                if node is not None:
                    node.detach()
            elif patch.action == "mutate" and not patch.steps:
                node = memo.residual_by_key.get(patch.identity)
                if (
                    node is not None
                    and len(patch.nodes) == 1
                    and _patchable_pair(node, patch.nodes[0])
                ):
                    # Stable-identity diff against the untouched
                    # residual subtree: small edits stay small.
                    diff.apply(
                        node, diff.changeset(node, patch.nodes[0])
                    )
                else:
                    self._swap(memo, patch)
            else:
                self._swap(memo, patch)
            if memo.entry_parts is not None:
                survivor = memo.residual_by_key.get(patch.identity)
                if survivor is None:
                    memo.entry_parts.pop(patch.identity, None)
                else:
                    memo.entry_parts[patch.identity] = serialize(survivor)
        return count

    def _swap(self, memo, patch) -> None:
        """Replace (or insert) a segment's residual nodes outright."""
        old_node = memo.residual_by_key.pop(patch.identity, None)
        nodes = patch.nodes
        if old_node is not None:
            anchor_parent = old_node.parent
            for node in nodes:
                old_node.insert_before(node)
            old_node.detach()
        else:
            body = memo.residual.body
            anchor = patch.anchor
            for node in nodes:
                if anchor is not None:
                    anchor.insert_before(node)
                else:
                    body.append(node)
        if len(nodes) == 1:
            memo.residual_by_key[patch.identity] = nodes[0]
        # A localized step may legitimately empty the segment (e.g. a
        # remove_object matching the root): the key simply stays absent.

    def _reindex(self, memo, patches) -> None:
        """Refresh footprints for changed keys (pristine-new subtrees)."""
        for patch in patches:
            memo.seg_steps.pop(patch.identity, None)
            if patch.action != "remove" and patch.new_touching:
                memo.seg_steps[patch.identity] = set(patch.new_touching)


_DROP_MEMO = object()


class _Fallback(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class _Patch:
    action: str  # 'mutate' | 'insert' | 'remove'
    identity: tuple
    nodes: list[Node] = field(default_factory=list)
    steps: frozenset = frozenset()
    #: Steps whose footprint intersects the *pristine* new fragment —
    #: the segment's footprint entry for subsequent deltas.
    new_touching: frozenset = frozenset()
    anchor: Optional[Node] = None


def _patchable_pair(old: Node, new: Node) -> bool:
    if isinstance(old, Element) and isinstance(new, Element):
        return old.tag == new.tag
    return type(old) is type(new) and isinstance(
        old, (Text, Comment, Element)
    )


def _is_subsequence(needle: list, haystack: list) -> bool:
    it = iter(haystack)
    return all(item in it for item in needle)
