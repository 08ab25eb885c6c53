"""Per-document query index: tag/id/class maps for fast selection.

``selectors.select`` scans every element in the tree for every selector
— fine for a one-shot script, wasteful on the adaptation hot path where
a spec applies a dozen selectors to the same document.  ``QueryIndex``
walks the tree once, buckets elements by tag name, id, and class, and
answers ``select`` by pruning candidates from the *rightmost* compound
of each selector alternative (the compound that must match the subject
element itself), then verifying the survivors with the real matcher.

The index is a snapshot: it does not observe later tree mutations.
Callers that mutate the document must drop the index and rebuild (the
pipeline invalidates its index after every applier that may mutate the
tree).  Matches
are verified both against the full selector semantics and against
attachment to the indexed root, so an element detached *and re-queried
through a stale index* can never be returned — staleness can only cause
a rebuild-sized cost, never a wrong result for detached nodes.
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.dom.document import Document
from repro.dom.element import Element
from repro.dom.selectors import (
    ComplexSelector,
    SelectorGroup,
    matches,
    parse_selector,
)

Root = Union[Document, Element]


class QueryIndex:
    """Tag/id/class buckets over one snapshot of a document tree."""

    __slots__ = ("root", "elements", "by_tag", "by_id", "by_class",
                 "_positions")

    def __init__(self, root: Root) -> None:
        self.root = root
        if isinstance(root, Document):
            elements: List[Element] = list(root.all_elements())
        else:
            elements = [root, *root.descendant_elements()]
        self.elements = elements
        self.by_tag: Dict[str, List[Element]] = {}
        self.by_id: Dict[str, List[Element]] = {}
        self.by_class: Dict[str, List[Element]] = {}
        self._positions: Dict[int, int] = {}
        for position, element in enumerate(elements):
            self._positions[id(element)] = position
            self.by_tag.setdefault(element.tag, []).append(element)
            element_id = element.attributes.get("id")
            if element_id is not None:
                self.by_id.setdefault(element_id, []).append(element)
            class_attr = element.attributes.get("class")
            if class_attr:
                for name in class_attr.split():
                    bucket = self.by_class.setdefault(name, [])
                    if not bucket or bucket[-1] is not element:
                        bucket.append(element)

    # -- candidate pruning ----------------------------------------------

    def _compound_candidates(self,
                             alternative: ComplexSelector) -> List[Element]:
        """Smallest bucket implied by the rightmost compound.

        The rightmost compound describes the subject element directly,
        so any feature it names (id, class, tag) is a sound filter.  We
        pick the most selective available bucket; a bare ``*``-style
        compound falls back to every element.
        """
        compound = alternative.compounds[-1]
        if compound.element_id is not None:
            return self.by_id.get(compound.element_id, [])
        if compound.class_names:
            best: List[Element] = []
            chosen = False
            for name in compound.class_names:
                bucket = self.by_class.get(name, [])
                if not chosen or len(bucket) < len(best):
                    best, chosen = bucket, True
            return best
        if compound.tag is not None:
            return self.by_tag.get(compound.tag, [])
        return self.elements

    def candidates_for(self, group: SelectorGroup) -> List[Element]:
        """Union of per-alternative candidate buckets, document order."""
        if len(group.alternatives) == 1:
            picked = self._compound_candidates(group.alternatives[0])
            return list(picked)
        seen: Dict[int, Element] = {}
        for alternative in group.alternatives:
            for element in self._compound_candidates(alternative):
                seen.setdefault(id(element), element)
        ordered = sorted(
            seen.values(),
            key=lambda element: self._positions.get(id(element), 1 << 30),
        )
        return ordered

    # -- selection ------------------------------------------------------

    def _attached(self, element: Element) -> bool:
        """Is ``element`` still under the indexed root?"""
        if element is self.root:
            return True
        node = element.parent
        while node is not None:
            if node is self.root:
                return True
            node = getattr(node, "parent", None)
        return False

    def select(self,
               selector: Union[str, SelectorGroup]) -> List[Element]:
        """Index-accelerated ``selectors.select`` over the snapshot.

        Candidates come from the buckets; every survivor is verified
        with the full matcher plus an attachment check, so the result
        equals ``selectors.select(root, selector)`` for any tree that
        has only *lost* nodes since the snapshot.
        """
        group = (parse_selector(selector)
                 if isinstance(selector, str) else selector)
        return [
            element
            for element in self.candidates_for(group)
            if self._attached(element) and matches(element, group)
        ]
