"""Stable-identity DOM diffing: change-sets between two parsed trees.

The proxy's session deltas need one primitive: given the tree a client
already holds and the tree we just produced, compute a *change-set*
that is small when the trees are close and that can be applied to the
old tree to reproduce the new one exactly.  The delta fast path
(``repro.core.delta``) shares only the identity keys below: its
segments are keyed by :func:`shape_keys`, the policy
:func:`child_keys` applies to parsed siblings.

Children are aligned by **stable identity keys** rather than raw
position, so an inserted sibling does not cascade into "everything
after it changed":

* an element with an ``id`` attribute is keyed ``(tag, #id)`` — ids are
  how specs name objects, so they are the strongest identity we have;
* an element carrying the ``data-msite-key`` attribute (assigned by
  identify-time annotations) is keyed by that value;
* any other element falls back to ``(tag, class, ordinal)`` — its
  position among same-shaped siblings;
* text, comment, and doctype nodes are keyed by their ordinal among
  nodes of the same kind, so an edited text run pairs with its old self
  and diffs to a single data patch.

Aligned pairs recurse; unmatched children become remove/insert
operations whose payloads are *structural* node encodings (not
serialized HTML), so applying a change-set never round-trips through
the parser and is exact by construction.  The whole change-set
round-trips through JSON — that JSON is the patch manifest the proxy
ships to returning sessions.

The invariant the property suite enforces:

    apply(old, changeset(old, new));  serialize(old) == serialize(new)

Per-parent operation lists apply in three phases — data/attr patches on
matched pairs (old indices), then removals in descending old order,
then insertions in ascending new order.  ``difflib.SequenceMatcher``
opcodes are monotonic in both sequences, so the surviving matched
children already sit in new-relative order and index arithmetic stays
valid throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from difflib import SequenceMatcher
from typing import Optional, Union

from repro.dom.document import Document
from repro.dom.element import Element
from repro.dom.node import Comment, Doctype, Node, Text

Root = Union[Document, Element]

#: Elements whose removal or insertion means the page was rebuilt, not
#: edited — callers should fall back to a full response.
_STRUCTURAL_TAGS = frozenset({"html", "head", "body"})

#: Attribute an annotator may assign to give an element an explicit
#: identity across renders (the "identify-assigned key" tier).
IDENTITY_ATTRIBUTE = "data-msite-key"


# ---------------------------------------------------------------------------
# identity keys


def shape_keys(shapes) -> list[tuple]:
    """Stable identity keys for one sibling list, in document order.

    Each sibling is given by its shape ``(kind, tag, id, assigned,
    class)``: ``kind`` is ``"element"``, ``"text"``, ``"comment"`` or
    ``"doctype"`` (whose name rides in ``tag``).  Parsed trees key
    through :func:`child_keys`; the delta engine's segment scanner keys
    the same shapes read straight off the source.
    """
    keys: list[tuple] = []
    ordinals: dict[tuple, int] = {}

    def _next(bucket: tuple) -> int:
        ordinal = ordinals.get(bucket, 0)
        ordinals[bucket] = ordinal + 1
        return ordinal

    for kind, tag, element_id, assigned, classes in shapes:
        if kind == "element":
            if element_id is not None:
                keys.append(("e", tag, "#", element_id))
            elif assigned is not None:
                keys.append(("e", tag, "@", assigned))
            else:
                keys.append(("e", tag, classes, _next(("e", tag, classes))))
        elif kind == "text":
            keys.append(("t", _next(("t",))))
        elif kind == "comment":
            keys.append(("c", _next(("c",))))
        else:
            keys.append(("d", tag))
    return keys


def child_keys(children: list[Node]) -> list[tuple]:
    """Stable identity keys for one sibling list of parsed nodes."""
    return shape_keys([_shape(child) for child in children])


def _shape(node: Node) -> tuple:
    if isinstance(node, Element):
        attributes = node.attributes
        return (
            "element",
            node.tag,
            attributes.get("id"),
            attributes.get(IDENTITY_ATTRIBUTE),
            attributes.get("class", ""),
        )
    if isinstance(node, Text):
        return ("text", "", None, None, "")
    if isinstance(node, Comment):
        return ("comment", "", None, None, "")
    if isinstance(node, Doctype):
        return ("doctype", node.name, None, None, "")
    raise TypeError(f"cannot key {node!r}")


# ---------------------------------------------------------------------------
# structural node payloads


def encode_node(node: Node) -> dict:
    """A JSON-safe structural encoding of one subtree."""
    if isinstance(node, Element):
        return {
            "k": "e",
            "tag": node.tag,
            "attrs": [[name, value] for name, value in node.attributes.items()],
            "ch": [encode_node(child) for child in node.children],
        }
    if isinstance(node, Text):
        return {"k": "t", "data": node.data}
    if isinstance(node, Comment):
        return {"k": "c", "data": node.data}
    if isinstance(node, Doctype):
        return {"k": "d", "name": node.name}
    raise TypeError(f"cannot encode {node!r}")


def decode_node(payload: dict) -> Node:
    """Rebuild a detached subtree from :func:`encode_node` output."""
    kind = payload.get("k")
    if kind == "e":
        element = Element(
            payload["tag"], dict(payload.get("attrs") or [])
        )
        # Attribute order matters to the serializer; dict() over the
        # pair list preserves it (insertion order).
        for child in payload.get("ch") or []:
            element.append(decode_node(child))
        return element
    if kind == "t":
        return Text(payload["data"])
    if kind == "c":
        return Comment(payload["data"])
    if kind == "d":
        return Doctype(payload["name"])
    raise ValueError(f"unknown node payload kind {kind!r}")


def subtree_size(node: Node) -> int:
    """Node count of a subtree (the change-magnitude unit)."""
    if isinstance(node, Element):
        return 1 + sum(subtree_size(child) for child in node.children)
    return 1


# ---------------------------------------------------------------------------
# change-sets


@dataclass
class ChangeStats:
    """Magnitude accounting for one change-set."""

    old_nodes: int = 0
    new_nodes: int = 0
    removed_nodes: int = 0
    inserted_nodes: int = 0
    patched_nodes: int = 0
    #: An ``html``/``head``/``body`` element was removed or inserted —
    #: the page was rebuilt, not edited.
    structural: bool = False

    @property
    def touched_nodes(self) -> int:
        return self.removed_nodes + self.inserted_nodes + self.patched_nodes

    @property
    def changed_fraction(self) -> float:
        basis = max(self.old_nodes, self.new_nodes, 1)
        return self.touched_nodes / basis

    def to_dict(self) -> dict:
        return {
            "old_nodes": self.old_nodes,
            "new_nodes": self.new_nodes,
            "removed_nodes": self.removed_nodes,
            "inserted_nodes": self.inserted_nodes,
            "patched_nodes": self.patched_nodes,
            "structural": self.structural,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChangeStats":
        return cls(
            old_nodes=int(payload.get("old_nodes", 0)),
            new_nodes=int(payload.get("new_nodes", 0)),
            removed_nodes=int(payload.get("removed_nodes", 0)),
            inserted_nodes=int(payload.get("inserted_nodes", 0)),
            patched_nodes=int(payload.get("patched_nodes", 0)),
            structural=bool(payload.get("structural", False)),
        )


MANIFEST_VERSION = 1


@dataclass
class ChangeSet:
    """A recursive patch taking the old tree to the new tree."""

    ops: dict = field(default_factory=dict)
    stats: ChangeStats = field(default_factory=ChangeStats)

    @property
    def is_empty(self) -> bool:
        return not self.ops

    def upheaval(self, fraction: float = 0.5) -> bool:
        """Did the page change too much to be worth patching?"""
        return (
            self.stats.structural
            or self.stats.changed_fraction > fraction
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": MANIFEST_VERSION,
                "ops": self.ops,
                "stats": self.stats.to_dict(),
            }
        )

    @classmethod
    def from_json(cls, raw: str) -> Optional["ChangeSet"]:
        try:
            payload = json.loads(raw)
        except (ValueError, TypeError):
            return None
        if payload.get("version") != MANIFEST_VERSION:
            return None
        return cls(
            ops=payload.get("ops") or {},
            stats=ChangeStats.from_dict(payload.get("stats") or {}),
        )


def changeset(old: Root, new: Root) -> ChangeSet:
    """Diff two trees of the same kind into an applicable change-set."""
    if type(old) is not type(new):
        raise TypeError(
            f"cannot diff {type(old).__name__} against {type(new).__name__}"
        )
    stats = ChangeStats(
        old_nodes=_tree_size(old), new_nodes=_tree_size(new)
    )
    ops = _diff_node(old, new, stats)
    return ChangeSet(ops=ops, stats=stats)


def _tree_size(root: Root) -> int:
    if isinstance(root, Document):
        return sum(subtree_size(child) for child in root.children)
    return subtree_size(root)


def _diff_node(old: Node, new: Node, stats: ChangeStats) -> dict:
    """The patch dict for one matched pair; ``{}`` when identical."""
    patch: dict = {}
    if isinstance(old, Element) and isinstance(new, Element):
        if old.tag != new.tag:
            patch["tag"] = new.tag
        old_attrs = list(old.attributes.items())
        new_attrs = list(new.attributes.items())
        if old_attrs != new_attrs:
            patch["attrs"] = [[name, value] for name, value in new_attrs]
        child_ops = _diff_children(old.children, new.children, stats)
        if child_ops:
            patch["ch"] = child_ops
    elif isinstance(old, Document) and isinstance(new, Document):
        child_ops = _diff_children(old.children, new.children, stats)
        if child_ops:
            patch["ch"] = child_ops
    elif isinstance(old, Text) and isinstance(new, Text):
        if old.data != new.data:
            patch["data"] = new.data
    elif isinstance(old, Comment) and isinstance(new, Comment):
        if old.data != new.data:
            patch["data"] = new.data
    elif isinstance(old, Doctype) and isinstance(new, Doctype):
        if old.name != new.name:
            patch["name"] = new.name
    else:  # pragma: no cover - pairs are kind-checked before recursion
        raise TypeError(f"cannot pair {old!r} with {new!r}")
    if patch and not (len(patch) == 1 and "ch" in patch):
        stats.patched_nodes += 1
    return patch


def _pairable(old: Node, new: Node) -> bool:
    """May a replace-block pair be patched rather than swap out?"""
    if isinstance(old, Element) and isinstance(new, Element):
        # Same tag: patch attributes and recurse.  Different tags are
        # different objects; swapping keeps intent (and stats) honest.
        return old.tag == new.tag
    return type(old) is type(new)


def _record_removed(node: Node, stats: ChangeStats) -> None:
    stats.removed_nodes += subtree_size(node)
    if isinstance(node, Element) and node.tag in _STRUCTURAL_TAGS:
        stats.structural = True


def _record_inserted(node: Node, stats: ChangeStats) -> None:
    stats.inserted_nodes += subtree_size(node)
    if isinstance(node, Element) and node.tag in _STRUCTURAL_TAGS:
        stats.structural = True


def _diff_children(
    old_children: list[Node],
    new_children: list[Node],
    stats: ChangeStats,
) -> list[dict]:
    old_keys = child_keys(old_children)
    new_keys = child_keys(new_children)
    matcher = SequenceMatcher(
        a=old_keys, b=new_keys, autojunk=False
    )
    ops: list[dict] = []

    def _remove(index: int) -> None:
        _record_removed(old_children[index], stats)
        ops.append({"op": "remove", "at": index})

    def _insert(index: int) -> None:
        _record_inserted(new_children[index], stats)
        ops.append(
            {
                "op": "insert",
                "at": index,
                "node": encode_node(new_children[index]),
            }
        )

    def _pair(old_index: int, new_index: int) -> None:
        old_child = old_children[old_index]
        new_child = new_children[new_index]
        if not _pairable(old_child, new_child):
            _remove(old_index)
            _insert(new_index)
            return
        patch = _diff_node(old_child, new_child, stats)
        if patch:
            ops.append({"op": "patch", "at": old_index, "p": patch})

    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            for offset in range(i2 - i1):
                _pair(i1 + offset, j1 + offset)
        elif tag == "delete":
            for index in range(i1, i2):
                _remove(index)
        elif tag == "insert":
            for index in range(j1, j2):
                _insert(index)
        else:  # replace
            paired = min(i2 - i1, j2 - j1)
            for offset in range(paired):
                _pair(i1 + offset, j1 + offset)
            for index in range(i1 + paired, i2):
                _remove(index)
            for index in range(j1 + paired, j2):
                _insert(index)
    return ops


# ---------------------------------------------------------------------------
# application


def apply(old: Root, cs: ChangeSet) -> Root:
    """Mutate ``old`` in place so it serializes identically to ``new``."""
    _apply_patch(old, cs.ops)
    return old


def _apply_patch(node: Node, patch: dict) -> None:
    if not patch:
        return
    if "tag" in patch:
        node.tag = patch["tag"]  # type: ignore[attr-defined]
    if "attrs" in patch:
        attrs = node.attributes  # type: ignore[attr-defined]
        attrs.clear()
        attrs.update({name: value for name, value in patch["attrs"]})
    if "data" in patch:
        node.data = patch["data"]  # type: ignore[attr-defined]
    if "name" in patch:
        node.name = patch["name"]  # type: ignore[attr-defined]
    if "ch" in patch:
        _apply_child_ops(node, patch["ch"])


def _append_child(parent: Node, child: Node, index: int) -> None:
    if isinstance(parent, (Element, Document)):
        parent.insert_child(index, child)
    else:  # pragma: no cover - defensive
        raise TypeError(f"cannot insert into {parent!r}")


def _apply_child_ops(parent: Node, ops: list[dict]) -> None:
    children = parent.children
    # Phase 1: data/attr patches address the original old indices.
    for op in ops:
        if op["op"] == "patch":
            _apply_patch(children[op["at"]], op["p"])
    # Phase 2: removals, deepest index first so shallower stay valid.
    removals = sorted(
        (op["at"] for op in ops if op["op"] == "remove"), reverse=True
    )
    for index in removals:
        children[index].detach()
    # Phase 3: insertions at ascending new-tree indices.  The matched
    # survivors already sit in new-relative order (SequenceMatcher
    # opcodes are monotonic), so each insert lands exactly where the
    # new tree has it.
    inserts = sorted(
        (op for op in ops if op["op"] == "insert"),
        key=lambda op: op["at"],
    )
    for op in inserts:
        _append_child(parent, decode_node(op["node"]), op["at"])
