"""Base node types for the DOM tree.

The tree is intentionally simple: every node knows its parent and elements
keep an ordered child list.  All mutation goes through methods that keep
parent pointers consistent, because the adaptation pipeline moves objects
between pages constantly (page splitting, dependency copying, relocation).

The child list is the tree's only strong link; ``parent`` is a weak one
(a :class:`weakref.ref` behind a property, written only by the
mutators here and in ``element.py`` / ``document.py``).  So a tree
holds no reference cycle: dropping its root frees the whole tree by
refcount at that moment, and leaves the cycle collector nothing.

The contract that follows: holding a node does not keep its ancestors
alive.  Once nothing else holds the root, a node that was kept reads
``parent is None`` and is the root of its own subtree.  To keep a
subtree's context (its document, its ancestors' attributes), keep its
root.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.dom.document import Document
    from repro.dom.element import Element


def _detached() -> None:
    """The parent link of a node without a parent: calling it gives None,
    as calling a dead :class:`weakref.ref` does."""
    return None


class Node:
    """Common behaviour for every node in the tree."""

    __slots__ = ("_parent", "__weakref__")

    def __init__(self) -> None:
        self._parent: Callable[[], Optional[Node]] = _detached

    @property
    def parent(self) -> Optional["Node"]:
        """The node whose child list holds this one (held weakly)."""
        return self._parent()

    @parent.setter
    def parent(self, node: Optional["Node"]) -> None:
        self._parent = _detached if node is None else weakref.ref(node)

    # -- identity ------------------------------------------------------

    @property
    def node_name(self) -> str:
        raise NotImplementedError

    # -- tree navigation -------------------------------------------------

    @property
    def children(self) -> list["Node"]:
        """Child list; leaf nodes expose an immutable empty list."""
        return []

    @property
    def owner_document(self) -> Optional["Document"]:
        """The document at the root of this node's tree, if any."""
        from repro.dom.document import Document

        node: Optional[Node] = self
        while node is not None:
            if isinstance(node, Document):
                return node
            node = node.parent
        return None

    def ancestors(self) -> Iterator["Node"]:
        """Parent, grandparent, ... up to and including the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "Node":
        """Topmost ancestor (self if detached)."""
        node: Node = self
        parent = node.parent
        while parent is not None:
            node, parent = parent, parent.parent
        return node

    @property
    def index_in_parent(self) -> int:
        """Position among siblings; raises if detached."""
        parent = self.parent
        if parent is None:
            raise ValueError("node has no parent")
        return parent.children.index(self)

    @property
    def previous_sibling(self) -> Optional["Node"]:
        parent = self.parent
        if parent is None:
            return None
        index = parent.children.index(self)
        if index == 0:
            return None
        return parent.children[index - 1]

    @property
    def next_sibling(self) -> Optional["Node"]:
        parent = self.parent
        if parent is None:
            return None
        siblings = parent.children
        index = siblings.index(self)
        if index + 1 >= len(siblings):
            return None
        return siblings[index + 1]

    # -- mutation ------------------------------------------------------

    def detach(self) -> "Node":
        """Remove this node from its parent (no-op when detached)."""
        parent = self.parent
        if parent is not None:
            parent.children.remove(self)
            self.parent = None
        return self

    def replace_with(self, replacement: "Node") -> "Node":
        """Swap this node for ``replacement`` in the parent's child list."""
        parent = self.parent
        if parent is None:
            raise ValueError("cannot replace a detached node")
        index = parent.children.index(self)
        replacement.detach()
        parent.children[index] = replacement
        replacement.parent = parent
        self.parent = None
        return replacement

    def insert_before(self, sibling: "Node") -> "Node":
        """Insert ``sibling`` immediately before this node."""
        parent = self.parent
        if parent is None:
            raise ValueError("cannot insert beside a detached node")
        sibling.detach()
        parent.children.insert(parent.children.index(self), sibling)
        sibling.parent = parent
        return sibling

    def insert_after(self, sibling: "Node") -> "Node":
        """Insert ``sibling`` immediately after this node."""
        parent = self.parent
        if parent is None:
            raise ValueError("cannot insert beside a detached node")
        sibling.detach()
        parent.children.insert(parent.children.index(self) + 1, sibling)
        sibling.parent = parent
        return sibling

    # -- content -------------------------------------------------------

    @property
    def text_content(self) -> str:
        """Concatenated text of all descendant text nodes."""
        return ""

    def clone(self) -> "Node":
        """Deep copy, detached from any parent."""
        raise NotImplementedError


class Text(Node):
    """A run of character data."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    @property
    def node_name(self) -> str:
        return "#text"

    @property
    def text_content(self) -> str:
        return self.data

    def clone(self) -> "Text":
        return Text(self.data)

    def __repr__(self) -> str:
        preview = self.data if len(self.data) <= 24 else self.data[:21] + "..."
        return f"Text({preview!r})"


class Comment(Node):
    """An HTML comment; preserved because templates hide markers in them."""

    __slots__ = ("data",)

    def __init__(self, data: str) -> None:
        super().__init__()
        self.data = data

    @property
    def node_name(self) -> str:
        return "#comment"

    def clone(self) -> "Comment":
        return Comment(self.data)

    def __repr__(self) -> str:
        return f"Comment({self.data!r})"


class Doctype(Node):
    """A document type declaration (the doctype-rewrite attribute targets it)."""

    __slots__ = ("name",)

    def __init__(self, name: str = "html") -> None:
        super().__init__()
        self.name = name

    @property
    def node_name(self) -> str:
        return "#doctype"

    def clone(self) -> "Doctype":
        return Doctype(self.name)

    def __repr__(self) -> str:
        return f"Doctype({self.name!r})"
