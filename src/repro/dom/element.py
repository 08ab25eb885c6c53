"""Element nodes: tags, attributes, and tree-shaping helpers."""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.dom.node import Node, Text

# Elements that never have children in serialized HTML.
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

# Elements whose content is raw text (no nested markup).
RAW_TEXT_ELEMENTS = frozenset({"script", "style", "textarea", "title"})


class Element(Node):
    """An HTML element with an ordered attribute map and child list."""

    __slots__ = ("tag", "attributes", "_children")

    def __init__(
        self,
        tag: str,
        attributes: Optional[dict[str, str]] = None,
        children: Optional[list[Node]] = None,
    ) -> None:
        super().__init__()
        self.tag = tag.lower()
        self.attributes: dict[str, str] = dict(attributes or {})
        self._children: list[Node] = []
        for child in children or []:
            self.append(child)

    # -- identity ------------------------------------------------------

    @property
    def node_name(self) -> str:
        return self.tag

    @property
    def children(self) -> list[Node]:
        return self._children

    @property
    def id(self) -> Optional[str]:
        return self.attributes.get("id")

    @property
    def classes(self) -> list[str]:
        return self.attributes.get("class", "").split()

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def add_class(self, name: str) -> None:
        names = self.classes
        if name not in names:
            names.append(name)
            self.attributes["class"] = " ".join(names)

    def remove_class(self, name: str) -> None:
        names = [cls for cls in self.classes if cls != name]
        if names:
            self.attributes["class"] = " ".join(names)
        else:
            self.attributes.pop("class", None)

    # -- attributes ------------------------------------------------------

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.attributes.get(name.lower(), default)

    def set(self, name: str, value: str) -> None:
        self.attributes[name.lower()] = value

    def remove_attribute(self, name: str) -> None:
        self.attributes.pop(name.lower(), None)

    def has_attribute(self, name: str) -> bool:
        return name.lower() in self.attributes

    # -- child mutation ---------------------------------------------------

    def append(self, child: Node) -> Node:
        child.detach()
        self._children.append(child)
        child.parent = self
        return child

    def prepend(self, child: Node) -> Node:
        child.detach()
        self._children.insert(0, child)
        child.parent = self
        return child

    def insert_child(self, index: int, child: Node) -> Node:
        child.detach()
        self._children.insert(index, child)
        child.parent = self
        return child

    def append_text(self, data: str) -> Text:
        """Append character data, merging with a trailing text node."""
        if self._children and isinstance(self._children[-1], Text):
            last = self._children[-1]
            last.data += data
            return last
        text = Text(data)
        text.parent = self
        self._children.append(text)
        return text

    def append_new(self, tag: str, attributes: dict[str, str]) -> "Element":
        """Append a fresh child element and return it.

        The tree builder's constructor: ``tag`` is already lower-case
        and ``attributes`` becomes the child's own map (no copy), which
        is what a lexer hands over — and a node nobody else has seen
        needs no :meth:`detach`.
        """
        child = Element.__new__(Element)
        child.parent = self
        child.tag = tag
        child.attributes = attributes
        child._children = []
        self._children.append(child)
        return child

    def clear_children(self) -> None:
        for child in self._children:
            child.parent = None
        self._children.clear()

    # -- traversal -------------------------------------------------------

    def child_elements(self) -> list["Element"]:
        return [child for child in self._children if isinstance(child, Element)]

    def descendants(self) -> Iterator[Node]:
        """All descendant nodes, document order, self excluded."""
        stack = list(reversed(self._children))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Element):
                stack.extend(reversed(node._children))

    def descendant_elements(self) -> Iterator["Element"]:
        for node in self.descendants():
            if isinstance(node, Element):
                yield node

    def find(self, predicate: Callable[["Element"], bool]) -> Optional["Element"]:
        """First descendant element matching ``predicate``, document order."""
        for element in self.descendant_elements():
            if predicate(element):
                return element
        return None

    def find_all(self, predicate: Callable[["Element"], bool]) -> list["Element"]:
        return [el for el in self.descendant_elements() if predicate(el)]

    def get_element_by_id(self, element_id: str) -> Optional["Element"]:
        if self.id == element_id:
            return self
        return self.find(lambda el: el.id == element_id)

    def get_elements_by_tag(self, tag: str) -> list["Element"]:
        tag = tag.lower()
        return self.find_all(lambda el: el.tag == tag)

    def get_elements_by_class(self, class_name: str) -> list["Element"]:
        return self.find_all(lambda el: el.has_class(class_name))

    # -- content ---------------------------------------------------------

    @property
    def text_content(self) -> str:
        parts = []
        for node in self.descendants():
            if isinstance(node, Text):
                parts.append(node.data)
        return "".join(parts)

    def set_text(self, data: str) -> None:
        """Replace all children with a single text node."""
        self.clear_children()
        self.append(Text(data))

    @property
    def is_void(self) -> bool:
        return self.tag in VOID_ELEMENTS

    @property
    def is_raw_text(self) -> bool:
        return self.tag in RAW_TEXT_ELEMENTS

    def clone(self) -> "Element":
        copy = Element(self.tag, dict(self.attributes))
        for child in self._children:
            copy.append(child.clone())
        return copy

    def __repr__(self) -> str:
        ident = f"#{self.id}" if self.id else ""
        cls = "." + ".".join(self.classes) if self.classes else ""
        return f"<{self.tag}{ident}{cls} children={len(self._children)}>"
