"""The document node: root of a parsed page."""

from __future__ import annotations

from typing import Optional

from repro.dom.element import Element
from repro.dom.node import Doctype, Node


class Document(Node):
    """Root node holding the doctype and the ``<html>`` element."""

    __slots__ = ("_children",)

    def __init__(self) -> None:
        super().__init__()
        self._children: list[Node] = []

    @property
    def node_name(self) -> str:
        return "#document"

    @property
    def children(self) -> list[Node]:
        return self._children

    def append(self, child: Node) -> Node:
        child.detach()
        self._children.append(child)
        child.parent = self
        return child

    def insert_child(self, index: int, child: Node) -> Node:
        child.detach()
        self._children.insert(index, child)
        child.parent = self
        return child

    # -- well-known children -----------------------------------------------

    @property
    def doctype(self) -> Optional[Doctype]:
        for child in self._children:
            if isinstance(child, Doctype):
                return child
        return None

    @property
    def document_element(self) -> Optional[Element]:
        """The ``<html>`` element (first element child)."""
        for child in self._children:
            if isinstance(child, Element):
                return child
        return None

    @property
    def head(self) -> Optional[Element]:
        html = self.document_element
        if html is None:
            return None
        for child in html.child_elements():
            if child.tag == "head":
                return child
        return None

    @property
    def body(self) -> Optional[Element]:
        html = self.document_element
        if html is None:
            return None
        for child in html.child_elements():
            if child.tag == "body":
                return child
        return None

    @property
    def title(self) -> str:
        head = self.head
        if head is None:
            return ""
        title = head.find(lambda el: el.tag == "title")
        return title.text_content.strip() if title is not None else ""

    # -- lookup helpers ------------------------------------------------------

    def get_element_by_id(self, element_id: str) -> Optional[Element]:
        html = self.document_element
        return html.get_element_by_id(element_id) if html is not None else None

    def get_elements_by_tag(self, tag: str) -> list[Element]:
        html = self.document_element
        if html is None:
            return []
        tag = tag.lower()
        result = [html] if html.tag == tag else []
        result.extend(html.get_elements_by_tag(tag))
        return result

    def get_elements_by_class(self, class_name: str) -> list[Element]:
        return [
            element
            for element in self.all_elements()
            if element.has_class(class_name)
        ]

    def all_elements(self) -> list[Element]:
        """Every element in the document, document order."""
        html = self.document_element
        if html is None:
            return []
        return [html, *html.descendant_elements()]

    def clone(self) -> "Document":
        copy = Document()
        for child in self._children:
            copy.append(child.clone())
        return copy

    def __repr__(self) -> str:
        return f"Document(title={self.title!r})"


def new_document(title: str = "", doctype: str = "html") -> Document:
    """Build a minimal empty document with html/head/title/body scaffolding."""
    from repro.dom.node import Text

    document = Document()
    document.append(Doctype(doctype))
    html = Element("html")
    head = Element("head")
    title_el = Element("title")
    title_el.append(Text(title))
    head.append(title_el)
    body = Element("body")
    html.append(head)
    html.append(body)
    document.append(html)
    return document
