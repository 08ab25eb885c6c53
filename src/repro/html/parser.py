"""Tree-building HTML parser.

Turns the lexer's events into a :class:`repro.dom.Document`, recovering
from the tag soup real forum templates emit: implied ``<tbody>``/``</td>``
boundaries, unclosed ``<p>``/``<li>``/``<option>`` elements, missing
``html``/``head``/``body`` scaffolding, and stray end tags.  Both builders
here are sinks of :func:`repro.html.tokenizer.scan`: each event attaches
its node directly, with no token object in between.
"""

from __future__ import annotations

from repro.dom.document import Document
from repro.dom.element import VOID_ELEMENTS, Element
from repro.dom.node import Comment, Doctype, Text
from repro.html.tokenizer import TolerantSink, scan

# Opening one of these closes an open element of the associated set first.
_IMPLIED_CLOSERS: dict[str, frozenset[str]] = {
    "p": frozenset({"p"}),
    "li": frozenset({"li"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "tr": frozenset({"tr", "td", "th"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "thead": frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"}),
    "tbody": frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"}),
    "tfoot": frozenset({"thead", "tbody", "tfoot", "tr", "td", "th"}),
    "option": frozenset({"option"}),
    "optgroup": frozenset({"option", "optgroup"}),
}

# Elements whose leading newline/blank text should not force a body.
_HEAD_TAGS = frozenset(
    {"title", "meta", "link", "style", "script", "base", "noscript"}
)


def parse_html(html: str) -> Document:
    """Parse a full page into a document with html/head/body scaffolding."""
    builder = _TreeBuilder()
    scan(html, builder)
    return builder.finish()


def parse_fragment(html: str) -> list:
    """Parse a fragment and return its top-level nodes (detached).

    Used by the jQuery-style API (``Query.html(...)``, ``append(...)``)
    and by attribute transforms that inject markup.
    """
    builder = _FragmentBuilder()
    scan(html, builder)
    return builder.finish()


class _FragmentBuilder(TolerantSink):
    """Nesting only: no scaffolding, no implied closers."""

    def __init__(self) -> None:
        self._root = Element("template-root")
        self._stack = [self._root]

    def doctype(self, name, start, end) -> None:
        pass  # makes no sense in a fragment

    def comment(self, data, start, end) -> None:
        self._stack[-1].append(Comment(data))

    def text(self, data, start, end) -> None:
        self._stack[-1].append(Text(data))

    def start_tag(self, name, attributes, self_closing, start, end) -> None:
        element = self._stack[-1].append_new(name, attributes)
        if not self_closing and name not in VOID_ELEMENTS:
            self._stack.append(element)

    def end_tag(self, name, start, end) -> None:
        stack = self._stack
        for index in range(len(stack) - 1, 0, -1):
            if stack[index].tag == name:
                del stack[index:]
                break

    def finish(self) -> list:
        children = list(self._root.children)
        self._root.clear_children()
        return children


class _TreeBuilder(TolerantSink):
    """Incremental tree construction with soup recovery rules."""

    def __init__(self) -> None:
        self.document = Document()
        self._html: Element | None = None
        self._head: Element | None = None
        self._body: Element | None = None
        self._stack: list[Element] = []
        self._saw_doctype = False

    # -- scaffolding -----------------------------------------------------

    def _ensure_html(self) -> Element:
        if self._html is None:
            self._html = Element("html")
            self.document.append(self._html)
        return self._html

    def _ensure_head(self) -> Element:
        html = self._ensure_html()
        if self._head is None:
            self._head = html.append_new("head", {})
        return self._head

    def _ensure_body(self) -> Element:
        html = self._ensure_html()
        self._ensure_head()
        if self._body is None:
            self._body = html.append_new("body", {})
            self._stack = [self._body]
        return self._body

    # -- lexer events ------------------------------------------------------

    def doctype(self, name, start, end) -> None:
        if not self._saw_doctype and self._html is None:
            self.document.append(Doctype(name))
            self._saw_doctype = True

    def comment(self, data, start, end) -> None:
        if self._body is not None:
            self._stack[-1].append(Comment(data))
        elif self._html is None:
            self.document.append(Comment(data))
        else:
            self._ensure_head().append(Comment(data))

    def text(self, data, start, end) -> None:
        if self._body is None:
            if self._stack:
                # An open head element (title/script/style) collects text.
                self._stack[-1].append_text(data)
                return
            if not data.strip():
                return  # inter-tag whitespace before body opens
            self._ensure_body()
        self._stack[-1].append_text(data)

    def start_tag(self, name, attributes, self_closing, start, end) -> None:
        if name == "html":
            html = self._ensure_html()
            for key, value in attributes.items():
                html.attributes.setdefault(key, value)
            return
        if name == "head":
            self._ensure_head()
            return
        if name == "body":
            body = self._ensure_body()
            for key, value in attributes.items():
                body.attributes.setdefault(key, value)
            return
        if self._body is None:
            if name in _HEAD_TAGS:
                element = self._ensure_head().append_new(name, attributes)
                if not self_closing and name not in VOID_ELEMENTS:
                    # Raw-text head elements get their text from the next
                    # event; push so that text lands inside.
                    self._stack.append(element)
                return
            self._ensure_body()
        stack = self._stack
        implied = _IMPLIED_CLOSERS.get(name)
        if implied is not None:
            # Pop open elements the new tag implicitly terminates.
            while len(stack) > 1 and stack[-1].tag in implied:
                stack.pop()
        element = stack[-1].append_new(name, attributes)
        if not self_closing and name not in VOID_ELEMENTS:
            stack.append(element)

    def end_tag(self, name, start, end) -> None:
        if name in ("html", "head", "body"):
            # The scaffolding is never on the stack; after </head>,
            # content flows to body on demand.
            if name == "body" and self._body is not None:
                self._stack = [self._body]
            return
        # Head elements sit on the stack before body exists; once it
        # does it is the stack's floor, and no other element is a "body".
        stack = self._stack
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].tag == name:
                del stack[index:]
                return
        # Stray end tag: ignore, as browsers do.

    def finish(self) -> Document:
        self._ensure_body()
        return self.document
