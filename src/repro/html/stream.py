"""Single-pass streaming serializer: lexer events → final markup.

The DOM adaptation path is ``serialize(parse_html(source))`` — build the
whole tree, then walk it back into a string.  For filter-only
adaptations (the paper's "source filters": script stripping, URL
rewrites, title/doctype swaps) the tree is pure overhead: nothing ever
queries it.  :func:`stream_serialize` produces the *same bytes* in one
pass: :class:`_StreamWriter` is a second sink of
:func:`repro.html.tokenizer.scan`, beside :class:`_TreeBuilder`, and
replays the builder's soup-recovery rules (implied closers,
html/head/body scaffolding, attribute merging on repeated
``<html>``/``<body>`` tags) as emission rules instead of tree edits.

Byte-identity with the DOM round-trip is the contract.  Two soup shapes
cannot be emitted in source order because the tree builder reorders
them (a comment or a second head-level tag arriving while a
``<noscript>``-style head element is still open becomes a *sibling
after* the open element); those raise :class:`StreamUnsupported`.

No code in ``src/`` calls this module any more: the adaptation pipeline
emits through the one DOM path for every spec, filter-only included
(none of the benchmark's workloads ever took the streaming fork; see
docs/PERFORMANCE.md).  It stays only because ``perfbench/stages.py``
times it as its ``html.stream_serialize`` stage; it goes together with
that stage.  ``tests/core/test_pipeline_structure.py`` keeps new
importers out of ``src/``.
"""

from __future__ import annotations

from repro.dom.element import VOID_ELEMENTS
from repro.html.entities import encode_attribute, encode_text
from repro.html.parser import _HEAD_TAGS, _IMPLIED_CLOSERS
from repro.html.serializer import _BOOLEAN_ATTRIBUTES
from repro.html.tokenizer import TolerantSink, scan


class StreamUnsupported(Exception):
    """Input needs tree reordering the streaming writer cannot mirror."""


def stream_serialize(source: str) -> str:
    """One-pass equivalent of ``serialize(parse_html(source))``.

    Raises :class:`StreamUnsupported` when the input hits one of the
    (rare) reordering soup cases; callers fall back to the DOM path.
    """
    writer = _StreamWriter()
    scan(source, writer)
    return writer.finish()


def _write_open(parts: list[str], tag: str, attributes: dict) -> None:
    """Open-tag markup, mirroring ``serializer._write_element``."""
    parts.append(f"<{tag}")
    for name, value in attributes.items():
        if name in _BOOLEAN_ATTRIBUTES and value in ("", name):
            parts.append(f" {name}")
        else:
            parts.append(f' {name}="{encode_attribute(value)}"')
    parts.append(">")


class _StreamWriter(TolerantSink):
    """Emission-order mirror of ``parser._TreeBuilder``.

    The html and body open tags are emitted as placeholders and rendered
    at :meth:`finish`, because later ``<html>``/``<body>`` tags merge
    attributes into the already-created elements (``setdefault``) and
    the serialized open tag must carry the merged set.
    """

    def __init__(self) -> None:
        self._parts: list[str] = []
        self._saw_doctype = False
        self._html_index: int | None = None
        self._html_attrs: dict[str, str] = {}
        self._head_open = False
        self._body_index: int | None = None
        self._body_attrs: dict[str, str] = {}
        # Open elements, by tag name, as on the builder's stack: head
        # elements until the body exists, then "body" and what is in it.
        self._stack: list[str] = []

    # -- scaffolding (mirrors _ensure_html/_ensure_head/_ensure_body) --

    def _ensure_html(self) -> None:
        if self._html_index is None:
            self._html_index = len(self._parts)
            self._parts.append("")  # rendered in finish()

    def _ensure_head(self) -> None:
        self._ensure_html()
        if not self._head_open:
            self._parts.append("<head>")
            self._head_open = True

    def _ensure_body(self) -> None:
        if self._body_index is not None:
            return
        self._ensure_head()
        # Open head elements are abandoned by the tree builder; their
        # close tags land here because nothing is appended after them.
        self._close_down_to(0)
        self._parts.append("</head>")
        self._body_index = len(self._parts)
        self._parts.append("")  # rendered in finish()
        self._stack.append("body")

    def _close_down_to(self, depth: int) -> None:
        stack = self._stack
        while len(stack) > depth:
            self._parts.append(f"</{stack.pop()}>")

    # -- lexer events ---------------------------------------------------

    def doctype(self, name, start, end) -> None:
        if not self._saw_doctype and self._html_index is None:
            self._parts.append(f"<!DOCTYPE {name}>")
            self._saw_doctype = True

    def comment(self, data, start, end) -> None:
        if self._body_index is None and self._html_index is not None:
            if self._stack:
                # The builder appends the comment to <head> as a sibling
                # *after* the still-open element — out of source order.
                raise StreamUnsupported(
                    "comment beside an open head element"
                )
            self._ensure_head()
        self._parts.append(f"<!--{data}-->")

    def text(self, data, start, end) -> None:
        if self._body_index is None and not self._stack:
            if not data.strip():
                return  # inter-tag whitespace before body opens
            self._ensure_body()
        self._parts.append(
            data
            if self._stack[-1] in ("script", "style")
            else encode_text(data)
        )

    def start_tag(self, name, attributes, self_closing, start, end) -> None:
        if name == "html":
            self._ensure_html()
            for key, value in attributes.items():
                self._html_attrs.setdefault(key, value)
            return
        if name == "head":
            self._ensure_head()  # its attributes are dropped
            return
        if name == "body":
            self._ensure_body()
            for key, value in attributes.items():
                self._body_attrs.setdefault(key, value)
            return
        if self._body_index is None:
            if name not in _HEAD_TAGS:
                self._ensure_body()
            elif self._stack:
                # Builder appends to <head> while an earlier head element
                # is still open — becomes a later sibling, not a child.
                raise StreamUnsupported(
                    "head element beside an open head element"
                )
            else:
                self._ensure_head()
        stack = self._stack
        implied = _IMPLIED_CLOSERS.get(name)
        if implied is not None:
            while len(stack) > 1 and stack[-1] in implied:
                self._parts.append(f"</{stack.pop()}>")
        _write_open(self._parts, name, attributes)
        if name in VOID_ELEMENTS:
            pass  # serializer emits no close tag for voids
        elif self_closing:
            # Childless non-void element: serializer still closes it.
            self._parts.append(f"</{name}>")
        else:
            stack.append(name)

    def end_tag(self, name, start, end) -> None:
        if name in ("html", "head", "body"):
            # The scaffolding is never on the builder stack.
            if name == "body" and self._body_index is not None:
                self._close_down_to(1)
            return
        stack = self._stack
        floor = 0 if self._body_index is None else 1  # never pop body
        for index in range(len(stack) - 1, floor - 1, -1):
            if stack[index] == name:
                self._close_down_to(index)
                return
        # Stray end tag: ignore, as the tree builder does.

    # -- completion -----------------------------------------------------

    def finish(self) -> str:
        self._ensure_body()
        self._close_down_to(1)
        self._parts.append("</body></html>")
        for index, tag, attributes in (
            (self._html_index, "html", self._html_attrs),
            (self._body_index, "body", self._body_attrs),
        ):
            opening: list[str] = []
            _write_open(opening, tag, attributes)
            self._parts[index] = "".join(opening)
        return "".join(self._parts)


__all__ = [
    "StreamUnsupported",
    "stream_serialize",
]
