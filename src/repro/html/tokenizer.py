"""Tolerant HTML lexer: one scan, any number of readers.

:func:`scan` is the only code under ``src/repro`` that lexes markup.  It
walks the source once — ``str.find("<")`` between constructs, compiled
regexes for tag names, the attribute list and the case-insensitive
raw-text close — and reports each construct to a *sink* together with
the source offsets it spans.  Modeled on the HTML5 tokenizer states that
matter for real templates: attribute quoting variants, self-closing
tags, raw-text elements (``script``/``style``/``textarea``/``title``),
comments, and bogus markup recovery.  It never raises on malformed input.

A sink is any object with these methods (``start``/``end`` are offsets
into the scanned string, ``html[start:end]`` being the construct as
written)::

    doctype(name, start, end)
    comment(data, start, end)
    start_tag(name, attributes, self_closing, start, end)
    end_tag(name, start, end)
    text(data, start, end)            # character references decoded
    recovered(reason, at)             # see below

``name`` is lower-cased; ``attributes`` is a fresh ``dict`` the sink may
keep (first duplicate wins, values decoded).  ``recovered`` precedes the
event (if any) the lexer made up to get past malformed markup: a literal
``<``, a processing instruction or bogus declaration (dropped), an
unterminated comment, tag or raw-text element, an end tag with no name.
Tolerant readers ignore it (:class:`TolerantSink`); a strict reader
raises from it.

The readers: ``parser._TreeBuilder`` (tree construction),
``stream._StreamWriter`` (one-pass serialization),
``core.delta._SegmentSink`` (strict top-level segmentation, which uses
the offsets) and :func:`tokenize`, a thin adapter that turns the events
into the ``Token`` dataclasses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.dom.element import RAW_TEXT_ELEMENTS
from repro.html.entities import decode_entities


@dataclass
class DoctypeToken:
    name: str


@dataclass
class StartTagToken:
    name: str
    attributes: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


@dataclass
class EndTagToken:
    name: str


@dataclass
class TextToken:
    data: str


@dataclass
class CommentToken:
    data: str


Token = Union[DoctypeToken, StartTagToken, EndTagToken, TextToken, CommentToken]

_WS = r" \t\n\r\f"
_TAG_NAME = re.compile(rf"[^{_WS}/>]+")
# One step of the attribute list.  ``lastindex`` tells the cases apart:
# 1 the tag's end (``>`` or ``/>``), 2 a bare name, 3-5 a name with a
# double-quoted / single-quoted / unquoted value, None a stray ``/``.
# The name may be empty (``<a =x>``) and a quote may run off the end.
_ATTRIBUTE = re.compile(
    rf"[{_WS}]*(?:(/?>)|/|([^{_WS}=/>]*)[{_WS}]*"
    rf"(?:=[{_WS}]*(?:\"([^\"]*)\"?|'([^']*)'?|([^{_WS}>]*)))?)"
)
# ASCII-only case folding, searched in the source itself: ``str.lower()``
# can change a string's length, so offsets into a lowered copy are not
# offsets into the source.
_RAW_TEXT_CLOSE = {
    tag: re.compile(rf"</{tag}(?=[{_WS}/>]|\Z)", re.IGNORECASE | re.ASCII)
    for tag in RAW_TEXT_ELEMENTS
}
# RCDATA elements decode character references in their text; true raw-text
# elements (script/style) do not.
_RCDATA_ELEMENTS = frozenset({"title", "textarea"})


def scan(html: str, sink, pos: int = 0, end: Optional[int] = None) -> None:
    """Report every construct in ``html[pos:end]`` to ``sink``, in order.

    Nothing past ``end`` is read: a construct cut off there is lexed as
    if the input ended, so a region scan sees it as unterminated.
    """
    length = len(html) if end is None else end
    find = html.find
    on_text, on_start, on_end = sink.text, sink.start_tag, sink.end_tag
    recovered = sink.recovered
    while pos < length:
        lt = find("<", pos, length)
        if lt == -1:
            lt = length
        if lt > pos:
            data = html[pos:lt]
            on_text(decode_entities(data) if "&" in data else data, pos, lt)
        if lt == length:
            return
        opener = html[lt + 1 : lt + 2] if lt + 1 < length else ""
        if opener.isalpha():
            match = _TAG_NAME.match(html, lt + 1, length)
            name = match.group().lower()
            pos = match.end()
            attributes: dict[str, str] = {}
            closer = None
            while pos < length:
                match = _ATTRIBUTE.match(html, pos, length)
                pos = match.end()
                which = match.lastindex
                if which is None:
                    continue
                if which == 1:
                    closer = match.group(1)
                    break
                key = match.group(2).lower()
                if key and key not in attributes:
                    value = match.group(which) if which > 2 else ""
                    attributes[key] = (
                        decode_entities(value) if "&" in value else value
                    )
            if closer is None:
                recovered("unterminated start tag", lt)
            self_closing = closer == "/>"
            on_start(name, attributes, self_closing, lt, pos)
            if name in RAW_TEXT_ELEMENTS and not self_closing:
                close = _RAW_TEXT_CLOSE[name].search(html, pos, length)
                stop = length if close is None else close.start()
                if stop > pos:
                    data = html[pos:stop]
                    if name in _RCDATA_ELEMENTS and "&" in data:
                        data = decode_entities(data)
                    on_text(data, pos, stop)
                gt = -1 if close is None else find(">", close.end(), length)
                pos = length if gt == -1 else gt + 1
                if gt == -1:
                    recovered(f"unterminated <{name}>", stop)
                if close is not None:
                    on_end(name, stop, pos)
        elif opener == "/":
            gt = find(">", lt + 2, length)
            pos = length if gt == -1 else gt + 1
            # Stray attributes on an end tag are dropped with the rest.
            words = html[lt + 2 : pos - 1].split(None, 1) if gt != -1 else ()
            if words:
                on_end(words[0].lower(), lt, pos)
            else:
                recovered("end tag without a name or a '>'", lt)
        elif opener == "!":
            if html.startswith("<!--", lt, length):
                close_at = find("-->", lt + 4, length)
                if close_at == -1:
                    recovered("unterminated comment", lt)
                    sink.comment(html[lt + 4 : length], lt, length)
                    return
                pos = close_at + 3
                sink.comment(html[lt + 4 : close_at], lt, pos)
                continue
            gt = find(">", lt, length)
            pos = length if gt == -1 else gt + 1
            if gt != -1 and html[lt + 2 : lt + 9].lower() == "doctype":
                sink.doctype(html[lt + 9 : gt].strip() or "html", lt, pos)
            else:
                # CDATA and other declarations are dropped, as browsers
                # do in HTML.
                recovered("bogus markup declaration", lt)
        elif opener == "?":
            gt = find(">", lt, length)
            pos = length if gt == -1 else gt + 1
            recovered("processing instruction", lt)
        else:
            recovered("literal '<'", lt)
            on_text("<", lt, lt + 1)
            pos = lt + 1


class TolerantSink:
    """Base of the readers that accept whatever the lexer recovered from."""

    def recovered(self, reason: str, at: int) -> None:
        pass


class _TokenSink(TolerantSink):
    """Collects the scan's events as ``Token`` dataclasses."""

    def __init__(self) -> None:
        self.tokens: list[Token] = []

    def doctype(self, name, start, end) -> None:
        self.tokens.append(DoctypeToken(name))

    def comment(self, data, start, end) -> None:
        self.tokens.append(CommentToken(data))

    def start_tag(self, name, attributes, self_closing, start, end) -> None:
        self.tokens.append(StartTagToken(name, attributes, self_closing))

    def end_tag(self, name, start, end) -> None:
        self.tokens.append(EndTagToken(name))

    def text(self, data, start, end) -> None:
        self.tokens.append(TextToken(data))


def tokenize(html: str) -> Iterator[Token]:
    """The tokens of ``html``; never raises on malformed input."""
    sink = _TokenSink()
    scan(html, sink)
    return iter(sink.tokens)
