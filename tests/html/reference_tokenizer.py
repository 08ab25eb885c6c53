"""The character-loop tokenizer, frozen as a differential oracle.

This is ``repro.html.tokenizer`` as it stood before the regex-driven
``scan`` replaced it, kept verbatim (its token classes included) so the
scanner and its three sinks can be checked token for token against the
implementation they replaced.  Nothing under ``src/`` imports it.  It
still has the defect the rewrite fixed: raw-text close tags are searched
in ``html.lower()`` but sliced from ``html``, so a character whose
lower-case form is longer (``"\u0130"``) shifts every later offset.
Differential tests exclude such input; ``test_scanner_differential``
pins the fixed behaviour separately.

``decode_entities`` is frozen here too (the character-at-a-time loop the
one-pass substitution replaced), so the oracle shares only the
``NAMED_ENTITIES`` table with the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.dom.element import RAW_TEXT_ELEMENTS
from repro.html.entities import NAMED_ENTITIES


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

def decode_entities(text: str) -> str:
    """Replace character references in ``text`` with their characters.

    Handles ``&name;``, ``&#123;`` and ``&#x1F;``.  Malformed or unknown
    references are left untouched, matching browser leniency.
    """
    if "&" not in text:
        return text
    out: list[str] = []
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char != "&":
            out.append(char)
            index += 1
            continue
        end = text.find(";", index + 1)
        # References longer than 32 chars are treated as literal ampersands.
        if end == -1 or end - index > 32:
            out.append(char)
            index += 1
            continue
        body = text[index + 1 : end]
        decoded = _decode_one(body)
        if decoded is None:
            out.append(char)
            index += 1
        else:
            out.append(decoded)
            index = end + 1
    return "".join(out)


def _decode_one(body: str) -> str | None:
    if body.startswith("#"):
        digits = body[1:]
        try:
            if digits[:1] in ("x", "X"):
                codepoint = int(digits[1:], 16)
            else:
                codepoint = int(digits, 10)
        except ValueError:
            return None
        if 0 < codepoint <= 0x10FFFF:
            return chr(codepoint)
        return None
    return NAMED_ENTITIES.get(body)


_WHITESPACE = " \t\n\r\f"
_ATTR_NAME_END = _WHITESPACE + "=/>"


def tokenize(html: str) -> Iterator[Token]:
    """Yield tokens from ``html``; never raises on malformed input."""
    pos = 0
    length = len(html)
    while pos < length:
        lt = html.find("<", pos)
        if lt == -1:
            yield TextToken(decode_entities(html[pos:]))
            return
        if lt > pos:
            yield TextToken(decode_entities(html[pos:lt]))
        if lt + 1 >= length:
            # Trailing lone '<' becomes literal text.
            yield TextToken("<")
            return
        next_char = html[lt + 1]
        if next_char == "!":
            pos = yield from _consume_markup_declaration(html, lt)
        elif next_char == "/":
            pos = yield from _consume_end_tag(html, lt)
        elif next_char.isalpha():
            token, pos = _consume_start_tag(html, lt)
            yield token
            if token.name in RAW_TEXT_ELEMENTS and not token.self_closing:
                pos = yield from _consume_raw_text(html, pos, token.name)
        elif next_char == "?":
            # Processing instruction / bogus comment: skip to '>'.
            gt = html.find(">", lt)
            pos = length if gt == -1 else gt + 1
        else:
            yield TextToken("<")
            pos = lt + 1


def _consume_markup_declaration(html: str, start: int):
    """Handle ``<!-- -->``, ``<!DOCTYPE ...>`` and bogus declarations."""
    if html.startswith("<!--", start):
        end = html.find("-->", start + 4)
        if end == -1:
            yield CommentToken(html[start + 4 :])
            return len(html)
        yield CommentToken(html[start + 4 : end])
        return end + 3
    gt = html.find(">", start)
    if gt == -1:
        return len(html)
    body = html[start + 2 : gt]
    if body.lower().startswith("doctype"):
        name = body[7:].strip() or "html"
        yield DoctypeToken(name)
    # CDATA and other declarations are dropped, as browsers do in HTML.
    return gt + 1


def _consume_end_tag(html: str, start: int):
    gt = html.find(">", start)
    if gt == -1:
        return len(html)
    name = html[start + 2 : gt].strip().lower()
    # Strip any stray attributes on the end tag.
    name = name.split()[0] if name.split() else ""
    if name:
        yield EndTagToken(name)
    return gt + 1


def _consume_start_tag(html: str, start: int) -> tuple[StartTagToken, int]:
    pos = start + 1
    length = len(html)
    name_start = pos
    while pos < length and html[pos] not in _WHITESPACE + "/>":
        pos += 1
    name = html[name_start:pos].lower()
    attributes: dict[str, str] = {}
    self_closing = False
    while pos < length:
        while pos < length and html[pos] in _WHITESPACE:
            pos += 1
        if pos >= length:
            break
        char = html[pos]
        if char == ">":
            pos += 1
            break
        if char == "/":
            if pos + 1 < length and html[pos + 1] == ">":
                self_closing = True
                pos += 2
                break
            pos += 1
            continue
        attr_start = pos
        while pos < length and html[pos] not in _ATTR_NAME_END:
            pos += 1
        attr_name = html[attr_start:pos].lower()
        while pos < length and html[pos] in _WHITESPACE:
            pos += 1
        value = ""
        if pos < length and html[pos] == "=":
            pos += 1
            while pos < length and html[pos] in _WHITESPACE:
                pos += 1
            if pos < length and html[pos] in "\"'":
                quote = html[pos]
                pos += 1
                value_start = pos
                while pos < length and html[pos] != quote:
                    pos += 1
                value = html[value_start:pos]
                pos += 1  # past the closing quote (or off the end)
            else:
                value_start = pos
                while pos < length and html[pos] not in _WHITESPACE + ">":
                    pos += 1
                value = html[value_start:pos]
        if attr_name and attr_name not in attributes:
            attributes[attr_name] = decode_entities(value)
    return StartTagToken(name, attributes, self_closing), pos


# RCDATA elements decode character references in their text; true raw-text
# elements (script/style) do not.
_RCDATA_ELEMENTS = frozenset({"title", "textarea"})


def _consume_raw_text(html: str, pos: int, tag: str):
    """Collect everything up to the matching ``</tag>`` as literal text."""
    decode = tag in _RCDATA_ELEMENTS
    lower = html.lower()
    needle = f"</{tag}"
    search = pos
    length = len(html)
    while True:
        idx = lower.find(needle, search)
        if idx == -1:
            if pos < length:
                data = html[pos:]
                yield TextToken(decode_entities(data) if decode else data)
            return length
        after = idx + len(needle)
        # Must be followed by whitespace, '/', or '>' to count as a close tag.
        if after < length and html[after] not in _WHITESPACE + "/>":
            search = after
            continue
        if idx > pos:
            data = html[pos:idx]
            yield TextToken(decode_entities(data) if decode else data)
        gt = html.find(">", after)
        yield EndTagToken(tag)
        return length if gt == -1 else gt + 1
