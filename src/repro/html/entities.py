"""HTML character references: the named subset real templates use, plus
numeric references.  Decoding is tolerant (unknown references pass through
verbatim); encoding escapes only what serialization requires.
"""

from __future__ import annotations

import re

NAMED_ENTITIES: dict[str, str] = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
    "nbsp": " ",
    "copy": "©",
    "reg": "®",
    "trade": "™",
    "hellip": "…",
    "mdash": "—",
    "ndash": "–",
    "lsquo": "‘",
    "rsquo": "’",
    "ldquo": "“",
    "rdquo": "”",
    "laquo": "«",
    "raquo": "»",
    "middot": "·",
    "bull": "•",
    "deg": "°",
    "plusmn": "±",
    "frac12": "½",
    "times": "×",
    "divide": "÷",
    "cent": "¢",
    "pound": "£",
    "euro": "€",
    "yen": "¥",
    "sect": "§",
    "para": "¶",
    "dagger": "†",
    "larr": "←",
    "uarr": "↑",
    "rarr": "→",
    "darr": "↓",
}

_REVERSED = {char: name for name, char in NAMED_ENTITIES.items()}


# A reference is ``&``, at most 31 characters holding neither ``&`` nor
# ``;``, then ``;``.  Anything longer is a literal ampersand.
_REFERENCE = re.compile(r"&([^&;]{0,31});")


def decode_entities(text: str) -> str:
    """Replace character references in ``text`` with their characters.

    Handles ``&name;``, ``&#123;`` and ``&#x1F;``.  Malformed or unknown
    references are left untouched, matching browser leniency.
    """
    if "&" not in text:
        return text
    return _REFERENCE.sub(_decode_match, text)


def _decode_match(match: re.Match) -> str:
    decoded = _decode_one(match.group(1))
    return match.group() if decoded is None else decoded


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


def encode_text(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for text content."""
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def encode_attribute(value: str) -> str:
    """Escape a value for a double-quoted attribute."""
    return encode_text(value).replace('"', "&quot;")


def encode_named(text: str) -> str:
    """Aggressively encode every character with a known named entity.

    Used by the Tidy analog when producing maximally portable XHTML.
    """
    out = []
    for char in text:
        name = _REVERSED.get(char)
        if name is not None:
            out.append(f"&{name};")
        elif char in "<>":
            out.append("&lt;" if char == "<" else "&gt;")
        else:
            out.append(char)
    return "".join(out)
