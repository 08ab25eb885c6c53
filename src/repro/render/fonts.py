"""Font metrics and a compact bitmap font.

Layout needs believable text measurement (line wrapping determines page
height, which determines snapshot geometry).  Widths follow a proportional
table approximating Helvetica at 1000 units/em; the rasterizer draws
glyphs from a 5x7 bitmap font so snapshots show legible text patterns.
"""

from __future__ import annotations

import sys
from types import MappingProxyType
from typing import Mapping

from repro.render.memo import SharedMemo

# Advance widths in 1/1000 em for printable ASCII (Helvetica-like).
_DEFAULT_WIDTH = 600
_WIDTHS: dict[str, int] = {
    " ": 278, "!": 278, '"': 355, "#": 556, "$": 556, "%": 889, "&": 667,
    "'": 191, "(": 333, ")": 333, "*": 389, "+": 584, ",": 278, "-": 333,
    ".": 278, "/": 278, "0": 556, "1": 556, "2": 556, "3": 556, "4": 556,
    "5": 556, "6": 556, "7": 556, "8": 556, "9": 556, ":": 278, ";": 278,
    "<": 584, "=": 584, ">": 584, "?": 556, "@": 1015, "A": 667, "B": 667,
    "C": 722, "D": 722, "E": 667, "F": 611, "G": 778, "H": 722, "I": 278,
    "J": 500, "K": 667, "L": 556, "M": 833, "N": 722, "O": 778, "P": 667,
    "Q": 778, "R": 722, "S": 667, "T": 611, "U": 722, "V": 667, "W": 944,
    "X": 667, "Y": 667, "Z": 611, "[": 278, "\\": 278, "]": 278, "^": 469,
    "_": 556, "`": 333, "a": 556, "b": 556, "c": 500, "d": 556, "e": 556,
    "f": 278, "g": 556, "h": 556, "i": 222, "j": 222, "k": 500, "l": 222,
    "m": 833, "n": 556, "o": 556, "p": 556, "q": 556, "r": 333, "s": 500,
    "t": 278, "u": 556, "v": 500, "w": 722, "x": 500, "y": 500, "z": 500,
    "{": 334, "|": 260, "}": 334, "~": 584,
}

_BOLD_FACTOR = 1.08
LINE_HEIGHT_FACTOR = 1.25

_ADVANCE_MEMO_BYTES = 256 << 10  # advance tables kept for reuse


def char_width(char: str, font_size: float, bold: bool = False) -> float:
    """Advance width of one character in pixels."""
    units = _WIDTHS.get(char, _DEFAULT_WIDTH)
    width = units * font_size / 1000.0
    return width * _BOLD_FACTOR if bold else width


class _Advances(dict):
    """``char_width`` of every character in ``_WIDTHS`` at one font size
    and weight; any other character reads ``default``, the width
    ``char_width`` gives every character outside ``_WIDTHS``."""

    __slots__ = ("default", "nbytes")

    def __missing__(self, char: str) -> float:
        return self.default


def _advance_table(font_size: float, bold: bool) -> _Advances:
    table = _Advances(
        (char, char_width(char, font_size, bold)) for char in _WIDTHS
    )
    table.default = char_width("\x00", font_size, bold)  # not in _WIDTHS
    table.nbytes = sys.getsizeof(table) + len(table) * sys.getsizeof(0.0)
    return table


_ADVANCES: SharedMemo[_Advances] = SharedMemo(_advance_table, _ADVANCE_MEMO_BYTES)


def advance_table(font_size: float, bold: bool = False) -> Mapping[str, float]:
    """Advance widths by character at one font size and weight, read-only
    and shared: ``advance_table(size, bold)[char] == char_width(char,
    size, bold)`` for every character, the same float."""
    return MappingProxyType(_ADVANCES.get(font_size, bold))


def text_width(text: str, font_size: float, bold: bool = False) -> float:
    """Advance width of a string in pixels: its characters' ``char_width``
    summed in order, read from the advance table."""
    return sum(map(_ADVANCES.get(font_size, bold).__getitem__, text))


def line_height(font_size: float) -> float:
    return font_size * LINE_HEIGHT_FACTOR


def wrap_text(
    text: str, max_width: float, font_size: float, bold: bool = False
) -> list[str]:
    """Greedy word wrap; words longer than the line break mid-word."""
    if max_width <= 0:
        return [text] if text else []
    lines: list[str] = []
    current = ""
    current_width = 0.0
    space = char_width(" ", font_size, bold)
    for word in text.split():
        width = text_width(word, font_size, bold)
        needed = width if not current else width + space
        if current and current_width + needed > max_width:
            lines.append(current)
            current, current_width = "", 0.0
            needed = width
        if width > max_width and not current:
            # Break an over-long word across lines.
            for char in word:
                cw = char_width(char, font_size, bold)
                if current and current_width + cw > max_width:
                    lines.append(current)
                    current, current_width = "", 0.0
                current += char
                current_width += cw
            continue
        current = f"{current} {word}" if current else word
        current_width += needed
    if current:
        lines.append(current)
    return lines


# ---------------------------------------------------------------------------
# 5x7 bitmap font: rows of 5 bits per glyph, top to bottom.

_GLYPHS: dict[str, tuple[int, ...]] = {
    "A": (0x0E, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11),
    "B": (0x1E, 0x11, 0x1E, 0x11, 0x11, 0x11, 0x1E),
    "C": (0x0E, 0x11, 0x10, 0x10, 0x10, 0x11, 0x0E),
    "D": (0x1E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x1E),
    "E": (0x1F, 0x10, 0x1E, 0x10, 0x10, 0x10, 0x1F),
    "F": (0x1F, 0x10, 0x1E, 0x10, 0x10, 0x10, 0x10),
    "G": (0x0E, 0x11, 0x10, 0x17, 0x11, 0x11, 0x0E),
    "H": (0x11, 0x11, 0x11, 0x1F, 0x11, 0x11, 0x11),
    "I": (0x0E, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0E),
    "J": (0x07, 0x02, 0x02, 0x02, 0x02, 0x12, 0x0C),
    "K": (0x11, 0x12, 0x14, 0x18, 0x14, 0x12, 0x11),
    "L": (0x10, 0x10, 0x10, 0x10, 0x10, 0x10, 0x1F),
    "M": (0x11, 0x1B, 0x15, 0x15, 0x11, 0x11, 0x11),
    "N": (0x11, 0x19, 0x15, 0x13, 0x11, 0x11, 0x11),
    "O": (0x0E, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E),
    "P": (0x1E, 0x11, 0x11, 0x1E, 0x10, 0x10, 0x10),
    "Q": (0x0E, 0x11, 0x11, 0x11, 0x15, 0x12, 0x0D),
    "R": (0x1E, 0x11, 0x11, 0x1E, 0x14, 0x12, 0x11),
    "S": (0x0F, 0x10, 0x10, 0x0E, 0x01, 0x01, 0x1E),
    "T": (0x1F, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04),
    "U": (0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x0E),
    "V": (0x11, 0x11, 0x11, 0x11, 0x11, 0x0A, 0x04),
    "W": (0x11, 0x11, 0x11, 0x15, 0x15, 0x1B, 0x11),
    "X": (0x11, 0x11, 0x0A, 0x04, 0x0A, 0x11, 0x11),
    "Y": (0x11, 0x11, 0x0A, 0x04, 0x04, 0x04, 0x04),
    "Z": (0x1F, 0x01, 0x02, 0x04, 0x08, 0x10, 0x1F),
    "0": (0x0E, 0x11, 0x13, 0x15, 0x19, 0x11, 0x0E),
    "1": (0x04, 0x0C, 0x04, 0x04, 0x04, 0x04, 0x0E),
    "2": (0x0E, 0x11, 0x01, 0x02, 0x04, 0x08, 0x1F),
    "3": (0x1F, 0x02, 0x04, 0x02, 0x01, 0x11, 0x0E),
    "4": (0x02, 0x06, 0x0A, 0x12, 0x1F, 0x02, 0x02),
    "5": (0x1F, 0x10, 0x1E, 0x01, 0x01, 0x11, 0x0E),
    "6": (0x06, 0x08, 0x10, 0x1E, 0x11, 0x11, 0x0E),
    "7": (0x1F, 0x01, 0x02, 0x04, 0x08, 0x08, 0x08),
    "8": (0x0E, 0x11, 0x11, 0x0E, 0x11, 0x11, 0x0E),
    "9": (0x0E, 0x11, 0x11, 0x0F, 0x01, 0x02, 0x0C),
    ".": (0x00, 0x00, 0x00, 0x00, 0x00, 0x0C, 0x0C),
    ",": (0x00, 0x00, 0x00, 0x00, 0x0C, 0x04, 0x08),
    ":": (0x00, 0x0C, 0x0C, 0x00, 0x0C, 0x0C, 0x00),
    ";": (0x00, 0x0C, 0x0C, 0x00, 0x0C, 0x04, 0x08),
    "!": (0x04, 0x04, 0x04, 0x04, 0x04, 0x00, 0x04),
    "?": (0x0E, 0x11, 0x01, 0x02, 0x04, 0x00, 0x04),
    "-": (0x00, 0x00, 0x00, 0x1F, 0x00, 0x00, 0x00),
    "+": (0x00, 0x04, 0x04, 0x1F, 0x04, 0x04, 0x00),
    "=": (0x00, 0x00, 0x1F, 0x00, 0x1F, 0x00, 0x00),
    "/": (0x01, 0x01, 0x02, 0x04, 0x08, 0x10, 0x10),
    "(": (0x02, 0x04, 0x08, 0x08, 0x08, 0x04, 0x02),
    ")": (0x08, 0x04, 0x02, 0x02, 0x02, 0x04, 0x08),
    "'": (0x04, 0x04, 0x08, 0x00, 0x00, 0x00, 0x00),
    '"': (0x0A, 0x0A, 0x14, 0x00, 0x00, 0x00, 0x00),
    "&": (0x08, 0x14, 0x14, 0x08, 0x15, 0x12, 0x0D),
    "@": (0x0E, 0x11, 0x17, 0x15, 0x17, 0x10, 0x0E),
    "#": (0x0A, 0x0A, 0x1F, 0x0A, 0x1F, 0x0A, 0x0A),
    "$": (0x04, 0x0F, 0x14, 0x0E, 0x05, 0x1E, 0x04),
    "%": (0x18, 0x19, 0x02, 0x04, 0x08, 0x13, 0x03),
    "*": (0x00, 0x04, 0x15, 0x0E, 0x15, 0x04, 0x00),
    "_": (0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1F),
    " ": (0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00),
}

_FALLBACK_GLYPH = (0x1F, 0x11, 0x11, 0x11, 0x11, 0x11, 0x1F)

GLYPH_COLUMNS = 5
GLYPH_ROWS = 7


def glyph_bitmap(char: str) -> tuple[int, ...]:
    """5x7 bitmap rows for ``char``; lowercase maps to uppercase glyphs."""
    if char in _GLYPHS:
        return _GLYPHS[char]
    upper = char.upper()
    if upper in _GLYPHS:
        return _GLYPHS[upper]
    return _FALLBACK_GLYPH
