"""The render path's replaced loops, frozen as differential oracles.

These are ``RasterImage.smoothed``, ``Canvas``'s painting methods (the
photo placeholder included), ``encode_png``, ``encode_jpeg``,
``StyleResolver.computed_style`` and ``fonts.text_width`` as they stood
before the rule-hash cascade, the row-copy fills and run stamps, the
integer anti-alias, the vectorised scanline filter, the banded passes,
the placeholder memo and the advance table replaced them, kept verbatim
so the code under ``src/`` can be checked byte for byte against what it
replaced.  Nothing under ``src/`` imports this module.

``resized`` is the exception: the implementation it replaced summed the
frame in float32 and got the box sums wrong on tall pages, so what is
frozen here is the same integral-image method over ``int64`` — the
exact answer, which the parent's output was not.

The oracles share only data with the code under test: the UA sheet, the
inherited-property set, the shorthand expanders (none of them touched
by the rewrite), the 5x7 font, the JPEG quantization tables and
``Canvas``'s clip, which no rewrite touched.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.css.cascade import (
    INHERITED_PROPERTIES,
    UA_SHEET,
    ComputedStyle,
    _expand_name,
    _expand_shorthand,
)
from repro.css.model import Declaration, Stylesheet
from repro.css.parser import parse_declarations, parse_stylesheet
from repro.css.specificity import specificity
from repro.dom.element import Element
from repro.render import fonts
from repro.render.image import (
    _CHROMA_QUANT,
    _JPEG_OVERHEAD,
    _LUMA_QUANT,
    _PNG_OVERHEAD,
    EncodedImage,
    RasterImage,
)
from repro.render.box import Rect
from repro.render.raster import Canvas, Color


def smoothed(pixels: np.ndarray) -> np.ndarray:
    """The float32 3x3 blur: divide by a per-pixel norm, truncate."""
    source = pixels
    pixels = source.astype(np.float32)
    out = 4.0 * pixels
    out[1:] += pixels[:-1]
    out[:-1] += pixels[1:]
    out[:, 1:] += pixels[:, :-1]
    out[:, :-1] += pixels[:, 1:]
    norm = np.full(source.shape[:2], 8.0, dtype=np.float32)
    norm[0, :] -= 1.0
    norm[-1, :] -= 1.0
    norm[:, 0] -= 1.0
    norm[:, -1] -= 1.0
    return np.clip(out / norm[:, :, None], 0, 255).astype(np.uint8)


def resized(pixels: np.ndarray, new_width: int, new_height: int) -> np.ndarray:
    """Box-filter resampling over an exact ``int64`` integral image."""
    height, width = pixels.shape[:2]
    integral = np.zeros((height + 1, width + 1, 3), dtype=np.int64)
    integral[1:, 1:] = np.cumsum(
        np.cumsum(pixels, axis=0, dtype=np.int64), axis=1
    )
    row_edges = (np.arange(new_height + 1) * height / new_height).astype(int)
    col_edges = (np.arange(new_width + 1) * width / new_width).astype(int)
    r1 = row_edges[:-1]
    r2 = np.maximum(row_edges[1:], r1 + 1)
    c1 = col_edges[:-1]
    c2 = np.maximum(col_edges[1:], c1 + 1)
    r2 = np.clip(r2, 1, height)
    c2 = np.clip(c2, 1, width)
    r1 = np.minimum(r1, r2 - 1)
    c1 = np.minimum(c1, c2 - 1)
    sums = (
        integral[r2][:, c2]
        - integral[r1][:, c2]
        - integral[r2][:, c1]
        + integral[r1][:, c1]
    )
    areas = ((r2 - r1)[:, None] * (c2 - c1)[None, :])[:, :, None]
    return np.clip(sums / areas, 0, 255).astype(np.uint8)


def encode_png(image: RasterImage) -> EncodedImage:
    """The PNG recipe with a Python loop over the scanlines."""
    pixels = image.pixels
    height = image.height
    shifted = np.zeros_like(pixels)
    shifted[:, 1:] = pixels[:, :-1]
    filtered = (pixels.astype(np.int16) - shifted.astype(np.int16)) % 256
    scanlines = bytearray()
    filter_byte = bytes([1])
    row_bytes = filtered.astype(np.uint8).tobytes()
    stride = image.width * 3
    for row in range(height):
        scanlines += filter_byte
        scanlines += row_bytes[row * stride : (row + 1) * stride]
    compressed = zlib.compress(bytes(scanlines), level=6)
    data = b"\x89PNG\r\n\x1a\n" + compressed
    return EncodedImage(
        format="png",
        width=image.width,
        height=image.height,
        data=data + b"\x00" * _PNG_OVERHEAD,
    )


def _quality_scale(quality: int) -> float:
    """The Annex K quality → table scaling law (IJG)."""
    if quality < 50:
        return 5000.0 / quality / 100.0
    return (200.0 - 2.0 * quality) / 100.0


def _block_dct_quantize(plane: np.ndarray, table: np.ndarray) -> bytes:
    """8x8 block DCT-II, quantize by ``table``, serialize coefficients.

    Smooth blocks collapse to a DC value and zero AC coefficients — the
    energy compaction real JPEG gets, which is what makes page snapshots
    small at low quality.
    """
    # Deferred: importing scipy costs ~29 MB of resident memory, which a
    # proxy that never encodes an image (most of them) should not pay.
    from scipy.fftpack import dctn

    height, width = plane.shape
    pad_h = (-height) % 8
    pad_w = (-width) % 8
    if pad_h or pad_w:
        plane = np.pad(plane, ((0, pad_h), (0, pad_w)), mode="edge")
    height, width = plane.shape
    blocks = plane.reshape(height // 8, 8, width // 8, 8).transpose(0, 2, 1, 3)
    coeffs = dctn(blocks - 128.0, axes=(2, 3), norm="ortho")
    quantized = np.round(coeffs / table[None, None, :, :])
    dc = quantized[:, :, 0, 0].astype(np.int16)
    ac = np.clip(quantized, -127, 127).astype(np.int8)
    ac[:, :, 0, 0] = 0
    # Differential DC coding across blocks, as the standard does.
    dc_flat = dc.reshape(-1)
    dc_diff = np.empty_like(dc_flat)
    dc_diff[0] = dc_flat[0]
    dc_diff[1:] = dc_flat[1:] - dc_flat[:-1]
    # Sparse AC serialization stands in for zigzag run-length + Huffman:
    # per-block nonzero count, then (position, value) streams.
    ac_blocks = ac.reshape(-1, 64)
    mask = ac_blocks != 0
    counts = np.minimum(mask.sum(axis=1), 255).astype(np.uint8)
    positions = np.nonzero(mask)[1].astype(np.uint8)
    values = ac_blocks[mask]
    return (
        dc_diff.tobytes()
        + counts.tobytes()
        + positions.tobytes()
        + values.tobytes()
    )


def encode_jpeg(image: RasterImage, quality: int = 75) -> EncodedImage:
    """Lossy encode: 4:2:0 subsampling, 8x8 DCT, Annex K quantization,
    entropy coding.

    ``quality`` follows the familiar 1-100 scale and drives the standard
    table scaling, so byte counts respond to quality and image business
    the way the paper's post-processor did.
    """
    if not 1 <= quality <= 100:
        raise ValueError("quality must be in [1, 100]")
    pixels = image.pixels.astype(np.float32)
    # RGB -> YCbCr.
    y = 0.299 * pixels[:, :, 0] + 0.587 * pixels[:, :, 1] + 0.114 * pixels[:, :, 2]
    cb = 128 - 0.168736 * pixels[:, :, 0] - 0.331264 * pixels[:, :, 1] + 0.5 * pixels[:, :, 2]
    cr = 128 + 0.5 * pixels[:, :, 0] - 0.418688 * pixels[:, :, 1] - 0.081312 * pixels[:, :, 2]
    # 4:2:0 chroma subsampling.
    cb_sub = cb[::2, ::2]
    cr_sub = cr[::2, ::2]
    scale = _quality_scale(quality)
    luma_table = np.clip(_LUMA_QUANT * scale, 1, 255)
    chroma_table = np.clip(_CHROMA_QUANT * scale, 1, 255)
    payload = (
        _block_dct_quantize(y, luma_table)
        + _block_dct_quantize(cb_sub, chroma_table)
        + _block_dct_quantize(cr_sub, chroma_table)
    )
    compressed = zlib.compress(payload, level=7)
    return EncodedImage(
        format="jpeg",
        width=image.width,
        height=image.height,
        data=compressed + b"\x00" * _JPEG_OVERHEAD,
        quality=quality,
    )


def text_width(text: str, font_size: float, bold: bool = False) -> float:
    """Advance width of a string in pixels."""
    return sum(fonts.char_width(char, font_size, bold) for char in text)


class ReferenceCanvas(Canvas):
    """``Canvas`` as it painted before fills became row copies, text
    became one stamp per run and placeholders were drawn in bands and
    memoised: every fill a colour broadcast over its region, every
    stroke four line broadcasts, every glyph its own loop over the lit
    cells of its 5x7 bitmap, one slice assignment each, and every
    placeholder's noise field drawn whole, fresh each time.  Only
    ``_clip`` is inherited.

    ``fill_gradient`` keeps its bug: it spreads the ramp over the rows
    the canvas shows, not over the box, so it is an oracle only for
    gradients that lie wholly inside the canvas."""

    def __init__(self, width: int, height: int, background: Color = (255, 255, 255)):
        if width < 1 or height < 1:
            raise ValueError("canvas must be at least 1x1")
        self.width = width
        self.height = height
        self.pixels = np.empty((height, width, 3), dtype=np.uint8)
        self.pixels[:, :] = background

    def fill_rect(self, rect: Rect, color: Color) -> None:
        x, y, w, h = rect.rounded()
        x0, y0, x1, y1 = self._clip(x, y, w, h)
        if x1 > x0 and y1 > y0:
            self.pixels[y0:y1, x0:x1] = color

    def stroke_rect(self, rect: Rect, color: Color, width: int = 1) -> None:
        x, y, w, h = rect.rounded()
        for offset in range(width):
            self._hline(x, y + offset, w, color)
            self._hline(x, y + h - 1 - offset, w, color)
            self._vline(x + offset, y, h, color)
            self._vline(x + w - 1 - offset, y, h, color)

    def _hline(self, x: int, y: int, length: int, color: Color) -> None:
        if 0 <= y < self.height:
            x0 = max(0, x)
            x1 = min(self.width, x + length)
            if x1 > x0:
                self.pixels[y, x0:x1] = color

    def _vline(self, x: int, y: int, length: int, color: Color) -> None:
        if 0 <= x < self.width:
            y0 = max(0, y)
            y1 = min(self.height, y + length)
            if y1 > y0:
                self.pixels[y0:y1, x] = color

    def draw_text(
        self,
        x: float,
        y: float,
        text: str,
        font_size: float,
        color: Color,
        bold: bool = False,
    ) -> None:
        """Draw text with the 5x7 bitmap font scaled to ``font_size``."""
        scale = max(1, int(round(font_size / 8.0)))
        glyph_height = fonts.GLYPH_ROWS * scale
        baseline_y = int(round(y + (fonts.line_height(font_size) - glyph_height) / 2))
        cursor = x
        for char in text:
            advance = fonts.char_width(char, font_size, bold)
            if char != " ":
                self._draw_glyph(
                    int(round(cursor)), baseline_y, char, scale, color, bold
                )
            cursor += advance

    def fill_gradient(self, rect: Rect, base: Color, spread: int = 55) -> None:
        """Vertical gradient fill — how ``background: url(...) repeat-x``
        chrome actually paints (lighter top, darker bottom)."""
        x, y, w, h = rect.rounded()
        x0, y0, x1, y1 = self._clip(x, y, w, h)
        if x1 <= x0 or y1 <= y0:
            return
        rows = y1 - y0
        # Per-row brightness ramp from +spread/2 to -spread/2.
        ramp = np.linspace(spread / 2.0, -spread / 2.0, rows)
        base_arr = np.array(base, dtype=np.float32)
        block = np.clip(
            base_arr[None, :] + ramp[:, None], 0, 255
        ).astype(np.uint8)
        self.pixels[y0:y1, x0:x1] = block[:, None, :]

    def draw_photo_placeholder(self, rect: Rect, seed: int = 0) -> None:
        """Continuous-tone stand-in for a real image: smooth 2D noise.

        Rendered pages spend most of their entropy in photographs and
        anti-aliased imagery; a deterministic low-frequency noise field
        gives the encoders honestly incompressible content to chew on.
        """
        x, y, w, h = rect.rounded()
        x0, y0, x1, y1 = self._clip(x, y, w, h)
        if x1 <= x0 or y1 <= y0:
            return
        height = y1 - y0
        width = x1 - x0
        rng = np.random.default_rng(seed & 0xFFFFFFFF or 0xA11CE)
        # Low-res noise grid upsampled: smooth patches like a photo.
        grid_h = max(2, height // 6 + 1)
        grid_w = max(2, width // 6 + 1)
        grid = rng.integers(40, 216, size=(grid_h, grid_w, 3))
        rows = (np.arange(height) * (grid_h - 1) / max(1, height - 1))
        cols = (np.arange(width) * (grid_w - 1) / max(1, width - 1))
        row_lo = rows.astype(int)
        col_lo = cols.astype(int)
        row_frac = (rows - row_lo)[:, None, None]
        col_frac = (cols - col_lo)[None, :, None]
        row_hi = np.minimum(row_lo + 1, grid_h - 1)
        col_hi = np.minimum(col_lo + 1, grid_w - 1)
        top = (
            grid[row_lo][:, col_lo] * (1 - col_frac)
            + grid[row_lo][:, col_hi] * col_frac
        )
        bottom = (
            grid[row_hi][:, col_lo] * (1 - col_frac)
            + grid[row_hi][:, col_hi] * col_frac
        )
        patch = top * (1 - row_frac) + bottom * row_frac
        # Fine grain on top, like sensor noise / dithering.
        patch = patch + rng.normal(0, 3, size=patch.shape)
        self.pixels[y0:y1, x0:x1] = np.clip(patch, 0, 255).astype(np.uint8)
        self.stroke_rect(rect, (120, 120, 130))

    def _draw_glyph(
        self, x: int, y: int, char: str, scale: int, color: Color, bold: bool
    ) -> None:
        bitmap = fonts.glyph_bitmap(char)
        thickness = scale + (1 if bold else 0)
        for row_index, row_bits in enumerate(bitmap):
            for col_index in range(fonts.GLYPH_COLUMNS):
                if row_bits & (1 << (fonts.GLYPH_COLUMNS - 1 - col_index)):
                    px = x + col_index * scale
                    py = y + row_index * scale
                    x0, y0, x1, y1 = self._clip(px, py, thickness, scale)
                    if x1 > x0 and y1 > y0:
                        self.pixels[y0:y1, x0:x1] = color


@dataclass(order=True)
class _Candidate:
    important: bool
    origin: int  # 0 = UA, 1 = author, 2 = inline style
    spec: tuple[int, int, int]
    order: int
    declaration: Declaration = field(compare=False)


class ReferenceStyleResolver:
    """The linear-scan cascade: every rule tried against every element."""

    def __init__(self, stylesheets: Optional[list[Stylesheet]] = None) -> None:
        self._ua_sheet = parse_stylesheet(UA_SHEET)
        self.stylesheets = stylesheets or []
        self._cache: dict[int, ComputedStyle] = {}

    def add_stylesheet(self, sheet: Stylesheet) -> None:
        self.stylesheets.append(sheet)
        self._cache.clear()

    def computed_style(self, element: Element) -> ComputedStyle:
        """Compute the final style for ``element`` (memoized per element)."""
        cached = self._cache.get(id(element))
        if cached is not None:
            return cached
        candidates: list[_Candidate] = []
        order = 0
        for origin, sheet in self._sheets():
            for rule in sheet.rules:
                if rule.selectors is None:
                    continue
                matched = None
                for alternative in rule.selectors.alternatives:
                    if alternative.matches(element):
                        spec = specificity(alternative)
                        if matched is None or spec > matched:
                            matched = spec
                if matched is None:
                    continue
                for decl in rule.declarations:
                    candidates.append(
                        _Candidate(decl.important, origin, matched, order, decl)
                    )
                    order += 1
        inline = element.get("style")
        if inline:
            for decl in parse_declarations(inline):
                candidates.append(
                    _Candidate(decl.important, 2, (1, 0, 0), order, decl)
                )
                order += 1
        candidates.sort()
        winning: dict[str, str] = {}
        for candidate in candidates:  # later (higher-precedence) overwrite
            winning[_expand_name(candidate.declaration.name)] = (
                candidate.declaration.value
            )
            for name, value in _expand_shorthand(candidate.declaration):
                winning[name] = value
        style = self._apply_inheritance(element, winning)
        self._cache[id(element)] = style
        return style

    def _sheets(self):
        yield 0, self._ua_sheet
        for sheet in self.stylesheets:
            yield 1, sheet

    def _apply_inheritance(
        self, element: Element, winning: dict[str, str]
    ) -> ComputedStyle:
        properties = dict(winning)
        parent = element.parent
        if isinstance(parent, Element):
            parent_style = self.computed_style(parent)
            for name in INHERITED_PROPERTIES:
                if name not in properties and name in parent_style.properties:
                    properties[name] = parent_style.properties[name]
                elif properties.get(name) == "inherit":
                    properties[name] = parent_style.properties.get(name, "")
        if "display" not in properties:
            properties["display"] = "inline"
        return ComputedStyle(properties)
