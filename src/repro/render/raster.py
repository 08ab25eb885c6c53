"""Numpy rasterizer: paints display lists into RGB pixel buffers."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.render import fonts
from repro.render.box import Rect

Color = tuple[int, int, int]


@lru_cache(maxsize=512)
def _glyph_mask(bitmap: tuple[int, ...], scale: int, bold: bool) -> np.ndarray:
    """Read-only boolean mask of one glyph: each lit cell of the 5x7
    bitmap covers ``scale`` rows and ``scale`` columns, one more column
    when bold (so a bold mask is one column wider)."""
    thickness = scale + (1 if bold else 0)
    mask = np.zeros(
        (fonts.GLYPH_ROWS * scale, (fonts.GLYPH_COLUMNS - 1) * scale + thickness),
        dtype=bool,
    )
    for row_index, row_bits in enumerate(bitmap):
        for col_index in range(fonts.GLYPH_COLUMNS):
            if row_bits & (1 << (fonts.GLYPH_COLUMNS - 1 - col_index)):
                mask[
                    row_index * scale : (row_index + 1) * scale,
                    col_index * scale : col_index * scale + thickness,
                ] = True
    mask.flags.writeable = False
    return mask


class Canvas:
    """A mutable RGB raster surface."""

    def __init__(self, width: int, height: int, background: Color = (255, 255, 255)):
        if width < 1 or height < 1:
            raise ValueError("canvas must be at least 1x1")
        self.width = width
        self.height = height
        self.pixels = np.empty((height, width, 3), dtype=np.uint8)
        self.pixels[:, :] = background

    # ------------------------------------------------------------------

    def _clip(self, x: int, y: int, w: int, h: int) -> tuple[int, int, int, int]:
        x0 = max(0, x)
        y0 = max(0, y)
        x1 = min(self.width, x + w)
        y1 = min(self.height, y + h)
        return x0, y0, x1, y1

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

    def _draw_glyph(
        self, x: int, y: int, char: str, scale: int, color: Color, bold: bool
    ) -> None:
        mask = _glyph_mask(fonts.glyph_bitmap(char), scale, bold)
        height, width = mask.shape
        x0, y0, x1, y1 = self._clip(x, y, width, height)
        if x1 > x0 and y1 > y0:
            self.pixels[y0:y1, x0:x1][mask[y0 - y : y1 - y, x0 - x : x1 - x]] = color

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
