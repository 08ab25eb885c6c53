"""Numpy rasterizer: paints display lists into RGB pixel buffers."""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache

import numpy as np

from repro.render import fonts
from repro.render.box import Rect
from repro.render.image import _band_rows, _fill

Color = tuple[int, int, int]

# One RGB pixel as a single 3-byte item.  A masked write through a view of
# this dtype copies one item per lit pixel instead of broadcasting a
# colour three bytes at a time.
_PIXEL = np.dtype((np.void, 3))

_GRADIENT_STRIP = 64  # columns per copy in ``fill_gradient``

_NOISE_MEMO_BYTES = 4 << 20  # placeholder noise fields kept for reuse


def _glyph_width(scale: int, bold: bool) -> int:
    return fonts.GLYPH_COLUMNS * scale + (1 if bold else 0)


@lru_cache(maxsize=512)
def _glyph_cells(
    bitmap: tuple[int, ...], scale: int, bold: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of one glyph's lit pixels: each
    lit cell of the 5x7 bitmap covers ``scale`` rows and ``scale``
    columns, one more column when bold (so a bold glyph is one column
    wider)."""
    thickness = scale + (1 if bold else 0)
    mask = np.zeros(
        (fonts.GLYPH_ROWS * scale, _glyph_width(scale, bold)), dtype=bool
    )
    for row_index, row_bits in enumerate(bitmap):
        for col_index in range(fonts.GLYPH_COLUMNS):
            if row_bits & (1 << (fonts.GLYPH_COLUMNS - 1 - col_index)):
                mask[
                    row_index * scale : (row_index + 1) * scale,
                    col_index * scale : col_index * scale + thickness,
                ] = True
    cells = np.nonzero(mask)
    for index in cells:
        index.flags.writeable = False
    return cells


class Canvas:
    """A mutable RGB raster surface."""

    def __init__(self, width: int, height: int, background: Color = (255, 255, 255)):
        if width < 1 or height < 1:
            raise ValueError("canvas must be at least 1x1")
        self.width = width
        self.height = height
        self.pixels = np.empty((height, width, 3), dtype=np.uint8)
        _fill(self.pixels, background)

    # ------------------------------------------------------------------

    def _clip(self, x: int, y: int, w: int, h: int) -> tuple[int, int, int, int]:
        x0 = max(0, x)
        y0 = max(0, y)
        x1 = min(self.width, x + w)
        y1 = min(self.height, y + h)
        return x0, y0, x1, y1

    def _fill_box(self, x: int, y: int, w: int, h: int, color: Color) -> None:
        x0, y0, x1, y1 = self._clip(x, y, w, h)
        if x1 > x0 and y1 > y0:
            _fill(self.pixels[y0:y1, x0:x1], color)

    def fill_rect(self, rect: Rect, color: Color) -> None:
        self._fill_box(*rect.rounded(), color)

    def stroke_rect(self, rect: Rect, color: Color, width: int = 1) -> None:
        x, y, w, h = rect.rounded()
        for offset in range(width):
            self._fill_box(x, y + offset, w, 1, color)
            self._fill_box(x, y + h - 1 - offset, w, 1, color)
            self._fill_box(x + offset, y, 1, h, color)
            self._fill_box(x + w - 1 - offset, y, 1, h, color)

    def draw_text(
        self,
        x: float,
        y: float,
        text: str,
        font_size: float,
        color: Color,
        bold: bool = False,
    ) -> None:
        """Draw text with the 5x7 bitmap font scaled to ``font_size``.

        The run is stamped, not its glyphs: the lit cells of every glyph
        are set in one boolean mask over the run, and the canvas takes
        one masked write of the part inside it.  Glyphs of a run share a
        colour, so where two overlap the mask paints what two writes
        would.  A glyph wholly left or right of the canvas is skipped, so
        the mask is never much wider than the canvas, however long the
        run.
        """
        scale = max(1, int(round(font_size / 8.0)))
        glyph_height = fonts.GLYPH_ROWS * scale
        glyph_width = _glyph_width(scale, bold)
        top = int(round(y + (fonts.line_height(font_size) - glyph_height) / 2))
        y0, y1 = max(0, top), min(self.height, top + glyph_height)
        if y1 <= y0:
            return
        lefts, rows, cols = [], [], []
        cursor = x
        for char in text:
            left = int(round(cursor))
            if char != " " and -glyph_width < left < self.width:
                glyph_rows, glyph_cols = _glyph_cells(
                    fonts.glyph_bitmap(char), scale, bold
                )
                lefts.append(left)
                rows.append(glyph_rows)
                cols.append(glyph_cols)
            cursor += fonts.char_width(char, font_size, bold)
        if not lefts:
            return
        first, last = min(lefts), max(lefts)
        x0, x1 = max(0, first), min(self.width, last + glyph_width)
        run = np.zeros((glyph_height, last + glyph_width - first), dtype=bool)
        shifts = np.repeat(np.subtract(lefts, first), [len(c) for c in cols])
        run[np.concatenate(rows), np.concatenate(cols) + shifts] = True
        ink = np.array(color, dtype=np.uint8).view(_PIXEL)[0]
        visible = run[y0 - top : y1 - top, x0 - first : x1 - first]
        self.pixels.view(_PIXEL)[y0:y1, x0:x1, 0][visible] = ink

    def fill_gradient(self, rect: Rect, base: Color, spread: int = 55) -> None:
        """Vertical gradient fill — how ``background: url(...) repeat-x``
        chrome actually paints (lighter top, darker bottom).  The ramp
        spans the whole box, so rows the canvas edge cuts off take their
        share of it with them; only the rows the canvas shows are
        computed, however tall the box.

        Each row's colour is repeated into a strip of ``_GRADIENT_STRIP``
        columns, and the strip is copied across the region: a copy of
        whole strip rows, where assigning the column of colours would
        broadcast it three bytes at a step.
        """
        x, y, w, h = rect.rounded()
        x0, y0, x1, y1 = self._clip(x, y, w, h)
        if x1 <= x0 or y1 <= y0:
            return
        # Per-row brightness ramp from +spread/2 to -spread/2: the visible
        # rows of ``np.linspace(start, stop, h)``, in its arithmetic.
        start, stop = spread / 2.0, -spread / 2.0
        ramp = np.arange(y0 - y, y1 - y, dtype=np.float64)
        ramp *= (stop - start) / max(h - 1, 1)
        ramp += start
        if h > 1 and y1 - y == h:
            ramp[-1] = stop
        base_arr = np.array(base, dtype=np.float32)
        block = np.clip(
            base_arr[None, :] + ramp[:, None], 0, 255
        ).astype(np.uint8)
        region = self.pixels[y0:y1, x0:x1]
        width = x1 - x0
        strip = np.repeat(block[:, None, :], min(width, _GRADIENT_STRIP), axis=1)
        for left in range(0, width, _GRADIENT_STRIP):
            region[:, left : left + _GRADIENT_STRIP] = strip[:, : width - left]

    def draw_photo_placeholder(self, rect: Rect, seed: int = 0) -> None:
        """Continuous-tone stand-in for a real image: smooth 2D noise.

        Rendered pages spend most of their entropy in photographs and
        anti-aliased imagery; a deterministic low-frequency noise field
        gives the encoders honestly incompressible content to chew on.
        The field depends only on the visible size and the seed, and is
        drawn once per (size, seed) while it stays in ``_NOISE_PATCHES``.
        """
        x, y, w, h = rect.rounded()
        x0, y0, x1, y1 = self._clip(x, y, w, h)
        if x1 <= x0 or y1 <= y0:
            return
        self.pixels[y0:y1, x0:x1] = _NOISE_PATCHES.get(y1 - y0, x1 - x0, seed)
        self.stroke_rect(rect, (120, 120, 130))


def _noise_patch(height: int, width: int, seed: int) -> np.ndarray:
    """The placeholder's ``(height, width, 3)`` noise field, drawn a band
    of rows at a time.  The normal draws of successive bands continue one
    stream, so the bytes are those of one draw over the whole field."""
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
    patch = np.empty((height, width, 3), dtype=np.uint8)
    band = _band_rows(width * 3 * 8)
    for top in range(0, height, band):
        span = slice(top, top + band)
        # The grid rows this band reads, interpolated across once each.
        first, last = row_lo[span][0], row_hi[span][-1] + 1
        across = (
            grid[first:last, col_lo] * (1 - col_frac)
            + grid[first:last, col_hi] * col_frac
        )
        field = (
            across[row_lo[span] - first] * (1 - row_frac[span])
            + across[row_hi[span] - first] * row_frac[span]
        )
        # Fine grain on top, like sensor noise / dithering.
        field += rng.normal(0, 3, size=field.shape)
        np.clip(field, 0, 255, out=field)
        np.copyto(patch[span], field, casting="unsafe")
    return patch


class _PatchMemo:
    """Noise patches by ``(height, width, seed)``, read-only and shared,
    holding at most ``budget`` bytes; the least recently used go first,
    and a patch larger than the budget is drawn every time."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self._patches: OrderedDict[tuple[int, int, int], np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, height: int, width: int, seed: int) -> np.ndarray:
        key = (height, width, seed)
        with self._lock:
            patch = self._patches.get(key)
            if patch is not None:
                self._patches.move_to_end(key)
                return patch
        patch = _noise_patch(height, width, seed)
        patch.flags.writeable = False
        if patch.nbytes <= self.budget:
            with self._lock:
                if key not in self._patches:
                    self._patches[key] = patch
                    self._bytes += patch.nbytes
                while self._bytes > self.budget:
                    _, dropped = self._patches.popitem(last=False)
                    self._bytes -= dropped.nbytes
        return patch

    def clear(self) -> None:
        """Forget every patch, as in a process that has drawn none yet."""
        with self._lock:
            self._patches.clear()
            self._bytes = 0


_NOISE_PATCHES = _PatchMemo(budget=_NOISE_MEMO_BYTES)
