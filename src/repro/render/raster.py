"""Numpy rasterizer: paints display lists into RGB pixel buffers.

Fills, strokes and placeholders are written as they come.  Text is
stamped a batch of runs at a time (``Canvas.draw_runs``): per glyph, one
read of a shared table of its lit pixels' flat offsets and one append of
where it goes; per batch, one gather of those offsets and one indexed
store for each stretch of consecutive runs that share a colour.  The
tables are ``SharedMemo``s, as the placeholders' noise fields are: the
glyph offsets per (scale, weight, canvas width) here, and the advance
widths per (font size, weight) that layout measures with in
``fonts``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from repro.render import fonts
from repro.render.box import Rect, TextRun
from repro.render.image import _BAND_BYTES, _band_rows, _fill
from repro.render.memo import SharedMemo

Color = tuple[int, int, int]

# One RGB pixel as a single 3-byte item.  A store through a view of this
# dtype copies one item per lit pixel instead of broadcasting a colour
# three bytes at a time.
_PIXEL = np.dtype((np.void, 3))
_OFFSET = np.dtype(np.intp)

_GRADIENT_STRIP = 64  # columns per copy in ``fill_gradient``

_NOISE_MEMO_BYTES = 4 << 20  # placeholder noise fields kept for reuse
_GLYPH_MEMO_BYTES = 4 << 20  # glyph offset tables kept for reuse

# Every distinct 5x7 bitmap, by the printable ASCII characters (which
# reach every bitmap in the font, the fallback box included); any other
# character draws one of these too.
_BITMAP_INDEX = {
    bitmap: index
    for index, bitmap in enumerate(
        dict.fromkeys(fonts.glyph_bitmap(chr(code)) for code in range(32, 127))
    )
}
_BITS = np.array(
    [
        [
            [
                row_bits >> (fonts.GLYPH_COLUMNS - 1 - col) & 1
                for col in range(fonts.GLYPH_COLUMNS)
            ]
            for row_bits in bitmap
        ]
        for bitmap in _BITMAP_INDEX
    ],
    dtype=bool,
)


def _glyph_index(char: str) -> int:
    return _BITMAP_INDEX[fonts.glyph_bitmap(char)]


def _glyph_width(scale: int, bold: bool) -> int:
    return fonts.GLYPH_COLUMNS * scale + (1 if bold else 0)


class _GlyphTable(dict):
    """The flat offsets of each glyph's lit pixels from its top-left
    pixel, on a canvas ``width`` pixels wide, by character (a character
    outside printable ASCII reads its bitmap's entry), and every glyph's
    mask (``masks[_glyph_index(char)]``) for glyphs the canvas cuts."""

    __slots__ = ("by_glyph", "masks", "nbytes")

    def __missing__(self, char: str) -> np.ndarray:
        return self.by_glyph[_glyph_index(char)]


def _glyph_table(scale: int, bold: bool, width: int) -> _GlyphTable:
    """Each lit cell of the 5x7 bitmap covers ``scale`` rows and
    ``scale`` columns, one more column when bold (so a bold glyph is one
    column wider)."""
    cells = _BITS.repeat(scale, axis=1).repeat(scale, axis=2)
    masks = np.pad(cells, ((0, 0), (0, 0), (0, 1 if bold else 0)))
    if bold:
        masks[:, :, 1:] |= cells
    rows, cols = np.indices(masks.shape[1:], dtype=_OFFSET)
    offsets = np.broadcast_to(rows * width + cols, masks.shape)[masks]
    offsets.flags.writeable = False
    masks.flags.writeable = False
    by_glyph = np.split(offsets, np.cumsum(masks.sum(axis=(1, 2)))[:-1])
    table = _GlyphTable(
        (chr(code), by_glyph[_glyph_index(chr(code))]) for code in range(32, 127)
    )
    table.by_glyph = by_glyph
    table.masks = masks
    table.nbytes = offsets.nbytes + masks.nbytes
    return table


_GLYPH_TABLES: SharedMemo[_GlyphTable] = SharedMemo(_glyph_table, _GLYPH_MEMO_BYTES)


class _Face(NamedTuple):
    """What stamping a run needs of its font size and weight."""

    scale: int
    glyph_height: int
    glyph_width: int
    lead: float  # from the line's top to the glyph's
    glyphs: Optional[_GlyphTable]  # None: a glyph too large to table
    advances: Mapping[str, float]


def _face(font_size: float, bold: bool, width: int) -> _Face:
    scale = max(1, int(round(font_size / 8.0)))
    glyph_height = fonts.GLYPH_ROWS * scale
    glyph_width = _glyph_width(scale, bold)
    glyphs = None
    if glyph_height * glyph_width * _OFFSET.itemsize <= _BAND_BYTES:
        glyphs = _GLYPH_TABLES.get(scale, bold, width)
    return _Face(
        scale,
        glyph_height,
        glyph_width,
        (fonts.line_height(font_size) - glyph_height) / 2,
        glyphs,
        fonts.advance_table(font_size, bold),
    )


class Canvas:
    """A mutable RGB raster surface.

    Until something is painted on it, a fill of its background colour is
    skipped: the frame is that colour already.  Writes made straight to
    ``pixels`` are not seen, so paint through the methods.
    """

    def __init__(self, width: int, height: int, background: Color = (255, 255, 255)):
        if width < 1 or height < 1:
            raise ValueError("canvas must be at least 1x1")
        self.width = width
        self.height = height
        self.pixels = np.empty((height, width, 3), dtype=np.uint8)
        _fill(self.pixels, background)
        self._blank: Color | None = tuple(background)

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
        if self._blank is not None:
            if tuple(color) == self._blank:
                return
            self._blank = None
        self._fill_box(*rect.rounded(), color)

    def stroke_rect(self, rect: Rect, color: Color, width: int = 1) -> None:
        self._blank = None
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
        """Draw one run of text: a batch of one for ``draw_runs``."""
        self.draw_runs([TextRun(text, Rect(x, y, 0, 0), font_size, bold, color)])

    def draw_runs(self, runs: Iterable[TextRun]) -> None:
        """Stamp text runs, in order, with the 5x7 bitmap font scaled to
        each run's font size.

        Each glyph is one read of its lit pixels' offsets from the glyph
        table and one append of the flat offset of its top-left pixel;
        the batch then gathers them into one array and makes one indexed
        store per stretch of consecutive runs that share a colour, in run
        order.  Pixels two glyphs of one stretch both cover take its one
        colour either way, and where runs of different colours overlap the
        later run's store comes later, so the bytes are those of painting
        glyph by glyph.  A glyph the canvas cuts has its mask clipped to
        the canvas; one wholly left or right of it is skipped, so the
        arrays are bounded by the canvas width, however long the run.  A
        glyph whose offsets would pass ``_BAND_BYTES`` is never tabled: it
        is filled as its lit cells, one rectangle each, after the stores
        of the runs before it.
        """
        self._blank = None
        width, height = self.width, self.height
        bases: list[int] = []  # per glyph: where its top-left pixel goes
        cells: list[np.ndarray] = []  # per glyph: its offsets from there
        stretches: list[tuple[Color, int]] = []  # (colour, glyphs by its end)
        add_base, add_cells = bases.append, cells.append
        faces: dict[tuple[float, bool], _Face] = {}
        for run in runs:
            bold = run.bold
            face = faces.get((run.font_size, bold))
            if face is None:
                face = faces[run.font_size, bold] = _face(run.font_size, bold, width)
            scale, glyph_height, glyph_width, lead, glyphs, advances = face
            top = int(round(run.rect.y + lead))
            if top >= height or top + glyph_height <= 0:
                continue
            # A glyph placed no further right than this is whole inside
            # the canvas, if the canvas shows all its rows.
            last_left = width - glyph_width
            if glyphs is None or top < 0 or top + glyph_height > height:
                last_left = -1
            row_base = top * width
            cut: list[tuple[str, int]] = []
            stamped = len(bases)
            cursor = float(run.rect.x)
            for char in run.text:
                if char != " ":
                    left = round(cursor)
                    if 0 <= left <= last_left:
                        add_base(row_base + left)
                        add_cells(glyphs[char])
                    elif -glyph_width < left < width:
                        cut.append((char, left))
                cursor += advances[char]
            if glyphs is None:
                if cut:
                    self._store(bases, cells, stretches)
                    for pending in (bases, cells, stretches):
                        pending.clear()
                for char, left in cut:
                    self._fill_cells(char, left, top, scale, bold, run.color)
                continue
            y0, y1 = max(0, top), min(height, top + glyph_height)
            for char, left in cut:
                mask = glyphs.masks[_glyph_index(char)]
                x0, x1 = max(0, left), min(width, left + glyph_width)
                shown = mask[y0 - top : y1 - top, x0 - left : x1 - left]
                rows, cols = np.nonzero(shown)
                add_base(y0 * width + x0)
                add_cells(rows * width + cols)
            if len(bases) > stamped:
                if stretches and stretches[-1][0] == run.color:
                    stretches.pop()
                stretches.append((run.color, len(bases)))
        self._store(bases, cells, stretches)

    def _store(
        self,
        bases: list[int],
        cells: list[np.ndarray],
        stretches: list[tuple[Color, int]],
    ) -> None:
        """Write a batch's glyphs: one indexed store per stretch."""
        if not stretches:
            return
        sizes = np.fromiter(map(len, cells), dtype=_OFFSET, count=len(cells))
        offsets = np.concatenate(cells)
        offsets += np.repeat(np.array(bases, dtype=_OFFSET), sizes)
        ends = np.cumsum(sizes)
        frame = self.pixels.view(_PIXEL).reshape(-1)
        inks: dict[Color, np.void] = {}
        start = 0
        for color, glyphs in stretches:
            ink = inks.get(color)
            if ink is None:
                ink = inks[color] = np.array(color, dtype=np.uint8).view(_PIXEL)[0]
            stop = ends[glyphs - 1]
            frame[offsets[start:stop]] = ink
            start = stop

    def _fill_cells(
        self, char: str, left: int, top: int, scale: int, bold: bool, color: Color
    ) -> None:
        """Fill one glyph's lit cells, one rectangle each."""
        thickness = scale + (1 if bold else 0)
        for row, row_bits in enumerate(_BITS[_glyph_index(char)]):
            for col in np.flatnonzero(row_bits):
                self._fill_box(
                    left + int(col) * scale, top + row * scale, thickness, scale, color
                )

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
        self._blank = None
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
        self._blank = None
        x, y, w, h = rect.rounded()
        x0, y0, x1, y1 = self._clip(x, y, w, h)
        if x1 <= x0 or y1 <= y0:
            return
        self.pixels[y0:y1, x0:x1] = _NOISE_PATCHES.get(y1 - y0, x1 - x0, seed)
        self.stroke_rect(rect, (120, 120, 130))


def _noise_patch(height: int, width: int, seed: int) -> np.ndarray:
    """The placeholder's read-only ``(height, width, 3)`` noise field,
    drawn a band of rows at a time.  The normal draws of successive bands
    continue one stream, so the bytes are those of one draw over the
    whole field."""
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
    patch.flags.writeable = False
    return patch


_NOISE_PATCHES: SharedMemo[np.ndarray] = SharedMemo(_noise_patch, _NOISE_MEMO_BYTES)
