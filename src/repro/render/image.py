"""Image model: raster images, encoders, and the fidelity post-processor.

The paper's image-fidelity attribute passes rendered objects through a
post-processor: "when a full page is rendered into a high-fidelity png, it
can consume upwards of 600K ... a post-processor can produce a
reduced-fidelity jpg at 25-50k" (§3.3).

Encoders here are *real* in the sense that byte counts come from actually
compressing the pixel data:

* PNG: zlib over filtered scanlines (the real PNG recipe, minus chunking
  overhead we add back as a constant) — lossless, so busy pages are large.
* JPEG: modeled as chroma-subsampled, quality-quantized data compressed
  entropy-style; quality trades bytes for a recorded distortion level.

Both produce actual byte strings, so cache sizes, transfer times and the
600 KB → 25-50 KB shape are measured rather than asserted.

The two transforms every snapshot passes through work in integers, on
purpose: ``smoothed`` sums its 3x3 kernel in ``uint16`` and
``resized`` takes exact box sums in the narrowest unsigned type the
largest box fits (``uint16`` for the 0.28 overview).  Float versions of
both cost 16-17x the frame in memory, and a float32 running sum over a
page-sized frame loses the low bits the box average is made of.

Every full-frame pass -- ``smoothed``, ``resized`` and ``encode_jpeg``'s
colour conversion and DCT -- walks the frame in bands of rows
(``_band_rows``) and writes into one output allocated up front, so its
temporaries stay below the mmap threshold pinned below: they are
recycled arena blocks, warm in cache, instead of frame-sized mappings
that are page-faulted in and unmapped on every pass.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

_PNG_OVERHEAD = 57  # signature + IHDR + IEND + chunk headers
_JPEG_OVERHEAD = 623  # JFIF headers + quantization/huffman tables

_M_TRIM_THRESHOLD = -1  # <malloc.h>
_M_MMAP_THRESHOLD = -3
_FRAME_BLOCK_BYTES = 1 << 20
# The largest temporary of a band: a quarter of the mmap threshold, so
# the few arrays a band holds at once stay below it together, and in a
# core's L2 cache.
_BAND_BYTES = _FRAME_BLOCK_BYTES // 4


def _return_frames_to_os() -> None:
    """Pin glibc's mmap threshold so a dropped frame goes back to the OS.

    A page-sized frame is 16 MB.  Left alone, glibc raises its mmap
    threshold to the size of the first such block freed and its trim
    threshold to twice that (up to 64 MiB — a whole arena heap), after
    which every frame is carved from, and then stranded in, the malloc
    arena of whichever thread rendered it: 62 MiB of resident memory per
    arena that ever hosted a render, and which arena a worker thread gets
    is a race between the last pool's threads exiting and the next pool's
    starting.  The same process read 175 or 236 MB at exit from one run
    to the next.  With the threshold fixed, any block of a megabyte or
    more (a frame, a scaled frame, an encoded image) is its own mapping
    and is unmapped when freed; smaller blocks are untouched.  The
    transforms keep their temporaries below the threshold, a band of rows
    at a time, so a mapping is made only for what a pass returns.  The
    trim threshold is pinned at the same size: glibc leaves it at 128 KiB
    once the mmap threshold is set, and would hand the top of the heap
    back to the OS after each band's temporaries are freed, only to fault
    it in again for the next band.  Elsewhere than glibc this does
    nothing.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None)
        libc.mallopt(_M_MMAP_THRESHOLD, _FRAME_BLOCK_BYTES)
        libc.mallopt(_M_TRIM_THRESHOLD, _FRAME_BLOCK_BYTES)
    except (ImportError, OSError, AttributeError):
        pass


_return_frames_to_os()


@dataclass
class EncodedImage:
    """The output of an encoder: bytes plus format metadata."""

    format: str  # 'png' or 'jpeg'
    width: int
    height: int
    data: bytes
    quality: int = 100

    @property
    def size_bytes(self) -> int:
        return len(self.data)


class RasterImage:
    """An RGB raster image with the transforms the attribute system needs."""

    def __init__(self, pixels: np.ndarray) -> None:
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ValueError("pixels must be HxWx3")
        self.pixels = np.ascontiguousarray(pixels, dtype=np.uint8)

    @classmethod
    def blank(
        cls, width: int, height: int, color: tuple[int, int, int] = (255, 255, 255)
    ) -> "RasterImage":
        pixels = np.empty((height, width, 3), dtype=np.uint8)
        _fill(pixels, color)
        return cls(pixels)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    # -- transforms ------------------------------------------------------

    def scaled(self, factor: float) -> "RasterImage":
        """Box-filter downscale (or nearest-neighbour upscale)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        new_width = max(1, int(round(self.width * factor)))
        new_height = max(1, int(round(self.height * factor)))
        return self.resized(new_width, new_height)

    def resized(self, new_width: int, new_height: int) -> "RasterImage":
        """Box-filter resampling (area averaging when downscaling).

        Averaging matters: scaled-down snapshots smooth away fine detail,
        which is exactly why the paper's scaled overview images compress
        so well and still look fine "when displaying a zoomed-out overview
        page on a small device screen" (§3.3).

        Each output sample is its box's exact integer sum over the box's
        area, truncated.  The output is filled a band of rows at a time,
        so the sums are only ever a band deep.
        """
        if new_width < 1 or new_height < 1:
            raise ValueError("target size must be at least 1x1")
        row_edges = (
            np.arange(new_height + 1) * self.height / new_height
        ).astype(int)
        col_edges = (
            np.arange(new_width + 1) * self.width / new_width
        ).astype(int)
        r1 = row_edges[:-1]
        r2 = np.maximum(row_edges[1:], r1 + 1)
        c1 = col_edges[:-1]
        c2 = np.maximum(col_edges[1:], c1 + 1)
        r2 = np.clip(r2, 1, self.height)
        c2 = np.clip(c2, 1, self.width)
        r1 = np.minimum(r1, r2 - 1)
        c1 = np.minimum(c1, c2 - 1)
        heights, widths = r2 - r1, (c2 - c1).astype(np.float64)
        # Exact integer box sums, in the narrowest type the largest box
        # fits: a float32 running sum over a full page rounds to +-64 by
        # the bottom-right corner, which is noise in every overview image.
        largest = int(heights.max()) * int(widths.max()) * 255
        dtype = next(
            kind for kind in (np.uint16, np.uint32, np.uint64)
            if largest <= np.iinfo(kind).max
        )
        out = np.empty((new_height, new_width, 3), dtype=np.uint8)
        band = _band_rows(self.width * 3 * np.dtype(dtype).itemsize)
        for top in range(0, new_height, band):
            rows = slice(top, top + band)
            sums = _box_sums(self.pixels, r1[rows], r2[rows], 0, dtype)
            sums = _box_sums(sums, c1, c2, 1, dtype)
            # The quotient is taken in float64 and truncated: every sum
            # is below 2**53, where that equals floor division.
            areas = np.multiply.outer(heights[rows], widths)
            np.divide(sums, areas[:, :, None], out=out[rows], casting="unsafe")
        return RasterImage(out)

    def smoothed(self) -> "RasterImage":
        """Light 3x3 blur approximating the anti-aliasing a real text
        rasterizer produces.  Applied once per snapshot so encoded sizes
        match what a WebKit render would yield (crisp bitmap glyphs are
        an artifact of our raster font, not of real pages).

        Each pixel is ``(4*p + up + down + left + right) // norm`` with
        norm 8 less one per neighbour that falls off the frame.  The sum
        is an integer of at most 2,040, so integer floor division gives
        the bytes a float divide-then-truncate would, and only the four
        edge rows and columns have a norm that is not a shift.  The sums
        are taken a band of rows at a time, each band reading one row
        above and below it.
        """
        pixels = self.pixels
        height, width = pixels.shape[:2]
        out = np.empty_like(pixels)
        # Neighbours that fall off the frame, per column and (below) per
        # row of the band.
        cols_off = np.zeros((width, 1), dtype=np.uint16)
        cols_off[0] += 1
        cols_off[-1] += 1
        band = min(_band_rows(width * 3 * 2), height)
        # A band and the rows just above and below it, widened once, and
        # its sums: two buffers every band reuses.
        wide = np.empty((band + 2, width, 3), dtype=np.uint16)
        sums = np.empty((band, width, 3), dtype=np.uint16)
        for top in range(0, height, band):
            stop = min(top + band, height)
            above, below = max(top - 1, 0), min(stop + 1, height)
            rows = wide[: below - above]
            np.copyto(rows, pixels[above:below])
            middle = rows[top - above : stop - above]
            total = sums[: stop - top]
            np.left_shift(middle, 2, out=total)
            total[above + 1 - top :] += rows[: stop - 1 - above]
            total[: below - 1 - top] += rows[top + 1 - above :]
            total[:, 1:] += middle[:, :-1]
            total[:, :-1] += middle[:, 1:]
            rows_off = np.zeros((stop - top, 1), dtype=np.uint16)
            rows_off[0] += top == 0
            rows_off[-1] += stop == height
            edge = out[top:stop]
            np.right_shift(total, 3, out=edge, casting="unsafe")
            if top == 0:
                np.floor_divide(
                    total[0], 8 - rows_off[0] - cols_off,
                    out=edge[0], casting="unsafe",
                )
            if stop == height:
                np.floor_divide(
                    total[-1], 8 - rows_off[-1] - cols_off,
                    out=edge[-1], casting="unsafe",
                )
            np.floor_divide(
                total[:, 0], 8 - rows_off - cols_off[0],
                out=edge[:, 0], casting="unsafe",
            )
            np.floor_divide(
                total[:, -1], 8 - rows_off - cols_off[-1],
                out=edge[:, -1], casting="unsafe",
            )
        return RasterImage(out)

    def cropped(self, x: int, y: int, width: int, height: int) -> "RasterImage":
        x0 = max(0, x)
        y0 = max(0, y)
        x1 = min(self.width, x + width)
        y1 = min(self.height, y + height)
        if x1 <= x0 or y1 <= y0:
            raise ValueError("crop region outside image")
        return RasterImage(self.pixels[y0:y1, x0:x1].copy())

    def mean_absolute_error(self, other: "RasterImage") -> float:
        if self.pixels.shape != other.pixels.shape:
            raise ValueError("images differ in shape")
        return float(
            np.abs(
                self.pixels.astype(np.int32) - other.pixels.astype(np.int32)
            ).mean()
        )


def _fill(region: np.ndarray, color: tuple[int, int, int]) -> None:
    """Paint ``region``, an ``(h, w, 3)`` view, one colour at memory-copy
    speed.  Assigned to the region directly, numpy broadcasts the colour
    three bytes at a step (~4.6 ns a pixel); here it is written into the
    first row, and the first row is copied down the rest, a whole row per
    inner run and reading no memory the destination shares (numpy would
    stage such a copy through a temporary)."""
    region[:1] = color
    region[1:] = region[:1]


def _band_rows(row_bytes: int) -> int:
    """Rows in a band whose largest temporary takes ``row_bytes`` a row:
    as many as fit in ``_BAND_BYTES``, and at least one."""
    return max(1, _BAND_BYTES // row_bytes)


def _box_sums(
    values: np.ndarray, starts: np.ndarray, stops: np.ndarray, axis: int, dtype
) -> np.ndarray:
    """Sum ``values[starts[i]:stops[i]]`` along ``axis`` for every ``i``.

    One gather per offset into the boxes: pass ``k`` adds element
    ``starts + k`` of every box still longer than ``k``, so the cost is
    the longest box in passes and the result is exact in ``dtype``.
    Every box holds at least one element.
    """
    sizes = stops - starts
    sums = np.take(values, starts, axis=axis).astype(dtype)
    for offset in range(1, int(sizes.max())):
        live = sizes > offset
        if live.all():
            sums += np.take(values, starts + offset, axis=axis)
        else:
            where = (slice(None),) * axis + (live,)
            sums[where] += np.take(values, starts[live] + offset, axis=axis)
    return sums


# ---------------------------------------------------------------------------
# encoders


def encode_png(image: RasterImage) -> EncodedImage:
    """Losslessly encode with the PNG recipe (filter + deflate)."""
    height, width = image.height, image.width
    flat = image.pixels.reshape(height, 3 * width)
    # Sub filter (type 1): a filter byte, then each sample's delta
    # against the previous pixel in the row (uint8 wraps, as PNG's
    # modulo-256 filter does) -- what real encoders pick for flat UI
    # imagery.
    scanlines = np.empty((height, 1 + 3 * width), dtype=np.uint8)
    scanlines[:, 0] = 1
    scanlines[:, 1:4] = flat[:, :3]
    np.subtract(flat[:, 3:], flat[:, :-3], out=scanlines[:, 4:])
    compressed = zlib.compress(scanlines, level=6)
    data = b"\x89PNG\r\n\x1a\n" + compressed
    return EncodedImage(
        format="png",
        width=image.width,
        height=image.height,
        data=data + b"\x00" * _PNG_OVERHEAD,
    )


# The JPEG Annex K luminance and chrominance quantization tables.
_LUMA_QUANT = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float32,
)
_CHROMA_QUANT = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.float32,
)


def _quality_scale(quality: int) -> float:
    """The Annex K quality → table scaling law (IJG)."""
    if quality < 50:
        return 5000.0 / quality / 100.0
    return (200.0 - 2.0 * quality) / 100.0


def _block_dct_quantize(
    plane: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """8x8 block DCT-II of ``plane`` (padded at its bottom and right
    edges), quantized by ``table``: each block's DC value, its count of
    nonzero AC coefficients, and their positions and values, blocks in
    row-major order.

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
    dc = quantized[:, :, 0, 0].astype(np.int16).reshape(-1)
    ac = np.clip(quantized, -127, 127).astype(np.int8)
    ac[:, :, 0, 0] = 0
    ac_blocks = ac.reshape(-1, 64)
    mask = ac_blocks != 0
    counts = np.minimum(mask.sum(axis=1), 255).astype(np.uint8)
    positions = np.nonzero(mask)[1].astype(np.uint8)
    return dc, counts, positions, ac_blocks[mask]


# RGB -> YCbCr, each plane from a float32 ``(rows, columns, 3)`` band.


def _luma(rgb: np.ndarray) -> np.ndarray:
    return 0.299 * rgb[:, :, 0] + 0.587 * rgb[:, :, 1] + 0.114 * rgb[:, :, 2]


def _chroma_blue(rgb: np.ndarray) -> np.ndarray:
    return 128 - 0.168736 * rgb[:, :, 0] - 0.331264 * rgb[:, :, 1] + 0.5 * rgb[:, :, 2]


def _chroma_red(rgb: np.ndarray) -> np.ndarray:
    return 128 + 0.5 * rgb[:, :, 0] - 0.418688 * rgb[:, :, 1] - 0.081312 * rgb[:, :, 2]


def _encode_plane(pixels: np.ndarray, convert, table: np.ndarray) -> list:
    """One plane of ``pixels`` (RGB, already sampled on the plane's grid)
    as its four streams: the DC values differentially coded across
    blocks, as the standard does, then the per-block nonzero AC counts,
    positions and values (sparse serialization stands in for zigzag
    run-length + Huffman).

    The plane is converted from RGB and transformed a band of block rows
    at a time; each block depends only on its own 8 x 8 samples.
    """
    height, width = pixels.shape[:2]
    band = 8 * max(1, _band_rows(width * 3 * 4) // 8)
    streams = [
        _block_dct_quantize(convert(pixels[top : top + band].astype(np.float32)), table)
        for top in range(0, height, band)
    ]
    dc = np.concatenate([stream[0] for stream in streams])
    dc_diff = np.empty_like(dc)
    dc_diff[0] = dc[0]
    dc_diff[1:] = dc[1:] - dc[:-1]
    return [dc_diff] + [
        stream[kind] for kind in range(1, 4) for stream in streams
    ]


def encode_jpeg(image: RasterImage, quality: int = 75) -> EncodedImage:
    """Lossy encode: 4:2:0 subsampling, 8x8 DCT, Annex K quantization,
    entropy coding.

    ``quality`` follows the familiar 1-100 scale and drives the standard
    table scaling, so byte counts respond to quality and image business
    the way the paper's post-processor did.

    RGB -> YCbCr is taken a band at a time, and the chroma planes only
    on the 4:2:0 grid (every other row and column) they keep.
    """
    if not 1 <= quality <= 100:
        raise ValueError("quality must be in [1, 100]")
    scale = _quality_scale(quality)
    luma_table = np.clip(_LUMA_QUANT * scale, 1, 255)
    chroma_table = np.clip(_CHROMA_QUANT * scale, 1, 255)
    pixels = image.pixels
    chroma_grid = pixels[::2, ::2]
    planes = (
        (pixels, _luma, luma_table),
        (chroma_grid, _chroma_blue, chroma_table),
        (chroma_grid, _chroma_red, chroma_table),
    )
    # A plane's streams are compressed as soon as they are complete.
    compressor = zlib.compressobj(level=7)
    chunks = [
        compressor.compress(stream)
        for plane in planes
        for stream in _encode_plane(*plane)
    ]
    data = b"".join([*chunks, compressor.flush(), b"\x00" * _JPEG_OVERHEAD])
    return EncodedImage(
        format="jpeg",
        width=image.width,
        height=image.height,
        data=data,
        quality=quality,
    )


def reencode_for_mobile(
    image: RasterImage, quality: int = 40, scale: float = 1.0
) -> EncodedImage:
    """The image-fidelity post-processor: optional scale, then lossy encode."""
    target = image if scale == 1.0 else image.scaled(scale)
    return encode_jpeg(target, quality=quality)
