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
``resized`` takes exact box sums in ``uint32``.  Float versions of both
cost 16-17x the frame in memory, and a float32 running sum over a
page-sized frame loses the low bits the box average is made of.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

_PNG_OVERHEAD = 57  # signature + IHDR + IEND + chunk headers
_JPEG_OVERHEAD = 623  # JFIF headers + quantization/huffman tables

_M_MMAP_THRESHOLD = -3  # <malloc.h>
_FRAME_BLOCK_BYTES = 1 << 20


def _return_frames_to_os() -> None:
    """Pin glibc's mmap threshold so a dropped frame goes back to the OS.

    A page-sized frame is 16 MB (32 MB while ``smoothed`` sums it).  Left
    alone, glibc raises its mmap threshold to the size of the first such
    block freed and its trim threshold to twice that (up to 64 MiB — a
    whole arena heap), after which every frame is carved from, and then
    stranded in, the malloc arena of whichever thread rendered it: 62 MiB
    of resident memory per arena that ever hosted a render, and which
    arena a worker thread gets is a race between the last pool's threads
    exiting and the next pool's starting.  The same process read 175 or
    236 MB at exit from one run to the next.  With the threshold fixed,
    any block of a megabyte or more (a frame, a frame-sized temporary, a
    band of one) is its own mapping and is unmapped when freed; smaller
    blocks are untouched.  Elsewhere than glibc this does nothing.
    """
    try:
        import ctypes

        ctypes.CDLL(None).mallopt(_M_MMAP_THRESHOLD, _FRAME_BLOCK_BYTES)
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
        areas = ((r2 - r1)[:, None] * (c2 - c1)[None, :])[:, :, None]
        # Exact integer box sums: a float32 running sum over a full page
        # rounds to +-64 by the bottom-right corner, which is noise in
        # every overview image.
        dtype = np.uint32 if int(areas.max()) * 255 < 2**32 else np.uint64
        sums = _box_sums(_box_sums(self.pixels, r1, r2, 0, dtype), c1, c2, 1, dtype)
        return RasterImage((sums // areas.astype(dtype)).astype(np.uint8))

    def smoothed(self) -> "RasterImage":
        """Light 3x3 blur approximating the anti-aliasing a real text
        rasterizer produces.  Applied once per snapshot so encoded sizes
        match what a WebKit render would yield (crisp bitmap glyphs are
        an artifact of our raster font, not of real pages).

        Each pixel is ``(4*p + up + down + left + right) // norm`` with
        norm 8 less one per neighbour that falls off the frame.  The sum
        is an integer of at most 2,040, so integer floor division gives
        the bytes a float divide-then-truncate would, and only the four
        edge rows and columns have a norm that is not a shift.
        """
        pixels = self.pixels
        height, width = pixels.shape[:2]
        total = np.multiply(pixels, 4, dtype=np.uint16)
        total[1:] += pixels[:-1]
        total[:-1] += pixels[1:]
        total[:, 1:] += pixels[:, :-1]
        total[:, :-1] += pixels[:, 1:]
        # Neighbours that fall off the frame, per row and per column.
        rows_off = np.zeros((height, 1), dtype=np.uint16)
        rows_off[0] += 1
        rows_off[-1] += 1
        cols_off = np.zeros((width, 1), dtype=np.uint16)
        cols_off[0] += 1
        cols_off[-1] += 1
        top = total[0] // (8 - rows_off[0] - cols_off)
        bottom = total[-1] // (8 - rows_off[-1] - cols_off)
        left = total[:, 0] // (8 - rows_off - cols_off[0])
        right = total[:, -1] // (8 - rows_off - cols_off[-1])
        total >>= 3
        total[0], total[-1] = top, bottom
        total[:, 0], total[:, -1] = left, right
        return RasterImage(total.astype(np.uint8))

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


def _box_sums(
    values: np.ndarray, starts: np.ndarray, stops: np.ndarray, axis: int, dtype
) -> np.ndarray:
    """Sum ``values[starts[i]:stops[i]]`` along ``axis`` for every ``i``.

    One gather per offset into the boxes: pass ``k`` adds element
    ``starts + k`` of every box still longer than ``k``, so the cost is
    the longest box in passes and the result is exact in ``dtype``.
    """
    values = np.swapaxes(values, 0, axis)
    sizes = stops - starts
    sums = np.zeros((len(starts),) + values.shape[1:], dtype=dtype)
    for offset in range(int(sizes.max())):
        live = sizes > offset
        if live.all():
            sums += values[starts + offset]
        else:
            sums[live] += values[starts[live] + offset]
    return np.swapaxes(sums, 0, axis)


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


def reencode_for_mobile(
    image: RasterImage, quality: int = 40, scale: float = 1.0
) -> EncodedImage:
    """The image-fidelity post-processor: optional scale, then lossy encode."""
    target = image if scale == 1.0 else image.scaled(scale)
    return encode_jpeg(target, quality=quality)
