"""Machine-independent guards on what one browser render costs.

Counts that repeat exactly, not timings: how many selector matches the
cascade runs and how many array writes the painter makes for the forum
index, how much memory the anti-alias, the downscale, the JPEG encoder
and the photo placeholder allocate beside what they read and return,
and how much the placeholder memo keeps.  The linear-scan cascade ran
275,800 matches on this page; the per-cell glyph loop made ~15 writes
per glyph and the glyph-mask blit one per glyph (11,808 for 1,115
runs); every fill, the background and every vertical stroke line
broadcast a colour tuple over its whole region; the float anti-alias
peaked at ~16x the frame and the float integral image at ~20x; the
whole-frame passes that replaced them at 3.0x (anti-alias), 2.1x
(downscale) and 15.7x (JPEG), and the whole-field placeholder at 33x
its patch.
"""

import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.dom.selectors import ComplexSelector
from repro.net.client import HttpClient
from repro.render import raster as raster_module
from repro.render import snapshot as snapshot_module
from repro.render.box import Rect
from repro.render.image import RasterImage, encode_jpeg
from repro.render.raster import Canvas
from repro.render.snapshot import render_snapshot
from tests.conftest import FORUM_HOST
from tests.render.test_render_differential import fetch_page

MAX_SELECTOR_MATCHES = 20_000


def _rows_written(array, key):
    """How many rows of ``array`` the index ``key`` writes to."""
    first = key[0] if isinstance(key, tuple) else key
    if first is Ellipsis:
        return array.shape[0]
    if isinstance(first, slice):
        return len(range(*first.indices(array.shape[0])))
    if isinstance(first, np.ndarray) and first.dtype == bool:
        return int(first.reshape(len(first), -1).any(axis=1).sum())
    if isinstance(first, np.ndarray):
        return len(np.unique(first))
    return 1


def test_forum_render_stays_inside_its_match_and_write_budget(
    forum_app, monkeypatch
):
    counts = Counter()
    writes = []  # (rows written, the value is a colour tuple) per write

    class CountingPixels(np.ndarray):
        """Records writes to the array and to every view of it (a view
        of a subclass instance is an instance of the subclass)."""

        def __setitem__(self, key, value):
            writes.append(
                (_rows_written(self, key), isinstance(value, (tuple, list)))
            )
            super().__setitem__(key, value)

    class CountingCanvas(Canvas):
        def __setattr__(self, name, value):
            # Wrapped as it is assigned, so the background fill counts.
            if name == "pixels":
                value = value.view(CountingPixels)
            super().__setattr__(name, value)

        def fill_rect(self, *args):
            before = len(writes)
            super().fill_rect(*args)
            made = writes[before:]
            counts["fills"] += 1
            counts["most_writes_per_fill"] = max(
                counts["most_writes_per_fill"], len(made)
            )
            counts["broadcast_fills"] += any(
                colour and rows > 1 for rows, colour in made
            )

        def draw_text(self, x, y, text, *args):
            before = len(writes)
            super().draw_text(x, y, text, *args)
            inked = len(text.replace(" ", ""))
            counts["glyphs"] += inked
            counts["inked_runs"] += inked > 0
            counts["text_writes"] += len(writes) - before
            counts["most_writes_per_run"] = max(
                counts["most_writes_per_run"], len(writes) - before
            )

    real_matches = ComplexSelector.matches

    def counting_matches(self, element):
        counts["matches"] += 1
        return real_matches(self, element)

    monkeypatch.setattr(ComplexSelector, "matches", counting_matches)
    monkeypatch.setattr(snapshot_module, "Canvas", CountingCanvas)
    document, external = fetch_page(
        HttpClient({FORUM_HOST: forum_app}), f"http://{FORUM_HOST}/index.php"
    )

    snapshot = render_snapshot(document, 1024, external_css=external)

    assert snapshot.stylesheet_count >= 1
    assert 0 < counts["matches"] <= MAX_SELECTOR_MATCHES
    assert counts["glyphs"] > 10_000  # the page is mostly text
    # A run is one stamp, however many glyphs it has.
    assert counts["most_writes_per_run"] == 1
    assert counts["text_writes"] <= counts["inked_runs"]
    # A fill is a row and one copy of it, and no write -- a fill's, the
    # background's, a stroke's -- broadcasts a colour tuple over a
    # region taller than one row.
    assert counts["fills"] > 200
    assert counts["most_writes_per_fill"] <= 2
    assert counts["broadcast_fills"] == 0
    assert [rows for rows, colour in writes if colour and rows > 1] == []
    # The counting view must not leak into the snapshot's image.
    assert type(snapshot.image.pixels) is np.ndarray


def _peak_bytes(call):
    """The most memory ``call()`` had allocated at once, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "transform,frames",
    [
        # The output frame, plus one band's widened rows and sums.
        (lambda image: image.smoothed(), 1.1),
        # The output (0.28**2 = 0.08 frames), plus one band's row sums.
        (lambda image: image.scaled(0.28), 0.2),
        # The compressed output and its join (0.27 frames each on this
        # noise), plus one plane's coefficient streams and one band.
        (lambda image: encode_jpeg(image), 1.0),
    ],
    ids=["smoothed", "scaled", "encode_jpeg"],
)
def test_transform_peak_memory_is_a_small_multiple_of_the_frame(
    transform, frames
):
    rng = np.random.default_rng(18)
    frame = rng.integers(0, 256, size=(2048, 1024, 3), dtype=np.uint8)
    image = RasterImage(frame)
    # The encoder imports scipy on first use; that is not the frame's.
    encode_jpeg(RasterImage.blank(8, 8))
    assert _peak_bytes(lambda: transform(image)) <= frames * frame.nbytes


def test_a_canvas_sized_placeholder_peaks_at_twice_its_patch():
    # A whole-field draw held the float64 field, its noise and the
    # bilinear terms at once: 33x the patch, ~830 MB at the 8192-row
    # canvas clamp.  The patch is larger than the memo, so it is drawn.
    canvas = Canvas(1024, 2048)
    patch_bytes = canvas.pixels.nbytes
    assert patch_bytes > raster_module._NOISE_PATCHES.budget
    peak = _peak_bytes(
        lambda: canvas.draw_photo_placeholder(Rect(0, 0, 1024, 2048), seed=5)
    )
    assert peak <= 2 * patch_bytes


def test_the_placeholder_memo_keeps_no_more_than_its_budget():
    # However many distinct placeholders a page has: here 3x the budget's
    # worth, each a different seed.
    memo = raster_module._NOISE_PATCHES
    canvas = Canvas(300, 200)
    patch_bytes = 200 * 300 * 3
    for seed in range(3 * memo.budget // patch_bytes):
        canvas.draw_photo_placeholder(Rect(0, 0, 300, 200), seed=10_000 + seed)
        kept = sum(patch.nbytes for patch in memo._patches.values())
        assert kept <= memo.budget
    # Full, not emptied: only the least recently used went.
    assert kept > memo.budget - patch_bytes


def test_a_memoised_patch_is_read_only_and_shared():
    memo = raster_module._NOISE_PATCHES
    patch = memo.get(30, 40, seed=123)
    assert memo.get(30, 40, seed=123) is patch
    assert not patch.flags.writeable
    with pytest.raises(ValueError):
        patch[0, 0] = 0
    # Painting it onto a canvas copies it: the canvas stays writeable.
    canvas = Canvas(40, 30)
    canvas.draw_photo_placeholder(Rect(0, 0, 40, 30), seed=123)
    canvas.pixels[0, 0] = 0


def test_a_cleared_memo_draws_the_same_patch_again():
    memo = raster_module._PatchMemo(budget=1 << 20)
    patch = memo.get(30, 40, seed=123)
    memo.clear()
    assert not memo._patches
    redrawn = memo.get(30, 40, seed=123)
    assert redrawn is not patch
    assert np.array_equal(redrawn, patch)


@pytest.mark.parametrize(
    "paint",
    [
        lambda canvas: canvas.fill_gradient(
            Rect(0, -(10**9) // 2, 200, 10**9), (100, 120, 150)
        ),
        lambda canvas: canvas.draw_text(
            -50_000, 4, "MiW" * 10_000, 16.0, (0, 0, 0)
        ),
    ],
    ids=["gradient-a-billion-rows-tall", "run-a-thousand-canvases-wide"],
)
def test_paint_memory_follows_the_canvas_not_the_box(paint):
    # Box heights and run widths come from the page; only the canvas is
    # clamped.  At ~200 MB (the run) or 8 GB (the gradient) a render
    # would fail or take the host's memory with it.
    canvas = Canvas(200, 40)
    assert _peak_bytes(lambda: paint(canvas)) <= 8 * canvas.pixels.nbytes


_FRAMES_IN_THREADS = """
import platform, sys, threading
import numpy as np
import repro.render.image

def resident_mb():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * 4096 / 2**20

def frames():
    # A page-sized frame and its uint16 sum, written so they are resident.
    np.ones((5317, 1024, 3), dtype=np.uint8)
    np.ones((5317, 1024, 3), dtype=np.uint16)

before = resident_mb()
for _ in range(4):
    worker = threading.Thread(target=frames)
    worker.start()
    worker.join()
print(platform.libc_ver()[0], resident_mb() - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/self/statm"
)
def test_frames_dropped_by_worker_threads_go_back_to_the_os():
    """Left to its dynamic thresholds, glibc strands the freed frames in
    the rendering thread's arena (62 MB here, as after a real render)
    and a process's resident size depends on which threads have rendered;
    see ``render.image._return_frames_to_os``."""
    source = pathlib.Path(__file__).resolve().parents[2] / "src"
    output = subprocess.run(
        [sys.executable, "-c", _FRAMES_IN_THREADS],
        env={"PYTHONPATH": str(source)},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    if output[0] != "glibc":
        pytest.skip(f"allocator is {output[0] or 'unknown'}, not glibc")
    assert float(output[1]) < 8.0
