"""Machine-independent guards on what one browser render costs.

Counts that repeat exactly, not timings: how many selector matches the
cascade runs and how many array writes the painter makes for the forum
index, how much memory the anti-alias, the downscale, the JPEG encoder
and the photo placeholder allocate beside what they read and return,
and how much the placeholder memo and the text tables keep.  The
linear-scan cascade ran 275,800 matches on this page; the per-cell
glyph loop made ~15 writes per glyph, the glyph-mask blit one per glyph
(11,808 for 1,115 runs) and the run stamp one per run; the viewport's
white fill rewrote the white frame; every fill, the background and
every vertical stroke line
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
from repro.render import fonts
from repro.render import raster as raster_module
from repro.render import snapshot as snapshot_module
from repro.render.box import Rect
from repro.render.image import RasterImage, encode_jpeg
from repro.render.memo import SharedMemo
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


def _counting_canvas(writes):
    """A ``Canvas`` whose frame records each write to it and to every
    view of it, as (rows written, the value is a colour tuple)."""

    class CountingPixels(np.ndarray):
        # A view of a subclass instance is an instance of the subclass.
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

    return CountingCanvas


def _forum_page(forum_app):
    return fetch_page(
        HttpClient({FORUM_HOST: forum_app}), f"http://{FORUM_HOST}/index.php"
    )


def test_forum_render_stays_inside_its_match_and_write_budget(
    forum_app, monkeypatch
):
    counts = Counter()
    writes = []

    class BudgetCanvas(_counting_canvas(writes)):
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

        def draw_runs(self, runs):
            before = len(writes)
            super().draw_runs(runs)
            counts["batches"] += 1
            inked = [run for run in runs if run.text.strip(" ")]
            counts["glyphs"] += sum(len(run.text.replace(" ", "")) for run in inked)
            counts["inked_runs"] += len(inked)
            counts["stretches"] += sum(
                index == 0 or run.color != inked[index - 1].color
                for index, run in enumerate(inked)
            )
            counts["text_writes"] += len(writes) - before

    real_matches = ComplexSelector.matches

    def counting_matches(self, element):
        counts["matches"] += 1
        return real_matches(self, element)

    monkeypatch.setattr(ComplexSelector, "matches", counting_matches)
    monkeypatch.setattr(snapshot_module, "Canvas", BudgetCanvas)
    document, external = _forum_page(forum_app)

    snapshot = render_snapshot(document, 1024, external_css=external)

    assert snapshot.stylesheet_count >= 1
    assert 0 < counts["matches"] <= MAX_SELECTOR_MATCHES
    assert counts["glyphs"] > 10_000  # the page is mostly text
    # The runs between two other commands are one batch (160 for 1,115
    # inked runs), and a batch is one store per stretch of consecutive
    # runs of one colour, however many glyphs it has.
    assert 4 * counts["batches"] <= counts["inked_runs"]
    assert counts["text_writes"] <= counts["stretches"]
    # A fill is a row and one copy of it, and no write -- a fill's, the
    # background's, a stroke's -- broadcasts a colour tuple over a
    # region taller than one row.
    assert counts["fills"] > 200
    assert counts["most_writes_per_fill"] <= 2
    assert counts["broadcast_fills"] == 0
    assert [rows for rows, colour in writes if colour and rows > 1] == []
    # The counting view must not leak into the snapshot's image.
    assert type(snapshot.image.pixels) is np.ndarray


def test_the_forum_render_writes_its_frame_once_before_painting(
    forum_app, monkeypatch
):
    # The page's first command fills the viewport white; the canvas is
    # white already, so the fill writes nothing.
    writes = []
    rows_before = []
    commands = []

    class FirstPaintCanvas(_counting_canvas(writes)):
        def fill_rect(self, rect, color):
            commands.append(tuple(color))
            if tuple(color) != (255, 255, 255) and not rows_before:
                rows_before.append(sum(rows for rows, _ in writes))
            super().fill_rect(rect, color)

    monkeypatch.setattr(snapshot_module, "Canvas", FirstPaintCanvas)
    document, external = _forum_page(forum_app)
    snapshot = render_snapshot(document, 1024, external_css=external)

    assert commands[0] == (255, 255, 255)
    assert rows_before == [snapshot.page_height]


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


def _kept(memo):
    return sum(value.nbytes for value in memo._values.values())


def test_the_placeholder_memo_keeps_no_more_than_its_budget():
    # However many distinct placeholders a page has: here 3x the budget's
    # worth, each a different seed.
    memo = raster_module._NOISE_PATCHES
    canvas = Canvas(300, 200)
    patch_bytes = 200 * 300 * 3
    for seed in range(3 * memo.budget // patch_bytes):
        canvas.draw_photo_placeholder(Rect(0, 0, 300, 200), seed=10_000 + seed)
        assert _kept(memo) <= memo.budget
    # Full, not emptied: only the least recently used went.
    assert _kept(memo) > memo.budget - patch_bytes


@pytest.mark.parametrize(
    "memo,step,key",
    [
        # Every font size and weight has its own advance table...
        (fonts._ADVANCES, 0.25, lambda size, width: (size, False)),
        # ... and every glyph scale and weight, on a canvas this wide, its
        # own offsets (a font size of 8 * scale draws at ``scale``).
        (
            raster_module._GLYPH_TABLES,
            8.0,
            lambda size, width: (int(size // 8), False, width),
        ),
    ],
    ids=["advances", "glyph-offsets"],
)
def test_each_text_table_keeps_no_more_than_its_budget(memo, step, key):
    # 3x the budget's worth of tables, one per distinct font size.
    canvas = Canvas(64, 32)
    built, font_size = 0, 8.0
    while built < 3 * memo.budget:
        canvas.draw_text(0, 0, "Ab", font_size, (0, 0, 0))
        built += memo.get(*key(font_size, canvas.width)).nbytes
        assert _kept(memo) <= memo.budget
        font_size += step


def test_a_glyph_offset_array_is_read_only_and_shared():
    table = raster_module._GLYPH_TABLES.get(2, True, 1024)
    assert raster_module._GLYPH_TABLES.get(2, True, 1024) is table
    # Lowercase draws its capital; a letter outside ASCII reads the same
    # array through its bitmap.
    assert table["a"] is table["A"]
    assert table["ı"] is table["I"]
    for array in (table["A"], table.masks):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_a_memoised_patch_is_read_only_and_shared():
    memo = raster_module._NOISE_PATCHES
    patch = memo.get(30, 40, 123)
    assert memo.get(30, 40, 123) is patch
    assert not patch.flags.writeable
    with pytest.raises(ValueError):
        patch[0, 0] = 0
    # Painting it onto a canvas copies it: the canvas stays writeable.
    canvas = Canvas(40, 30)
    canvas.draw_photo_placeholder(Rect(0, 0, 40, 30), seed=123)
    canvas.pixels[0, 0] = 0


def test_a_cleared_memo_draws_the_same_patch_again():
    memo = SharedMemo(raster_module._noise_patch, budget=1 << 20)
    patch = memo.get(30, 40, 123)
    memo.clear()
    assert not memo._values
    redrawn = memo.get(30, 40, 123)
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
        lambda canvas: canvas.draw_text(0, 0, "AB", 6000.0, (0, 0, 0)),
    ],
    ids=[
        "gradient-a-billion-rows-tall",
        "run-a-thousand-canvases-wide",
        "glyphs-a-hundred-canvases-tall",
    ],
)
def test_paint_memory_follows_the_canvas_not_the_box(paint):
    # Box heights, run widths and font sizes come from the page; only the
    # canvas is clamped.  At ~200 MB (the run), 8 GB (the gradient) or
    # 425 MB (two 6,000 px glyphs, each lit pixel an index) a render would
    # fail or take the host's memory with it.
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
