"""Machine-independent guards on what one browser render costs.

Counts that repeat exactly, not timings: how many selector matches the
cascade runs and how many array writes the glyph painter makes for the
forum index, and how much memory the anti-alias and the downscale
allocate beside the frame they read.  The linear-scan cascade ran
275,800 matches on this page and the per-cell glyph loop ~15 writes per
glyph; the float anti-alias peaked at ~16x the frame and the float
integral image at ~20x.
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
from repro.render import snapshot as snapshot_module
from repro.render.image import RasterImage
from repro.render.raster import Canvas
from repro.render.snapshot import render_snapshot
from tests.conftest import FORUM_HOST
from tests.render.test_render_differential import fetch_page

MAX_SELECTOR_MATCHES = 20_000


def test_forum_render_stays_inside_its_match_and_write_budget(
    forum_app, monkeypatch
):
    counts = Counter()

    class CountingPixels(np.ndarray):
        """Counts writes to the array and to every view of it (a view of
        a subclass instance is an instance of the subclass)."""

        def __setitem__(self, key, value):
            counts["writes"] += 1
            super().__setitem__(key, value)

    class CountingCanvas(Canvas):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.pixels = self.pixels.view(CountingPixels)

        def _draw_glyph(self, *args):
            before = counts["writes"]
            super()._draw_glyph(*args)
            counts["glyphs"] += 1
            counts["most_writes_per_glyph"] = max(
                counts["most_writes_per_glyph"], counts["writes"] - before
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
    assert counts["most_writes_per_glyph"] == 1
    # The counting view must not leak into the snapshot's image.
    assert type(snapshot.image.pixels) is np.ndarray


@pytest.mark.parametrize(
    "transform",
    [lambda image: image.smoothed(), lambda image: image.scaled(0.28)],
    ids=["smoothed", "scaled"],
)
def test_transform_peak_memory_is_a_small_multiple_of_the_frame(transform):
    rng = np.random.default_rng(18)
    frame = rng.integers(0, 256, size=(2048, 1024, 3), dtype=np.uint8)
    image = RasterImage(frame)
    tracemalloc.start()
    try:
        transform(image)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * frame.nbytes


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
