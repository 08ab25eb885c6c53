"""Smoke test of ``tools/render_profile.py``, a few runs a page.

The tool must render the pages the golden pins hold -- the same frame
and the same JPEG, warm or with its memos emptied (``--cold``) -- and
every function it times must be reached, so its stages account for the
whole render.
"""

import collections
import importlib.util
import pathlib
import statistics
import sys

from repro.render import fonts, raster
from tests.render.test_render_differential import GOLDEN_SNAPSHOTS

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools/render_profile.py"

# SHA-256 of ``produce_snapshot`` (0.28, quality 25) of each page.
GOLDEN_JPEGS = {
    "forum index": (
        "0132c4fbf6e8830fb85413bc4bb4965d9f9428c7b4b99147dbe4991886a9f5bf",
        43_827,
    ),
    "news front": (
        "d573f5940952d302c7f727beaed099f91393b70030b7d00c3311ca16347c51d2",
        5_498,
    ),
}


def _load_tool():
    spec = importlib.util.spec_from_file_location("render_profile", TOOL)
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclass looks its own module up by name.
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules[spec.name]


def _check_digests(profile, shape, frame_digest):
    assert profile.shape == shape
    assert profile.frame_sha256 == frame_digest
    assert (profile.jpeg_sha256, profile.jpeg_bytes) == GOLDEN_JPEGS[profile.name]


def test_render_profile_renders_the_golden_pages_and_its_stages_add_up():
    tool = _load_tool()
    runs = 3
    profiles = [tool.profile_page(*page, runs=runs) for page in tool.PAGES]
    for profile, (_, shape, frame_digest) in zip(profiles, GOLDEN_SNAPSHOTS):
        _check_digests(profile, shape, frame_digest)
        assert list(profile.runs) == [*tool.STAGES, tool.WHOLE]
        assert all(len(values) == runs for values in profile.runs.values())
        assert "frame sha256  " + frame_digest in tool.format_profile(profile)
    # Every timed function is reached, over both pages (the news page
    # draws no placeholder), but for the gradient neither page paints;
    # so every stage is.
    calls = sum((profile.calls for profile in profiles), collections.Counter())
    assert set(calls) == set(tool.TIMED_NAMES) - {"Canvas.fill_gradient"}
    # The gap is what runs between the timed calls (~2% of the whole).
    # Medians of a few runs, over both pages, so one stall does not
    # count.
    stages = sum(statistics.median(profile.stage_sum()) for profile in profiles)
    whole = sum(statistics.median(profile.runs[tool.WHOLE]) for profile in profiles)
    assert abs(stages - whole) <= 0.1 * whole


def test_render_profile_with_cold_placeholders_renders_the_same_bytes():
    # Cold: the placeholder memo and both text tables emptied before
    # every render, so each render rebuilds what it draws.
    tool = _load_tool()
    memos = (raster._NOISE_PATCHES, raster._GLYPH_TABLES, fonts._ADVANCES)
    tool.forget_memos()
    assert not any(memo._values for memo in memos)
    for page, (_, shape, frame_digest) in zip(tool.PAGES, GOLDEN_SNAPSHOTS):
        profile = tool.profile_page(*page, runs=1, cold=True)
        _check_digests(profile, shape, frame_digest)
        assert profile.calls["Canvas.draw_runs"] > 0
