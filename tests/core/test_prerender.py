"""Pre-rendering: snapshots, object renders, partial CSS pre-render."""

import pytest

from repro.core.prerender import (
    _encode_region,
    partial_css_prerender,
    prerender_object,
    produce_snapshot,
)
from repro.html.parser import parse_html
from repro.render.box import Rect
from repro.render.snapshot import render_snapshot

PAGE = """
<html><head><style>
#hdr { background-color: #336699; padding: 10px; }
</style></head><body>
<div id="hdr"><h1>Site Title</h1><p>tagline text here</p></div>
<div id="rest"><p>body content</p></div>
</body></html>
"""


@pytest.fixture()
def snapshot():
    return render_snapshot(parse_html(PAGE), viewport_width=600)


def test_produce_snapshot_scales(snapshot):
    artifact = produce_snapshot(snapshot, scale=0.5, quality=40)
    assert artifact.scaled_width == snapshot.image.width // 2
    assert artifact.encoded.format == "jpeg"
    assert artifact.original_width == 600


def test_produce_snapshot_lowfi_smaller(snapshot):
    high = produce_snapshot(snapshot, scale=1.0, quality=90)
    low = produce_snapshot(snapshot, scale=0.4, quality=25)
    assert low.encoded.size_bytes < high.encoded.size_bytes / 3


def test_region_lookup(snapshot):
    document = parse_html(PAGE)
    fresh = render_snapshot(document, viewport_width=600)
    artifact = produce_snapshot(fresh, scale=0.5, quality=40)
    hdr = document.get_element_by_id("hdr")
    region = artifact.region_for(hdr)
    assert region is not None
    assert region.width > 100


def test_prerender_object_crops_to_geometry():
    document = parse_html(PAGE)
    hdr = document.get_element_by_id("hdr")
    encoded = prerender_object(document, hdr, viewport_width=600)
    snapshot = render_snapshot(document, viewport_width=600)
    rect = snapshot.geometry_of(hdr)
    assert abs(encoded.width - round(rect.width)) <= 1
    assert abs(encoded.height - round(rect.height)) <= 1


def test_prerender_hidden_object_blank():
    document = parse_html(
        '<div id="x" style="display: none">hidden</div>'
    )
    element = document.get_element_by_id("x")
    encoded = prerender_object(document, element, viewport_width=400)
    assert (encoded.width, encoded.height) == (1, 1)


def test_partial_prerender_splits_text_from_decoration():
    document = parse_html(PAGE)
    hdr = document.get_element_by_id("hdr")
    artifact = partial_css_prerender(document, hdr, viewport_width=600)
    # The text runs are reported for client-side drawing.
    texts = " ".join(run["text"] for run in artifact.text_runs)
    assert "Site Title" in texts
    assert "tagline" in texts
    # Runs are positioned relative to the object's own origin.
    assert all(run["x"] >= 0 and run["y"] >= -1 for run in artifact.text_runs)
    assert artifact.background.size_bytes > 0


def test_partial_prerender_background_lacks_text_pixels():
    document = parse_html(PAGE)
    hdr = document.get_element_by_id("hdr")
    artifact = partial_css_prerender(document, hdr, viewport_width=600)
    full = prerender_object(document, hdr, viewport_width=600, quality=55)
    # Blanked background compresses tighter than the text-bearing render.
    assert artifact.background.size_bytes < full.size_bytes


def test_partial_prerender_leaves_original_document_untouched():
    document = parse_html(PAGE)
    hdr = document.get_element_by_id("hdr")
    before = hdr.text_content
    partial_css_prerender(document, hdr, viewport_width=600)
    assert hdr.text_content == before


BELOW_THE_CLAMP = """
<html><body>
<div style="height:9000px"></div>
<div id="target" style="background-color: #336699">below the canvas</div>
</body></html>
"""


def test_an_object_laid_out_below_the_canvas_clamp_is_a_blank():
    # The canvas stops at 8,192 rows; the object starts at row 9,000, so
    # no pixel of it was painted.
    document = parse_html(BELOW_THE_CLAMP)
    target = document.get_element_by_id("target")
    encoded = prerender_object(document, target, viewport_width=400)
    assert (encoded.width, encoded.height) == (1, 1)
    artifact = partial_css_prerender(document, target, viewport_width=400)
    assert (artifact.background.width, artifact.background.height) == (1, 1)


@pytest.mark.parametrize(
    "rect,size",
    [
        (Rect(-10, 0, 50, 20), (40, 20)),  # starts left of the frame
        (Rect(0, -5, 30, 20), (30, 15)),  # starts above it
        (Rect(590, 10, 50, 20), (10, 20)),  # runs off its right edge
        (Rect(-10, -5, 700, 20), (600, 15)),  # wider than the frame
    ],
    ids=["left", "above", "right", "both-sides"],
)
def test_an_object_partly_outside_the_frame_is_cropped_to_what_shows(
    snapshot, rect, size
):
    encoded = _encode_region(snapshot, rect, quality=55)
    assert (encoded.width, encoded.height) == size
