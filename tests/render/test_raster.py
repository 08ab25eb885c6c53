"""Canvas painting operations."""

import numpy as np
import pytest

from repro.render.box import Rect, TextRun
from repro.render.raster import Canvas


def test_canvas_starts_with_background():
    canvas = Canvas(10, 5, background=(1, 2, 3))
    assert canvas.pixels.shape == (5, 10, 3)
    assert (canvas.pixels == (1, 2, 3)).all()


def test_canvas_rejects_empty():
    with pytest.raises(ValueError):
        Canvas(0, 5)


def test_fill_rect():
    canvas = Canvas(10, 10)
    canvas.fill_rect(Rect(2, 3, 4, 5), (255, 0, 0))
    assert tuple(canvas.pixels[3, 2]) == (255, 0, 0)
    assert tuple(canvas.pixels[7, 5]) == (255, 0, 0)
    assert tuple(canvas.pixels[2, 2]) == (255, 255, 255)
    assert tuple(canvas.pixels[3, 6]) == (255, 255, 255)


def test_fill_rect_clipped_to_canvas():
    canvas = Canvas(10, 10)
    canvas.fill_rect(Rect(-5, -5, 100, 100), (0, 0, 0))
    assert (canvas.pixels == 0).all()


def test_fill_rect_fully_outside_is_noop():
    canvas = Canvas(10, 10)
    canvas.fill_rect(Rect(50, 50, 5, 5), (0, 0, 0))
    assert (canvas.pixels == 255).all()


def test_stroke_rect_draws_border_only():
    canvas = Canvas(20, 20)
    canvas.stroke_rect(Rect(5, 5, 10, 10), (0, 0, 0))
    assert tuple(canvas.pixels[5, 5]) == (0, 0, 0)  # corner
    assert tuple(canvas.pixels[5, 10]) == (0, 0, 0)  # top edge
    assert tuple(canvas.pixels[10, 10]) == (255, 255, 255)  # interior


def test_draw_text_changes_pixels():
    canvas = Canvas(200, 40)
    canvas.draw_text(4, 4, "HELLO", 16.0, (0, 0, 0))
    assert (canvas.pixels == 0).any()


def test_draw_text_respects_color():
    canvas = Canvas(100, 30)
    canvas.draw_text(2, 2, "A", 16.0, (10, 200, 30))
    matches = (canvas.pixels == (10, 200, 30)).all(axis=2)
    assert matches.any()


def test_space_draws_nothing():
    canvas = Canvas(50, 20)
    canvas.draw_text(2, 2, "   ", 16.0, (0, 0, 0))
    assert (canvas.pixels == 255).all()


def test_fill_gradient_varies_vertically():
    canvas = Canvas(10, 30)
    canvas.fill_gradient(Rect(0, 0, 10, 30), (100, 120, 150))
    top = canvas.pixels[0, 5].astype(int)
    bottom = canvas.pixels[29, 5].astype(int)
    assert (top > bottom).all()  # lighter top, darker bottom
    # Uniform across a row.
    assert (canvas.pixels[10, 0] == canvas.pixels[10, 9]).all()


@pytest.mark.parametrize(
    "top",
    [0, 7, -50, -30, 50, -100],
    ids=["bottom", "bottom-partly", "top", "both", "below", "above"],
)
def test_fill_gradient_cut_by_the_canvas_keeps_the_boxs_ramp(top):
    # A 100-row box on a 50-row canvas: the rows the canvas shows read
    # what the same rows of the box read when it is painted whole.
    clipped = Canvas(8, 50)
    clipped.fill_gradient(Rect(-3, top, 12, 100), (100, 120, 150))
    whole = Canvas(12, 100)
    whole.fill_gradient(Rect(0, 0, 12, 100), (100, 120, 150))
    y0, y1 = max(0, top), min(50, top + 100)
    assert (clipped.pixels[y0:y1] == whole.pixels[y0 - top : y1 - top, 3:11]).all()
    assert (clipped.pixels[:y0] == 255).all()
    assert (clipped.pixels[y1:] == 255).all()


@pytest.mark.parametrize(
    "top,expected",
    [(0, (127, 147, 177)), (50 - 10**9, (72, 92, 122))],
    ids=["first-rows", "last-rows"],
)
def test_fill_gradient_on_a_box_a_billion_rows_tall(top, expected):
    # The box's height comes from page CSS and is not clamped; the canvas
    # shows 50 of its rows, over which the ramp moves by ~3e-6, so they
    # all read base + 27.5 (first rows) or base - 27.5 (last rows),
    # truncated.
    canvas = Canvas(8, 50)
    canvas.fill_gradient(Rect(0, top, 8, 10**9), (100, 120, 150))
    assert (canvas.pixels == expected).all()


def test_photo_placeholder_is_textured_and_deterministic():
    a = Canvas(40, 40)
    a.draw_photo_placeholder(Rect(0, 0, 40, 40), seed=7)
    b = Canvas(40, 40)
    b.draw_photo_placeholder(Rect(0, 0, 40, 40), seed=7)
    assert (a.pixels == b.pixels).all()
    # Textured: many distinct values, unlike a flat fill.
    assert len(np.unique(a.pixels)) > 50


def test_photo_placeholder_seed_changes_texture():
    a = Canvas(40, 40)
    a.draw_photo_placeholder(Rect(0, 0, 40, 40), seed=1)
    b = Canvas(40, 40)
    b.draw_photo_placeholder(Rect(0, 0, 40, 40), seed=2)
    assert (a.pixels != b.pixels).any()


BACKGROUND = (9, 8, 7)


@pytest.mark.parametrize(
    "paint",
    [
        lambda canvas: canvas.fill_rect(Rect(2, 2, 3, 3), (0, 0, 0)),
        lambda canvas: canvas.fill_gradient(Rect(0, 0, 30, 20), (100, 120, 150)),
        lambda canvas: canvas.stroke_rect(Rect(1, 1, 10, 10), (0, 0, 0)),
        lambda canvas: canvas.draw_text(2, 2, "Hi", 16.0, (0, 0, 0)),
        lambda canvas: canvas.draw_runs(
            [TextRun("ok", Rect(2, 2, 0, 0), 16.0, color=(1, 1, 1))]
        ),
        lambda canvas: canvas.draw_photo_placeholder(Rect(0, 0, 30, 20), seed=4),
    ],
    ids=["fill", "gradient", "stroke", "text", "runs", "placeholder"],
)
def test_a_background_fill_after_any_paint_is_written(paint):
    # An untouched canvas skips a fill of its background colour; once
    # anything is painted, that fill paints over it.
    canvas = Canvas(30, 20, background=BACKGROUND)
    paint(canvas)
    assert (canvas.pixels != BACKGROUND).any()
    canvas.fill_rect(Rect(0, 0, 30, 20), BACKGROUND)
    assert (canvas.pixels == BACKGROUND).all()
