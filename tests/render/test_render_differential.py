"""The render path against what it replaced, and against golden pixels.

``reference_render`` freezes the loops this layer used to run: the
float32 anti-alias, the broadcast fills and per-cell glyph painter, the
whole-field photo placeholder, the scanline-loop PNG filter, the
whole-frame JPEG encoder and the linear-scan cascade, plus the exact
``int64`` box resampler.  Each replacement must produce the same bytes:

* ``RasterImage.smoothed`` on every frame shape whose edge norms differ
  (1x1 is 4 everywhere, 1xN and Nx1 are 6 with 4 at the ends, 2x2 is
  all corners), on flat 0 / 255 frames, and on frames one row short of,
  exactly and one row past a band (and two bands);
* ``Canvas.draw_text`` for one-glyph and several-glyph runs clipped at
  each canvas edge, for runs hundreds of canvases wide and for glyphs
  far larger than the canvas, and whole display lists of fills, strokes,
  gradients and batches of runs (overlapping in different colours, cut
  by every edge) painted by ``paint_onto`` against the same commands
  painted one at a time, over any background;
* ``fonts.text_width`` through the advance table, against the sum of
  ``char_width`` it replaced, bit for bit;
* ``Canvas.fill_gradient`` cut by the canvas, against the rows of the
  same box painted whole;
* ``Canvas.draw_photo_placeholder`` at any rect, clip and seed, drawn
  twice so the memoised patch is compared as well as the fresh one, and
  across the bands of its noise field;
* ``RasterImage.resized`` for down-, up- and mixed-scale targets, on
  one-row and one-column frames and on outputs a row either side of a
  band — the one place the parent's output was wrong, pinned on a
  page-sized frame;
* ``encode_png`` on random and flat images, and ``encode_jpeg`` at odd
  and even sizes, every quality, and heights either side of its luma
  and chroma bands;
* ``StyleResolver.computed_style`` for every element of the three origin
  families' front pages under their real stylesheets, and on generated
  sheets whose rightmost compounds land in every rule-hash bucket.

The golden SHA-256 pins are the full-size snapshot pixels captured
before the rewrite.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.browser.webkit import ServerBrowser
from repro.css.cascade import StyleResolver
from repro.css.parser import parse_stylesheet
from repro.html.parser import parse_html
from repro.net.client import HttpClient
from repro.net.url import URL
from repro.render import fonts
from repro.render import image as image_module
from repro.render.box import Rect, TextRun
from repro.render.image import RasterImage, encode_jpeg, encode_png
from repro.render.paint import (
    FillCommand,
    PlaceholderCommand,
    StrokeCommand,
    TextCommand,
    paint_onto,
)
from repro.render.raster import Canvas
from repro.render.snapshot import collect_stylesheets
from tests.conftest import CLASSIFIEDS_HOST, FORUM_HOST, NEWS_HOST
from tests.render import reference_render as reference


def frame(height, width, seed, fill=None):
    if fill is not None:
        return np.full((height, width, 3), fill, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)


_fills = st.sampled_from([None, None, None, 0, 255])

# -- anti-alias ----------------------------------------------------------------


@pytest.mark.parametrize(
    "height,width", [(1, 1), (1, 7), (7, 1), (2, 2), (1, 2), (2, 1), (3, 3), (9, 5)]
)
@pytest.mark.parametrize("fill", [None, 0, 255])
def test_smoothed_matches_float_blur_on_edge_shapes(height, width, fill):
    pixels = frame(height, width, seed=height * 31 + width, fill=fill)
    assert (
        RasterImage(pixels).smoothed().pixels == reference.smoothed(pixels)
    ).all()


@given(
    height=st.integers(1, 24),
    width=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    fill=_fills,
)
@settings(max_examples=150, deadline=None)
def test_smoothed_matches_float_blur(height, width, seed, fill):
    pixels = frame(height, width, seed, fill)
    assert (
        RasterImage(pixels).smoothed().pixels == reference.smoothed(pixels)
    ).all()


def test_smoothed_matches_float_blur_on_every_sum_and_norm():
    # Every (4*p + neighbours) total a norm can meet, not just the ones
    # random frames hit: a row of one pixel value beside its neighbours.
    values = np.arange(256, dtype=np.uint8)
    pixels = np.stack(np.meshgrid(values, values[::5]), axis=-1)
    pixels = np.concatenate([pixels, pixels[:, :, :1]], axis=-1)
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    assert (
        RasterImage(pixels).smoothed().pixels == reference.smoothed(pixels)
    ).all()


def _around_bands(band):
    """Heights one short of, exactly and one past one band and two."""
    return sorted(
        {max(1, rows + offset) for rows in (band, 2 * band) for offset in (-1, 0, 1)}
    )


# A frame this wide has bands of a few rows, so band edges are cheap to
# reach; one column wide, a band is tens of thousands of rows.
WIDE = 4096


@pytest.mark.parametrize("width", [1, 2, WIDE])
def test_smoothed_matches_float_blur_across_band_edges(width):
    band = image_module._band_rows(width * 3 * 2)
    for height in [1, 2] + _around_bands(band):
        pixels = frame(height, width, seed=height)
        assert (
            RasterImage(pixels).smoothed().pixels == reference.smoothed(pixels)
        ).all(), height


# -- run stamps and fills ----------------------------------------------------------

# Lowercase, the fallback box, a letter outside ASCII, an astral character.
GLYPH_CHARS = sorted(fonts._GLYPHS) + ["q", "☃", "ı", "𝔸"]
CANVAS_W, CANVAS_H = 40, 36
FONT_SIZES = [7.0, 9.0, 11.0, 13.0, 16.0, 19.0, 24.0, 32.0]


def _edge_positions(glyph_w, glyph_h):
    """Top-left corners straddling each canvas edge, each corner, wholly
    inside, and wholly outside on every side."""
    xs = [-glyph_w - 1, -glyph_w // 2, 3, CANVAS_W - glyph_w // 2, CANVAS_W + 1]
    ys = [-glyph_h - 1, -glyph_h // 2, 2, CANVAS_H - glyph_h // 2, CANVAS_H + 1]
    return [(x, y) for x in xs for y in ys]


def assert_paints_alike(paint, background=(255, 255, 255)):
    """``paint(canvas)`` leaves the same bytes on a ``Canvas`` as on the
    frozen ``ReferenceCanvas``."""
    fast = Canvas(CANVAS_W, CANVAS_H, background)
    slow = reference.ReferenceCanvas(CANVAS_W, CANVAS_H, background)
    paint(fast)
    paint(slow)
    assert (fast.pixels == slow.pixels).all()


@pytest.mark.parametrize("bold", [False, True])
@pytest.mark.parametrize("scale", [1, 2, 3, 4])
def test_glyph_blit_matches_cell_loop(scale, bold):
    # A font size of 8 * scale draws at ``scale``, and its glyph top is
    # 1.5 * scale below the run's y.
    glyph_w = fonts.GLYPH_COLUMNS * scale + (1 if bold else 0)
    glyph_h = fonts.GLYPH_ROWS * scale
    color = (12, 140, 250)
    for char in GLYPH_CHARS:
        for x, top in _edge_positions(glyph_w, glyph_h):
            for text in (char, char + "Mi" + char):
                assert_paints_alike(
                    lambda canvas: canvas.draw_text(
                        x, top - 1.5 * scale, text, 8.0 * scale, color, bold
                    )
                )


@given(
    text=st.text(
        alphabet=st.sampled_from(GLYPH_CHARS + ["x", "g", "~"]), max_size=12
    ),
    x=st.floats(-30, 50),
    y=st.floats(-30, 45),
    font_size=st.sampled_from(FONT_SIZES),
    bold=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_draw_text_matches_cell_loop(text, x, y, font_size, bold):
    assert_paints_alike(
        lambda canvas: canvas.draw_text(x, y, text, font_size, (200, 10, 60), bold)
    )


LONG_RUN = "MiW" * 1000  # one unbroken token, hundreds of canvases wide


@pytest.mark.parametrize("bold", [False, True])
@pytest.mark.parametrize(
    "place", ["runs-off-right", "crosses-canvas", "ends-inside", "wholly-left"]
)
def test_a_run_far_wider_than_the_canvas_matches_cell_loop(place, bold):
    width = fonts.text_width(LONG_RUN, 16.0, bold)
    x = {
        "runs-off-right": 3.0,
        "crosses-canvas": CANVAS_W / 2 - width / 2,
        "ends-inside": CANVAS_W / 2 - width,
        "wholly-left": -width - 20,
    }[place]
    assert_paints_alike(
        lambda canvas: canvas.draw_text(x, 4, LONG_RUN, 16.0, (30, 90, 9), bold)
    )


_MEASURED = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=32, max_codepoint=126),
        st.sampled_from(["ı", "ſ", "ß", "𝔸", "é", "\t", "\xa0"]),
        st.characters(),
    ),
    max_size=40,
)


@given(
    text=_MEASURED,
    font_size=st.one_of(st.sampled_from(FONT_SIZES), st.floats(0.5, 500)),
    bold=st.booleans(),
)
@example(text="ıſß𝔸 Hello", font_size=13.0, bold=True)
@settings(max_examples=300, deadline=None)
def test_text_width_through_the_table_is_the_sum_of_char_widths(
    text, font_size, bold
):
    # The same floats in the same order: equal bits, not nearly equal.
    assert fonts.text_width(text, font_size, bold) == reference.text_width(
        text, font_size, bold
    )
    advances = fonts.advance_table(font_size, bold)
    assert [advances[char] for char in text] == [
        fonts.char_width(char, font_size, bold) for char in text
    ]


@given(
    text=st.text(alphabet=st.sampled_from(GLYPH_CHARS + [" "]), min_size=1, max_size=3),
    font_size=st.floats(100, 3000),
    across=st.floats(0, 1),
    down=st.floats(0, 1),
    bold=st.booleans(),
)
@example(text="AB", font_size=6000.0, across=0.0, down=0.0, bold=False)
@settings(max_examples=60, deadline=None)
def test_glyphs_larger_than_the_canvas_match_cell_loop(
    text, font_size, across, down, bold
):
    # The canvas shows a window anywhere over the run: glyphs up to
    # ~240 px are tabled, larger ones are filled cell by cell.
    scale = max(1, int(round(font_size / 8.0)))
    glyph_h = fonts.GLYPH_ROWS * scale
    top = (fonts.line_height(font_size) - glyph_h) / 2
    x = -across * fonts.text_width(text, font_size, bold)
    y = -top - down * glyph_h
    assert_paints_alike(
        lambda canvas: canvas.draw_text(x, y, text, font_size, (5, 99, 201), bold)
    )


@given(
    canvas_w=st.integers(1, 60),
    canvas_h=st.integers(1, 60),
    rect=st.builds(
        Rect,
        st.floats(-40, 70),
        st.floats(-40, 70),
        st.floats(0, 90),
        st.floats(0, 90),
    ),
    seed=st.integers(0, 2**33),
)
@example(canvas_w=10, canvas_h=10, rect=Rect(0, 0, 10, 10), seed=0)
@example(canvas_w=10, canvas_h=10, rect=Rect(0, 0, 10, 10), seed=2**32)
@settings(max_examples=200, deadline=None)
def test_photo_placeholder_matches_the_whole_field_draw(
    canvas_w, canvas_h, rect, seed
):
    # Twice: the first draw may make the patch, the second reads it back
    # from the memo.  Seeds 0 and 2**32 share a patch (both mask to 0).
    fast = Canvas(canvas_w, canvas_h)
    slow = reference.ReferenceCanvas(canvas_w, canvas_h)
    for _ in range(2):
        fast.draw_photo_placeholder(rect, seed)
        slow.draw_photo_placeholder(rect, seed)
        assert (fast.pixels == slow.pixels).all()


@pytest.mark.parametrize("width", [1, 1000])
def test_photo_placeholder_matches_across_noise_bands(width):
    band = image_module._band_rows(width * 3 * 8)  # a float64 field
    for height in _around_bands(band):
        fast = Canvas(width, height)
        slow = reference.ReferenceCanvas(width, height)
        for canvas in (fast, slow):
            canvas.draw_photo_placeholder(Rect(0, 0, width, height), seed=height)
        assert (fast.pixels == slow.pixels).all(), height


_colors = st.tuples(*[st.integers(0, 255)] * 3)
_rects = st.builds(
    Rect, st.floats(-30, 50), st.floats(-30, 50), st.floats(0, 60), st.floats(0, 60)
)


@st.composite
def _in_canvas_gradients(draw):
    # The frozen gradient spreads its ramp over the visible rows only,
    # so it is an oracle for gradients the canvas does not cut.
    x = draw(st.integers(0, CANVAS_W - 1))
    y = draw(st.integers(0, CANVAS_H - 1))
    w = draw(st.integers(1, CANVAS_W - x))
    h = draw(st.integers(1, CANVAS_H - y))
    return FillCommand(Rect(x, y, w, h), draw(_colors), gradient=True)


_runs = st.builds(
    TextRun,
    st.text(alphabet=st.sampled_from(GLYPH_CHARS + [" "]), max_size=10),
    # From wholly left of / above the canvas to wholly right / below, at
    # fractional positions.
    st.builds(Rect, st.floats(-70, 50), st.floats(-40, 45), st.just(0), st.just(0)),
    st.one_of(st.sampled_from(FONT_SIZES), st.floats(4, 40), st.just(300.0)),
    st.booleans(),
    _colors,
)


@st.composite
def _overlapping_runs(draw):
    """A run, then one a few pixels from it in another colour."""
    first = draw(_runs)
    second = TextRun(
        draw(st.text(alphabet=st.sampled_from(GLYPH_CHARS), min_size=1, max_size=6)),
        Rect(
            first.rect.x + draw(st.floats(-4, 4)),
            first.rect.y + draw(st.floats(-4, 4)),
            0,
            0,
        ),
        draw(st.sampled_from(FONT_SIZES)),
        draw(st.booleans()),
        draw(_colors.filter(lambda color: color != first.color)),
    )
    return [TextCommand(first), TextCommand(second)]


_single_commands = st.one_of(
    st.builds(FillCommand, _rects, _colors),
    st.builds(StrokeCommand, _rects, _colors, st.integers(1, 4)),
    _in_canvas_gradients(),
    st.builds(PlaceholderCommand, _rects, st.integers(0, 3)),
    st.builds(TextCommand, _runs),
)
_display_lists = st.lists(
    st.one_of(
        _single_commands.map(lambda command: [command]),
        st.lists(st.builds(TextCommand, _runs), min_size=2, max_size=5),
        _overlapping_runs(),
    ),
    max_size=8,
).map(lambda groups: [command for group in groups for command in group])


def paint_each(canvas, commands):
    """The display list painted one command at a time, as before runs
    were batched."""
    for command in commands:
        if isinstance(command, FillCommand):
            if command.gradient:
                canvas.fill_gradient(command.rect, command.color)
            else:
                canvas.fill_rect(command.rect, command.color)
        elif isinstance(command, StrokeCommand):
            canvas.stroke_rect(command.rect, command.color, command.width)
        elif isinstance(command, PlaceholderCommand):
            canvas.draw_photo_placeholder(command.rect, command.texture_seed)
        else:
            run = command.run
            canvas.draw_text(
                run.rect.x, run.rect.y, run.text, run.font_size, run.color, run.bold
            )


def _run(text, x, y, color, font_size=16.0, bold=False):
    return TextCommand(TextRun(text, Rect(x, y, 0, 0), font_size, bold, color))


# One batch with a run cut by each canvas edge (left, top, right,
# bottom), two overlapping runs of different colours and a glyph far
# larger than the canvas between them.
_EDGE_BATCH = [
    FillCommand(Rect(0, 0, CANVAS_W, CANVAS_H), (250, 250, 250)),
    _run("WM", -7.5, 5, (200, 0, 0)),
    _run("Hi", 3, -9.25, (0, 200, 0), bold=True),
    _run("AMW", CANVAS_W - 11.4, 10, (0, 0, 200)),
    _run("q8", 12, CANVAS_H - 12.6, (90, 90, 0), 24.0),
    _run("OO", 4.2, 14, (10, 10, 10)),
    _run("XX", 5.7, 15.5, (240, 20, 200)),
    _run("I", -20, -100, (1, 2, 3), 300.0),
    _run("ſ", 6, 12, (10, 10, 10), 19.0),
]


@given(background=_colors, commands=_display_lists)
@example(background=(255, 255, 255), commands=_EDGE_BATCH)
@settings(max_examples=200, deadline=None)
def test_display_lists_paint_the_same_bytes_as_the_broadcast_canvas(
    background, commands
):
    fast = Canvas(CANVAS_W, CANVAS_H, background)
    slow = reference.ReferenceCanvas(CANVAS_W, CANVAS_H, background)
    paint_onto(fast, commands)
    paint_each(slow, commands)
    assert (fast.pixels == slow.pixels).all()


@given(
    height=st.integers(1, 300),
    first=st.integers(0, 299),
    rows=st.integers(1, 300),
    base=_colors,
    spread=st.sampled_from([0, 1, 7, 54, 55, 100, 255]),
)
# A one-row box is all top; for a 14-row box with an even spread the
# last row is ``stop`` only because linspace sets it so.
@example(height=1, first=0, rows=1, base=(100, 100, 100), spread=55)
@example(height=14, first=0, rows=14, base=(100, 100, 100), spread=54)
@example(height=14, first=10, rows=4, base=(100, 100, 100), spread=54)
@settings(max_examples=150, deadline=None)
def test_a_gradient_cut_by_the_canvas_shows_rows_of_the_whole_box(
    height, first, rows, base, spread
):
    # The canvas shows rows [first, stop) of the box; the frozen gradient
    # paints the box whole on a canvas its own height.
    first = min(first, height - 1)
    stop = min(first + rows, height)
    shown = Canvas(3, stop - first)
    shown.fill_gradient(Rect(0, -first, 3, height), base, spread)
    whole = reference.ReferenceCanvas(3, height)
    whole.fill_gradient(Rect(0, 0, 3, height), base, spread)
    assert (shown.pixels == whole.pixels[first:stop]).all()


# -- box resampling ----------------------------------------------------------------


@given(
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    new_height=st.integers(1, 60),
    new_width=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    fill=_fills,
)
@settings(max_examples=200, deadline=None)
def test_resized_matches_exact_integral(
    height, width, new_height, new_width, seed, fill
):
    pixels = frame(height, width, seed, fill)
    got = RasterImage(pixels).resized(new_width, new_height).pixels
    assert (got == reference.resized(pixels, new_width, new_height)).all()


@pytest.mark.parametrize(
    "size,target",
    [
        ((37, 29), (1, 1)),  # everything into one box
        ((37, 29), (29, 37)),  # down on one axis, up on the other
        ((5, 4), (50, 44)),  # pure upscale: every box is one pixel
        ((64, 48), (64, 48)),  # identity
        ((1, 1), (3, 5)),
    ],
)
def test_resized_matches_exact_integral_on_named_shapes(size, target):
    pixels = frame(size[1], size[0], seed=sum(size))
    got = RasterImage(pixels).resized(*target).pixels
    assert (got == reference.resized(pixels, *target)).all()


@pytest.mark.parametrize(
    "width,new_width,height_for",
    [
        # Boxes 4 and 5 rows tall, so bands differ in their areas.
        (WIDE, WIDE // 4, lambda rows: rows * 4 + rows // 2),  # down
        (WIDE // 5, WIDE, lambda rows: max(1, rows // 3)),  # up on both
        (WIDE // 3, WIDE, lambda rows: rows * 2 + rows // 2),  # mixed
        (WIDE, WIDE // 4, lambda rows: 1),  # a one-row frame
        (1, 7, lambda rows: rows * 2),  # a one-column frame
    ],
    ids=["down", "up", "mixed", "one-row", "one-column"],
)
def test_resized_matches_exact_integral_across_band_edges(
    width, new_width, height_for
):
    # ``resized`` fills its output a band of rows at a time: as many as
    # keep a band's row sums of the source (``uint16`` for every box
    # here, at most 5 x 4 samples) under the budget.
    for rows in _around_bands(image_module._band_rows(width * 3 * 2)):
        pixels = frame(height_for(rows), width, seed=rows)
        got = RasterImage(pixels).resized(new_width, rows).pixels
        assert (got == reference.resized(pixels, new_width, rows)).all(), rows


def test_scaled_page_sized_frame_has_exact_box_sums():
    # The float32 running sum this replaced reached ~1e9 on a frame this
    # size, where float32 is spaced 64-128 apart: about half the samples
    # were off, by tens of grey levels toward the bottom right.
    pixels = frame(4096, 1024, seed=18)
    image = RasterImage(pixels)
    new_width, new_height = round(1024 * 0.28), round(4096 * 0.28)
    exact = RasterImage(reference.resized(pixels, new_width, new_height))
    assert image.scaled(0.28).mean_absolute_error(exact) == 0.0


def test_resized_box_sums_past_uint32_do_not_wrap():
    # 4100 x 4100 x 255 > 2**32: one box over the whole frame needs the
    # wide accumulator.
    image = RasterImage(np.full((4100, 4100, 3), 255, dtype=np.uint8))
    assert (image.resized(1, 1).pixels == 255).all()


# -- PNG scanlines -------------------------------------------------------------------


@given(
    height=st.integers(1, 20),
    width=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    fill=_fills,
)
@settings(max_examples=100, deadline=None)
def test_encode_png_matches_scanline_loop(height, width, seed, fill):
    image = RasterImage(frame(height, width, seed, fill))
    assert encode_png(image) == reference.encode_png(image)


@given(
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    quality=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
    fill=_fills,
)
@settings(max_examples=150, deadline=None)
def test_encode_jpeg_matches_whole_frame_encoder(height, width, quality, seed, fill):
    image = RasterImage(frame(height, width, seed, fill))
    assert encode_jpeg(image, quality) == reference.encode_jpeg(image, quality)


@pytest.mark.parametrize("quality", [1, 25, 75, 100])
def test_encode_jpeg_matches_across_luma_and_chroma_bands(quality):
    # Luma bands are whole blocks of rows as wide as the image; chroma
    # bands count rows of the half-height 4:2:0 grid.
    width = 1001
    luma = image_module._band_rows(width * 3 * 4) // 8 * 8
    chroma = image_module._band_rows((width + 1) // 2 * 3 * 4) // 8 * 8
    for height in sorted(set(_around_bands(luma) + _around_bands(2 * chroma))):
        image = RasterImage(frame(height, width, seed=height))
        assert encode_jpeg(image, quality) == reference.encode_jpeg(
            image, quality
        ), height


# -- the cascade ---------------------------------------------------------------------


def assert_agree(document, resolver, oracle):
    for element in document.all_elements():
        got = resolver.computed_style(element).properties
        assert got == oracle.computed_style(element).properties, element


def fetch_page(client, url):
    """The parsed page and its ``<link rel=stylesheet>`` sources by href,
    as ``ServerBrowser.load`` hands them to ``render_snapshot``."""
    document = parse_html(client.get(url).text_body)
    external = {
        link.get("href"): client.get(
            URL.parse(url).join(link.get("href"))
        ).text_body
        for link in document.get_elements_by_tag("link")
        if (link.get("rel") or "").lower() == "stylesheet"
    }
    return document, external


@pytest.fixture(scope="module")
def origin_client(forum_app, news_app, classifieds_app):
    return HttpClient(
        {
            FORUM_HOST: forum_app,
            NEWS_HOST: news_app,
            CLASSIFIEDS_HOST: classifieds_app,
        }
    )


@pytest.mark.parametrize(
    "url",
    [
        f"http://{FORUM_HOST}/index.php",
        f"http://{NEWS_HOST}/",
        f"http://{CLASSIFIEDS_HOST}/",
    ],
)
def test_cascade_matches_linear_scan_on_origin_pages(origin_client, url):
    document, external = fetch_page(origin_client, url)
    sheets = collect_stylesheets(document, external)
    assert sheets, "the page should bring its own stylesheet"
    assert_agree(
        document,
        StyleResolver(list(sheets)),
        reference.ReferenceStyleResolver(list(sheets)),
    )


CASCADE_HTML = """
<html><body id="top" class="page wide">
<div id="main" class="box wide"><p class="lead box">one <a href="/x">link</a>
<a name="anchor">anchor</a> <span class="lead">s</span></p>
<p id="second" style="color: teal; margin: 1px 2px !important">two</p>
<ul class="box"><li class="item first">a</li><li class="item" lang="en">b</li>
<li id="last" class="item box wide">c <b>bold</b></li></ul></div>
<table class="wide"><tr><td class="item">x</td><td data-k="v">y</td></tr></table>
<div class="box"><div class="box"><span id="deep" class="item lead">z</span>
</div></div>
</body></html>
"""

_RIGHTMOST = [
    "#main", "#second", "#last", "#deep", "#nosuch",
    ".box", ".item", ".lead", ".wide", ".box.wide", ".item.box", ".nosuch",
    "p", "li", "a", "span", "td", "div", "b",
    "*", "[lang]", "[data-k=v]", "[class~=item]", ":first-child", ":link",
    "li:first-child", "a:link", "p.lead", "li#last", "span.lead#deep",
    "td[data-k]", "*.wide", ":not(.item)", "li:not(.first)",
]
_LEFT = ["div", ".box", "#main", "ul", "body", "*", "p", "li", ".wide", "tr"]
_COMBINATORS = [" ", " > ", " + ", " ~ "]
_DECLARATIONS = [
    "color: red", "color: blue", "color: green !important", "color: inherit",
    "margin: 4px", "margin: 1px 2px 3px", "margin-left: 9px !important",
    "padding: 2px 3px", "border: 2px solid black", "border: thin dotted",
    "display: block", "display: none", "font-weight: bold",
    "font-size: 12px", "font-size: 20px !important", "visibility: hidden",
    "text-align: center",
]


@st.composite
def _selectors(draw):
    selector = draw(st.sampled_from(_RIGHTMOST))
    for _ in range(draw(st.integers(0, 2))):
        left = draw(st.sampled_from(_LEFT))
        selector = left + draw(st.sampled_from(_COMBINATORS)) + selector
    return selector


_rules = st.builds(
    lambda selectors, declarations: (
        ", ".join(selectors) + " { " + "; ".join(declarations) + " }"
    ),
    st.lists(_selectors(), min_size=1, max_size=3),
    st.lists(st.sampled_from(_DECLARATIONS), min_size=1, max_size=3),
)
_sheets = st.lists(_rules, min_size=1, max_size=12).map("\n".join)


@given(first=_sheets, second=_sheets, later=_sheets)
@settings(max_examples=150, deadline=None)
def test_cascade_matches_linear_scan_on_generated_sheets(first, second, later):
    document = parse_html(CASCADE_HTML)
    sheets = [parse_stylesheet(first), parse_stylesheet(second)]
    resolver = StyleResolver(list(sheets))
    oracle = reference.ReferenceStyleResolver(list(sheets))
    assert_agree(document, resolver, oracle)
    # A sheet added after the first lookups must reach both the memoized
    # styles and the rule hash.
    resolver.add_stylesheet(parse_stylesheet(later))
    oracle.add_stylesheet(parse_stylesheet(later))
    assert_agree(document, resolver, oracle)


# -- golden pixels ---------------------------------------------------------------------

GOLDEN_SNAPSHOTS = [
    (
        f"http://{FORUM_HOST}/index.php",
        (5317, 1024, 3),
        "162b2bc56c2158d125378392a31eb4f93a666e72b44b502d1f75805829949ad9",
    ),
    (
        f"http://{NEWS_HOST}/",
        (850, 1024, 3),
        "eb1eb33f259c404fd645d88755358c6f453a6155013820213658ff58f92d7114",
    ),
]


@pytest.mark.parametrize("url,shape,digest", GOLDEN_SNAPSHOTS)
def test_full_size_snapshot_pixels_are_unchanged(origin_client, url, shape, digest):
    with ServerBrowser(origin_client, viewport_width=1024) as browser:
        pixels = browser.load(url).snapshot.image.pixels
    assert pixels.shape == shape
    assert hashlib.sha256(pixels.tobytes()).hexdigest() == digest
