"""Image model: transforms and encoders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.render.image import (
    RasterImage,
    encode_jpeg,
    encode_png,
    reencode_for_mobile,
)


def checkerboard(width=64, height=64):
    pixels = np.zeros((height, width, 3), dtype=np.uint8)
    pixels[::2, ::2] = 255
    pixels[1::2, 1::2] = 255
    return RasterImage(pixels)


def noisy(width=64, height=64, seed=3):
    rng = np.random.default_rng(seed)
    return RasterImage(
        rng.integers(0, 256, size=(height, width, 3)).astype(np.uint8)
    )


def test_blank_image():
    image = RasterImage.blank(8, 4, color=(9, 8, 7))
    assert image.width == 8
    assert image.height == 4
    assert tuple(image.pixels[0, 0]) == (9, 8, 7)


def test_rejects_bad_shape():
    with pytest.raises(ValueError):
        RasterImage(np.zeros((4, 4), dtype=np.uint8))


def test_scaled_dimensions():
    image = RasterImage.blank(100, 60)
    half = image.scaled(0.5)
    assert (half.width, half.height) == (50, 30)


def test_scale_factor_must_be_positive():
    with pytest.raises(ValueError):
        RasterImage.blank(4, 4).scaled(0)


def test_downscale_averages():
    image = checkerboard(32, 32)
    small = image.scaled(0.5)
    # Perfect checkerboard averages to mid-gray.
    assert abs(int(small.pixels.mean()) - 127) <= 2


def test_upscale_duplicates():
    image = RasterImage.blank(2, 2, color=(10, 20, 30))
    big = image.resized(8, 8)
    assert (big.pixels == (10, 20, 30)).all()


def test_cropped():
    pixels = np.arange(4 * 6 * 3, dtype=np.uint8).reshape(4, 6, 3)
    image = RasterImage(pixels)
    crop = image.cropped(1, 1, 3, 2)
    assert (crop.width, crop.height) == (3, 2)
    assert (crop.pixels == pixels[1:3, 1:4]).all()


def test_crop_outside_raises():
    with pytest.raises(ValueError):
        RasterImage.blank(4, 4).cropped(10, 10, 5, 5)


def test_smoothed_preserves_shape_and_softens():
    image = checkerboard()
    smooth = image.smoothed()
    assert smooth.pixels.shape == image.pixels.shape
    # Contrast shrinks.
    assert smooth.pixels.std() < image.pixels.std()


def test_mean_absolute_error():
    a = RasterImage.blank(4, 4, color=(100, 100, 100))
    b = RasterImage.blank(4, 4, color=(110, 100, 100))
    assert a.mean_absolute_error(b) == pytest.approx(10 / 3)
    with pytest.raises(ValueError):
        a.mean_absolute_error(RasterImage.blank(2, 2))


# -- encoders -------------------------------------------------------------


def test_png_smaller_for_flat_content():
    flat = encode_png(RasterImage.blank(128, 128))
    busy = encode_png(noisy(128, 128))
    assert flat.size_bytes < busy.size_bytes / 10


def test_png_metadata():
    encoded = encode_png(RasterImage.blank(10, 20))
    assert encoded.format == "png"
    assert (encoded.width, encoded.height) == (10, 20)
    assert encoded.data.startswith(b"\x89PNG")


def test_jpeg_quality_monotonic():
    image = noisy(96, 96)
    sizes = [
        encode_jpeg(image, quality).size_bytes for quality in (90, 60, 30, 10)
    ]
    assert sizes == sorted(sizes, reverse=True)


def test_jpeg_quality_bounds():
    with pytest.raises(ValueError):
        encode_jpeg(RasterImage.blank(8, 8), quality=0)
    with pytest.raises(ValueError):
        encode_jpeg(RasterImage.blank(8, 8), quality=101)


def test_jpeg_beats_png_on_continuous_tone():
    image = noisy(128, 128)
    assert encode_jpeg(image, 40).size_bytes < encode_png(image).size_bytes


def test_jpeg_flat_image_is_tiny():
    encoded = encode_jpeg(RasterImage.blank(256, 256), quality=75)
    assert encoded.size_bytes < 5_000


def test_odd_dimensions_encode():
    image = noisy(33, 17)
    assert encode_jpeg(image, 50).size_bytes > 0
    assert encode_png(image).size_bytes > 0


def test_reencode_for_mobile_scales_and_compresses():
    image = noisy(200, 200)
    full = encode_jpeg(image, 90)
    mobile = reencode_for_mobile(image, quality=40, scale=0.5)
    assert mobile.size_bytes < full.size_bytes
    assert mobile.width == 100


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=100),
)
def test_encoders_never_crash_property(width, height, quality):
    image = RasterImage.blank(width, height, color=(13, 37, 73))
    assert encode_jpeg(image, quality).size_bytes > 0
    assert encode_png(image).size_bytes > 0


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 50), st.integers(2, 50), st.integers(1, 49))
def test_resize_dimensions_property(width, height, target):
    image = RasterImage.blank(width, height)
    resized = image.resized(target, target)
    assert (resized.width, resized.height) == (target, target)
