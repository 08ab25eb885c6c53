"""Rich-media thumbnail snapshots."""

import pytest

from repro.core.media import (
    is_rich_media,
    media_source,
    render_thumbnail,
    replace_rich_media,
)
from repro.html.parser import parse_html

PAGE = """
<html><body>
<embed src="/videos/shop_tour.swf" width="480" height="360">
<object data="/clips/jointing.mp4" width="320" height="240"></object>
<object width="400" height="300">
  <param name="movie" value="/flash/banner.swf">
</object>
<video src="/clips/resaw.mp4" width="640" height="480"></video>
<iframe src="/player/clip.swf" width="200" height="150"></iframe>
<iframe src="/regular/page.html"></iframe>
<img src="/images/photo.jpg">
</body></html>
"""


@pytest.fixture()
def page():
    return parse_html(PAGE)


def test_rich_media_classification(page):
    tags = {
        element.tag: is_rich_media(element)
        for element in page.all_elements()
        if element.tag in ("embed", "object", "video", "iframe", "img")
    }
    assert tags["embed"]
    assert tags["object"]
    assert tags["video"]
    assert not tags["img"]


def test_media_iframe_detected(page):
    iframes = page.get_elements_by_tag("iframe")
    assert is_rich_media(iframes[0])  # .swf player
    assert not is_rich_media(iframes[1])  # ordinary page


def test_media_source_variants(page):
    embed = page.get_elements_by_tag("embed")[0]
    assert media_source(embed) == "/videos/shop_tour.swf"
    objects = page.get_elements_by_tag("object")
    assert media_source(objects[0]) == "/clips/jointing.mp4"
    assert media_source(objects[1]) == "/flash/banner.swf"  # via <param>


def test_render_thumbnail_deterministic():
    a = render_thumbnail("/x.swf", 160, 120)
    b = render_thumbnail("/x.swf", 160, 120)
    c = render_thumbnail("/y.swf", 160, 120)
    assert a == b
    assert a != c
    assert len(a) > 500


def test_replace_all_rich_media(page):
    sink = {}
    replaced = replace_rich_media(page, sink)
    assert replaced == 5
    assert len(sink) == 5
    # Media elements are gone; thumbnails link to the originals.
    assert page.get_elements_by_tag("embed") == []
    assert page.get_elements_by_tag("video") == []
    thumbs = page.get_elements_by_class("msite-media-thumb")
    assert len(thumbs) == 5
    links = {
        thumb.parent.get("href")
        for thumb in thumbs
        if thumb.parent is not None
    }
    assert "/videos/shop_tour.swf" in links
    assert "/flash/banner.swf" in links


def test_thumbnails_capped_at_max_width(page):
    sink = {}
    replace_rich_media(page, sink, max_width=160)
    for thumb in page.get_elements_by_class("msite-media-thumb"):
        assert int(thumb.get("width")) <= 160
        assert int(thumb.get("height")) >= 8


def test_aspect_ratio_preserved(page):
    sink = {}
    replace_rich_media(page, sink, max_width=160)
    thumbs = page.get_elements_by_class("msite-media-thumb")
    # The 480x360 embed becomes 160x120.
    sizes = {
        (int(t.get("width")), int(t.get("height"))) for t in thumbs
    }
    assert (160, 120) in sizes


def test_targeted_replacement(page):
    sink = {}
    embed = page.get_elements_by_tag("embed")[0]
    replaced = replace_rich_media(page, sink, targets=[embed])
    assert replaced == 1
    assert page.get_elements_by_tag("video")  # untouched


def test_ordinary_iframe_untouched(page):
    sink = {}
    replace_rich_media(page, sink)
    iframes = page.get_elements_by_tag("iframe")
    assert len(iframes) == 1
    assert iframes[0].get("src") == "/regular/page.html"


def test_attribute_through_pipeline(origins, clock):
    """The media_thumbnail attribute end to end on a media-bearing page."""
    from repro.core.pipeline import AdaptationPipeline, ProxyServices
    from repro.core.sessions import SessionManager
    from repro.core.spec import AdaptationSpec
    from repro.net.messages import Request, Response
    from repro.net.server import Application

    class MediaSite(Application):
        def handle(self, request):
            return Response.html(PAGE)

    services = ProxyServices(
        origins={"media.example": MediaSite()}, clock=clock
    )
    session = SessionManager(clock=clock).create()
    spec = AdaptationSpec(site="M", origin_host="media.example",
                          page_path="/")
    spec.add("media_thumbnail", max_width=120)
    result = AdaptationPipeline(spec, services, session).run()
    assert "msite-media-thumb" in result.entry_html
    assert "images/media0.jpg" in result.files
    assert any("media_thumbnail" in note for note in result.notes)
