"""Fast-path primitives: keys, ETags, bundle serialization, storage."""

import re

from hypothesis import given, strategies as st

from repro.core import fastpath
from repro.core.cache import PrerenderCache
from repro.net.client import HttpClient
from repro.sim.clock import Clock
from tests.conftest import FORUM_HOST, NEWS_HOST


def test_key_anatomy_partitions_every_dimension():
    base = fastpath.fastpath_key("S", "/p", "phone", "spec1", "c1")
    assert base == "fastpath:S:/p:phone:spec1:c1"
    assert base != fastpath.fastpath_key("S", "/p", "tablet", "spec1", "c1")
    assert base != fastpath.fastpath_key("S", "/p", "phone", "spec2", "c1")
    assert base != fastpath.fastpath_key("S", "/p", "phone", "spec1", "c2")
    assert (
        fastpath.latest_key("S", "/p", "phone", "spec1")
        == "fastpath-latest:S:/p:phone:spec1"
    )


def test_content_fingerprint_tracks_source_bytes():
    a = fastpath.content_fingerprint("<html>a</html>")
    assert a == fastpath.content_fingerprint("<html>a</html>")
    assert a != fastpath.content_fingerprint("<html>b</html>")


def test_normalize_origin_collapses_inter_tag_newline_runs():
    assert fastpath.normalize_origin(
        "<div>\n      <p>x</p>  \n\t\n</div>"
    ) == "<div>\n<p>x</p>\n</div>"
    # Runs without a newline can be significant between inline tags.
    assert fastpath.normalize_origin("<b>a</b> <i>b</i>") == (
        "<b>a</b> <i>b</i>"
    )
    # Whitespace adjacent to *text* is content, not indentation.
    assert fastpath.normalize_origin("<p>\n  text\n  </p>") == (
        "<p>\n  text\n  </p>"
    )


#: ``normalize_origin``'s first form, kept as the reference: the same
#: runs, found with lookarounds so only the whitespace is replaced.
_LOOKAROUND_INTER_TAG_WS = re.compile(
    r"(?<=>)[ \t\r\f\v]*\n[ \t\r\f\v\n]*(?=<)"
)


@given(
    st.lists(
        st.sampled_from(
            ["<", ">", "<p>", "</p>", "a", " ", "\t", "\r", "\f", "\v",
             "\n", "\n  ", "><", ">\n<", "é"]
        ),
        max_size=40,
    ).map("".join)
)
def test_normalize_origin_equals_the_lookaround_reference(source):
    assert fastpath.normalize_origin(source) == (
        _LOOKAROUND_INTER_TAG_WS.sub("\n", source)
    )


def test_normalize_origin_equals_the_reference_on_the_origin_pages(origins):
    client = HttpClient(origins)
    for host in (FORUM_HOST, NEWS_HOST):
        page = client.get(f"http://{host}/").text_body
        assert ">\n" in page
        assert fastpath.normalize_origin(page) == (
            _LOOKAROUND_INTER_TAG_WS.sub("\n", page)
        )


def test_reindented_origins_share_one_content_fingerprint():
    """Cosmetic template churn must keep hitting the same bundle."""
    original = "<html>\n  <body>\n    <p>story</p>\n  </body>\n</html>"
    reindented = "<html>\n\t<body>\n\t\t\t<p>story</p>\n</body>\n\n</html>"
    edited = original.replace("story", "new story")
    fingerprint = lambda source: fastpath.content_fingerprint(
        fastpath.normalize_origin(source)
    )
    assert fingerprint(original) == fingerprint(reindented)
    assert fingerprint(original) != fingerprint(edited)


def test_etag_matching():
    etag = fastpath.make_etag("spec1", "phone", "c1")
    assert etag == '"spec1.phone.c1"'
    assert fastpath.etag_matches(etag, etag)
    assert fastpath.etag_matches("*", etag)
    assert fastpath.etag_matches(f'"other", {etag}', etag)
    assert not fastpath.etag_matches('"other"', etag)
    assert not fastpath.etag_matches("", etag)


def make_bundle():
    return fastpath.FastpathBundle(
        etag='"spec1.phone.c1"',
        entry_rel="index.html",
        entry_body=b"<html><body>hi</body></html>",
        files=[
            fastpath.BundleFile(
                "index.html", "text/html; charset=utf-8", b"<html>...",
            ),
            fastpath.BundleFile(
                "images/x.jpg", "image/jpeg", bytes(range(256)),
            ),
        ],
        subpages=[{"subpage_id": "main", "relpath": "main.html"}],
        notes=["note one"],
        snapshot_bytes=7,
        used_browser=True,
    )


def test_bundle_round_trips_binary_payloads():
    bundle = make_bundle()
    restored = fastpath.FastpathBundle.from_bytes(bundle.to_bytes())
    assert restored == bundle
    assert restored.files[1].data == bytes(range(256))
    assert restored.used_browser is True


def test_corrupt_or_versioned_out_bundles_miss():
    """The table of refusals is in ``test_bundle_container.py``."""
    assert fastpath.FastpathBundle.from_bytes(b"not json{") is None
    stale_version = bytearray(make_bundle().to_bytes())
    assert stale_version[4:6] == fastpath.BUNDLE_VERSION.to_bytes(2, "big")
    stale_version[5] -= 1
    assert fastpath.FastpathBundle.from_bytes(bytes(stale_version)) is None


def test_store_and_load_through_cache():
    cache = PrerenderCache(clock=Clock())
    key = fastpath.fastpath_key("S", "/p", "phone", "spec1", "c1")
    pointer = fastpath.latest_key("S", "/p", "phone", "spec1")
    assert fastpath.load_bundle(cache, key) is None
    fastpath.store_bundle(cache, key, pointer, make_bundle(), ttl_s=60)
    loaded = fastpath.load_bundle(cache, key)
    assert loaded is not None
    assert loaded.entry_rel == "index.html"


def test_stale_bundle_survives_expiry_via_pointer():
    clock = Clock()
    cache = PrerenderCache(clock=clock)
    key = fastpath.fastpath_key("S", "/p", "phone", "spec1", "c1")
    pointer = fastpath.latest_key("S", "/p", "phone", "spec1")
    fastpath.store_bundle(cache, key, pointer, make_bundle(), ttl_s=10)
    clock.advance(11)
    # Fresh lookup misses (the entry expired)...
    assert fastpath.load_bundle(cache, key) is None
    # ...but the degradation rung still finds it through the pointer.
    stale = fastpath.load_stale_bundle(cache, pointer)
    assert stale is not None
    assert stale.entry_html == "<html><body>hi</body></html>"


def test_stale_lookup_with_nothing_stored():
    cache = PrerenderCache(clock=Clock())
    pointer = fastpath.latest_key("S", "/p", "phone", "spec1")
    assert fastpath.load_stale_bundle(cache, pointer) is None
