"""The bundle container: round trip, refusals, and the frozen layout.

A stored bundle is *read*, not parsed: a magic + version prefix, a u32
header length, a small JSON header of names and lengths, then the entry
HTML and the file payloads as they are.  ``from_bytes`` is total — any
bytes that are not exactly such a container are a miss (``None``),
never an exception and never a leniently decoded bundle — and the layout
is pinned by ``golden/make_bundle.v2.bin`` so it cannot drift without a
``BUNDLE_VERSION`` bump.
"""

import dataclasses
import json
import pathlib
import random
import struct

import pytest
from hypothesis import given, strategies as st

from repro.core import fastpath
from repro.core.cache import PrerenderCache
from repro.core.fastpath import BundleFile, FastpathBundle
from repro.core.pipeline import ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.sim.clock import Clock
from tests.conftest import FORUM_HOST, PROXY_HOST
from tests.fastpath.test_fastpath_cache import make_bundle

GOLDEN = pathlib.Path(__file__).parent / "golden" / "make_bundle.v2.bin"

# ---------------------------------------------------------------------------
# round trip

_text = st.text(max_size=40)  # any code point bar surrogates: non-ASCII too
_json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**40), 2**40), _text
)
_bundles = st.builds(
    FastpathBundle,
    etag=_text,
    entry_rel=_text,
    entry_body=st.text(max_size=200).map(str.encode),
    files=st.lists(
        st.builds(BundleFile, _text, _text, st.binary(max_size=300)),
        max_size=6,
    ),
    subpages=st.lists(
        st.dictionaries(_text, _json_scalar, max_size=4), max_size=4
    ),
    notes=st.lists(_text, max_size=4),
    snapshot_bytes=st.integers(0, 2**40),
    used_browser=st.booleans(),
)


@given(_bundles)
def test_every_bundle_round_trips(bundle):
    raw = bundle.to_bytes()
    assert bundle.encoded_size() == len(raw)
    assert FastpathBundle.from_bytes(raw) == bundle
    # ...and the container is its payloads plus a small header, no more.
    payload = len(bundle.entry_html.encode("utf-8")) + sum(
        len(item.data) for item in bundle.files
    )
    header_len = struct.unpack_from(">I", raw, 6)[0]
    assert len(raw) == 10 + header_len + payload


def test_a_bundle_of_no_files_and_of_empty_files_round_trips():
    empty = [BundleFile("a", "t", b""), BundleFile("ü/b", "t", b"")]
    for files in ([], empty):
        bundle = FastpathBundle(
            '"e"', "índex.html", "<p>héllo ✓</p>".encode(), files
        )
        assert FastpathBundle.from_bytes(bundle.to_bytes()) == bundle


def test_the_layout_is_frozen():
    """Changing a byte of this file means bumping ``BUNDLE_VERSION``."""
    golden = GOLDEN.read_bytes()
    assert make_bundle().to_bytes() == golden
    assert FastpathBundle.from_bytes(golden) == make_bundle()
    assert golden[:4] == b"MSFP"
    assert struct.unpack_from(">HI", golden, 4) == (
        fastpath.BUNDLE_VERSION, golden.index(b"}<html>") + 1 - 10,
    )


# ---------------------------------------------------------------------------
# refusals

V1_JSON_BUNDLE = json.dumps(
    {
        "version": 1, "etag": '"spec1.phone.c1"', "entry_rel": "index.html",
        "entry_html": "<html></html>",
        "files": [{
            "relpath": "index.html", "content_type": "text/html",
            "data": "PGh0bWw+PC9odG1sPg==",
        }],
        "subpages": [], "notes": [], "snapshot_bytes": 0,
        "used_browser": False,
    }
).encode("utf-8")

_OMIT = object()


def _container(header: bytes, payload=b"hiabc", version=None) -> bytes:
    version = fastpath.BUNDLE_VERSION if version is None else version
    prefix = b"MSFP" + struct.pack(">HI", version, len(header))
    return prefix + header + payload


def _header(**changes) -> bytes:
    """A header for the payload ``b"hi" + b"abc"``, with ``changes``."""
    fields = {
        "etag": "e", "entry_rel": "index.html", "entry_html": 2,
        "files": [["index.html", "text/html", 3]], "subpages": [],
        "notes": [], "snapshot_bytes": 0, "used_browser": False,
    }
    fields.update(changes)
    return json.dumps(
        {key: value for key, value in fields.items() if value is not _OMIT}
    ).encode("utf-8")


MALFORMED = {
    "empty": b"",
    "not a container": b"not json{",
    "json list": b"[]",
    "v1 stub": b'{"version":1}',
    "v1 json bundle": V1_JSON_BUNDLE,
    "prefix only": b"MSFP",
    "wrong magic": b"XSFP" + make_bundle().to_bytes()[4:],
    "version 1": _container(_header(), version=1),
    "version 3": _container(_header(), version=3),
    "header length past the end": b"MSFP" + struct.pack(">HI", 2, 1 << 30),
    "header not json": _container(b"{nope"),
    "header not utf-8": _container(b'{"etag":"\xff"}'),
    "header a list": _container(b"[]"),
    "header nested past the recursion limit": _container(b"[" * 100_000),
    "key missing": _container(_header(notes=_OMIT)),
    "key extra": _container(_header(version=2)),
    "etag not a string": _container(_header(etag=None)),
    "files not a list": _container(_header(files="abc")),
    "file row a string": _container(_header(files=["abc"])),
    "file row a dict": _container(_header(files=[{"a": 1, "b": 2, "c": 3}])),
    "file row short": _container(_header(files=[["a", 3]])),
    "file length a string": _container(_header(files=[["a", "t", "3"]])),
    "file length a float": _container(_header(files=[["a", "t", 3.0]])),
    "file length a bool": _container(
        _header(entry_html=4, files=[["a", "t", True]])
    ),
    "file length negative": _container(
        _header(entry_html=6, files=[["a", "t", -1]])
    ),
    "html length negative": _container(
        _header(entry_html=-1, files=[["a", "t", 6]])
    ),
    "subpage not a dict": _container(_header(subpages=["x"])),
    "note not a string": _container(_header(notes=[1])),
    "snapshot_bytes a string": _container(_header(snapshot_bytes="7")),
    "used_browser an int": _container(_header(used_browser=1)),
    "payload one byte short": _container(_header(), b"hiab"),
    "payload one byte long": _container(_header(), b"hiabcd"),
    "entry html not utf-8": _container(_header(), b"\xff\xfeabc"),
}


def test_the_table_s_helpers_build_a_container_that_does_load():
    good = FastpathBundle.from_bytes(_container(_header()))
    assert (good.entry_html, good.files[0].data) == ("hi", b"abc")


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_container_is_a_miss_on_both_rungs(name):
    raw = MALFORMED[name]
    assert FastpathBundle.from_bytes(raw) is None
    clock = Clock()
    cache = PrerenderCache(clock=clock)
    cache.put("k", raw, ttl_s=10)
    cache.put("pointer", "k", content_type="text/plain", ttl_s=10)
    assert fastpath.load_bundle(cache, "k") is None
    assert fastpath.load_stale_bundle(cache, "pointer") is None
    clock.advance(11)
    assert fastpath.load_stale_bundle(cache, "pointer") is None


def test_payloads_are_never_decoded_leniently():
    """Base64 skipped what it did not know (``'!!!'`` came back as an
    empty file); a container's payload is the bytes themselves."""
    bundle = make_bundle()
    bundle = dataclasses.replace(
        bundle, files=(bundle.files[0]._replace(data=b"!!!"),)
    )
    assert FastpathBundle.from_bytes(bundle.to_bytes()).files[0].data == b"!!!"


# ---------------------------------------------------------------------------
# mutation fuzz: None, or a bundle of the same payload lengths; no raise


def _lengths(bundle):
    return [len(bundle.entry_html.encode("utf-8"))] + [
        len(item.data) for item in bundle.files
    ]


def test_every_truncation_is_a_miss():
    raw = make_bundle().to_bytes()
    for cut in range(len(raw)):
        assert FastpathBundle.from_bytes(raw[:cut]) is None, cut


def test_every_single_bit_flip_is_a_miss_or_keeps_every_length():
    original = make_bundle()
    raw = original.to_bytes()
    survivors = 0
    for at in range(len(raw)):
        for bit in range(8):
            mutated = bytearray(raw)
            mutated[at] ^= 1 << bit
            bundle = FastpathBundle.from_bytes(bytes(mutated))
            if bundle is not None:
                survivors += 1
                assert _lengths(bundle) == _lengths(original), (at, bit)
    assert survivors  # payload bytes are opaque: flips there do load


def test_random_inserts_and_deletes_are_a_miss_or_still_add_up():
    rng = random.Random(0x5EED)
    raw = make_bundle().to_bytes()
    for _ in range(3000):
        mutated = bytearray(raw)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(mutated) + 1)
            if rng.random() < 0.5 and at < len(mutated):
                del mutated[at]
            else:
                mutated.insert(at, rng.randrange(256))
        bundle = FastpathBundle.from_bytes(bytes(mutated))
        if bundle is not None:
            # Whatever still loads accounts for every byte it was given.
            header_len = struct.unpack_from(">I", mutated, 6)[0]
            assert 10 + header_len + sum(_lengths(bundle)) == len(mutated)


# ---------------------------------------------------------------------------
# through the proxy: a bad stored bundle costs a full run, never a 500


class _Down(Application):
    def handle(self, request: Request) -> Response:
        return Response.text("origin down", status=500)


def _make_proxy(origins, clock, **flags):
    spec = AdaptationSpec(site="SawmillCreek", origin_host=FORUM_HOST)
    spec.add("cacheable", ttl_s=3600)
    spec.add(
        "subpage", ObjectSelector.css("#loginform"),
        subpage_id="login", title="Log in",
    )
    services = ProxyServices(origins=origins, clock=clock, **flags)
    return MSiteProxy(spec, services, proxy_base="proxy.php")


def _visit(proxy, clock):
    client = HttpClient({PROXY_HOST: proxy}, jar=CookieJar(), clock=clock)
    return client.get(f"http://{PROXY_HOST}/proxy.php")


def _bundle_key(proxy):
    (key,) = [
        key for key in proxy.services.cache.keys()
        if key.startswith("fastpath:")
    ]
    return key


def _stores(proxy):
    return proxy.services.observability.registry.counter(
        "msite_fastpath_stores_total"
    ).value


@pytest.mark.parametrize("delta_enabled", [True, False])
@pytest.mark.parametrize(
    "garbage", [b"\xff\xfe garbage", b"[]", V1_JSON_BUNDLE],
    ids=["not-utf8", "json-list", "v1-json"],
)
def test_a_bad_entry_under_a_live_key_is_readapted_and_replaced(
    origins, garbage, delta_enabled
):
    oracle = _visit(_make_proxy(origins, Clock()), Clock()).body
    clock = Clock()
    proxy = _make_proxy(origins, clock, delta_enabled=delta_enabled)
    assert _visit(proxy, clock).body == oracle
    cache, key = proxy.services.cache, _bundle_key(proxy)
    good = cache.peek(key).data
    cache.put(key, garbage, ttl_s=3600)

    response = _visit(proxy, clock)  # revalidates: origin 304, bundle bad
    assert response.status == 200
    assert response.body == oracle
    assert "X-MSite-Degraded" not in response.headers
    assert fastpath.load_bundle(cache, key) is not None  # v2 again
    if not delta_enabled:
        # The full pipeline ran and stored what the first run had; with
        # the delta engine on, its memo re-stores the bundle instead.
        trace = proxy.services.observability.traces.last()
        assert "adapt" in trace.span_names()
        assert _stores(proxy) == 2
        assert cache.peek(key).data == good

    stores = _stores(proxy)
    replay = _visit(proxy, clock)
    assert replay.body == oracle and _stores(proxy) == stores


def test_origin_down_over_a_bad_bundle_takes_the_next_rung_not_a_500(origins):
    clock = Clock()
    proxy = _make_proxy(origins, clock)
    assert _visit(proxy, clock).status == 200
    proxy.services.cache.put(_bundle_key(proxy), b"\xff garbage", ttl_s=3600)
    origins[FORUM_HOST] = _Down()
    response = _visit(proxy, clock)  # a raise here would be the 500
    assert (
        "X-MSite-Degraded" in response.headers
        or response.status in (502, 503, 504)
    )
