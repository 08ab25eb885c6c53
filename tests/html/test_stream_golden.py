"""Golden byte-identity: streaming output vs DOM round-trip.

Every page of the synthetic forum corpus must stream to exactly the
bytes the parse+serialize path produces.
"""

import pytest

from repro.html.parser import parse_html
from repro.html.serializer import serialize
from repro.html.stream import stream_serialize
from repro.net.client import HttpClient
from tests.conftest import FORUM_HOST

CORPUS_PATHS = [
    "/index.php",
    "/login.php",
    "/calendar.php",
    "/forumdisplay.php?f=1",
    "/showthread.php?t=1",
    "/members.php?u=1",
]


@pytest.fixture(scope="module")
def corpus(forum_app_module):
    client = HttpClient({FORUM_HOST: forum_app_module})
    pages = {}
    for path in CORPUS_PATHS:
        response = client.get(f"http://{FORUM_HOST}{path}")
        if response.ok:
            pages[path] = response.text_body
    assert pages, "forum corpus is empty"
    return pages


@pytest.fixture(scope="module")
def forum_app_module():
    from repro.sites.forum.app import ForumApplication

    return ForumApplication()


def test_corpus_streams_byte_identical(corpus):
    for path, source in corpus.items():
        expected = serialize(parse_html(source))
        assert stream_serialize(source) == expected, (
            f"stream output diverged from the DOM round-trip on {path}"
        )
