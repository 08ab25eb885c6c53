"""Origin conformance: strong ETags and body-less 304s, three families.

One parametrised body.  Each family names the page a spec adapts, the
function only a render calls, and one edit of the state that page shows.
"""

import sys
import threading
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.net.client import HttpClient
from repro.net.conditional import strong_etag
from repro.net.cookies import CookieJar
from repro.net.messages import Request
from repro.sites.classifieds.app import ClassifiedsApplication
from repro.sites.classifieds.data import ListingGenerator
from repro.sites.forum import templates as forum_templates
from repro.sites.forum.app import ForumApplication
from repro.sites.forum.data import CommunityGenerator
from repro.sites.news.app import NewsApplication
from repro.sites.news.data import Newsroom

HOST = "origin.example"


def _edit_listing(app, price=1):
    first = app.listings.category("tls")[0]
    app.listings.edit(first.listing_id, price=first.price + price)


@dataclass(frozen=True)
class Family:
    name: str
    make: Callable[[], object]
    path: str
    #: (owner, attribute) of a function only rendering the page calls.
    render: tuple[object, str]
    edit: Callable[[object], None]
    #: A second, different edit that also takes a fresh origin to
    #: "revision 1".
    other_edit: Callable[[object], None]


FAMILIES = [
    Family(
        "forum",
        lambda: ForumApplication(CommunityGenerator().generate()),
        "/index.php",
        (forum_templates, "entry_page"),
        lambda app: setattr(app.community, "announcement", "Shop closed."),
        lambda app: setattr(app.community, "announcement", "Shop open."),
    ),
    Family(
        "news",
        lambda: NewsApplication(Newsroom()),
        "/section/tech/",
        (NewsApplication, "_teaser"),
        lambda app: app.newsroom.revise(),
        lambda app: app.newsroom.revise("metro"),
    ),
    Family(
        "classifieds",
        ClassifiedsApplication,
        "/tls/",
        (ClassifiedsApplication, "_listing_row"),
        _edit_listing,
        lambda app: _edit_listing(app, price=2),
    ),
]


def get(app, path, jar=None, **headers):
    client = HttpClient({HOST: app}, jar=jar)
    return client.send(Request.get(f"http://{HOST}{path}", **headers))


@pytest.fixture(params=FAMILIES, ids=lambda family: family.name)
def family(request):
    return request.param


def test_conditional_get_conformance(family, monkeypatch):
    app = family.make()
    first = get(app, family.path)
    etag = first.headers.get("ETag")
    assert first.status == 200 and first.body
    assert etag and etag.startswith('"')  # strong: no W/ prefix

    owner, name = family.render
    real = getattr(owner, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    # Patched on the class, read through the instance: a plain function
    # here behaves as the staticmethod / module function it replaces.
    monkeypatch.setattr(owner, name, staticmethod(spy))
    for validator in (etag, "*", f'"stale", {etag}'):
        again = get(app, family.path, If_None_Match=validator)
        assert again.status == 304
        assert again.body == b""
        assert again.headers.get("ETag") == etag
    assert calls == []  # answered from the memo, nothing rendered
    assert get(app, family.path, If_None_Match='"stale"').status == 200
    assert calls

    family.edit(app)
    changed = get(app, family.path, If_None_Match=etag)
    assert changed.status == 200
    assert changed.body != first.body
    assert changed.headers.get("ETag") not in (None, etag)


def test_equal_revision_numbers_do_not_share_a_validator(family):
    one, other = family.make(), family.make()
    assert (
        get(one, family.path).headers.get("ETag")
        == get(other, family.path).headers.get("ETag")
    )  # same seed, same bytes
    family.edit(one)
    family.other_edit(other)
    etag = get(one, family.path).headers.get("ETag")
    crossed = get(other, family.path, If_None_Match=etag)
    assert crossed.status == 200
    assert crossed.headers.get("ETag") != etag


def test_non_page_answers_carry_no_validator(family):
    app = family.make()
    missing = get(app, "/no/such/page/at/all")
    assert missing.status == 404
    assert missing.headers.get("ETag") is None


def test_forum_etag_varies_with_login_state():
    app = ForumApplication(CommunityGenerator().generate())
    anonymous = get(app, "/index.php")
    jar = CookieJar()
    client = HttpClient({HOST: app}, jar=jar)
    login = client.post(
        f"http://{HOST}/login.php",
        {"vb_login_username": "woodfan", "vb_login_password": "hunter2"},
    )
    assert login.ok and jar.get("bbsessionhash") is not None
    member = get(app, "/index.php", jar=jar)
    assert member.headers.get("ETag") != anonymous.headers.get("ETag")
    # The anonymous validator does not vouch for the member's page...
    crossed = get(
        app, "/index.php", jar=jar,
        If_None_Match=anonymous.headers.get("ETag"),
    )
    assert crossed.status == 200 and b"woodfan" in crossed.body
    # ...and each side's own validator does vouch for its own.
    assert get(
        app, "/index.php", jar=jar,
        If_None_Match=member.headers.get("ETag"),
    ).status == 304
    assert get(
        app, "/index.php", If_None_Match=anonymous.headers.get("ETag")
    ).status == 304


def test_nested_edit_is_published_by_touch():
    app = ForumApplication(CommunityGenerator().generate())
    etag = get(app, "/index.php").headers.get("ETag")
    app.community.categories[0].forums[0].title = "Renamed forum"
    # The memo cannot see inside the model: still vouching...
    assert get(app, "/index.php", If_None_Match=etag).status == 304
    app.community.touch()
    renamed = get(app, "/index.php", If_None_Match=etag)
    assert renamed.status == 200 and b"Renamed forum" in renamed.body


def test_the_memo_is_bounded():
    app = ClassifiedsApplication(ListingGenerator())
    app._pages._limit = 4
    for listing in app.listings.category("tls")[:12]:
        assert get(app, listing.path).status == 200
    assert len(app._pages._etags) <= 4


def test_a_304_never_vouches_for_stale_bytes_under_concurrent_edits():
    """Editors and conditional readers on one newsroom, more threads
    than cores: every 200 carries the digest of its own body, and once
    the edits stop a validator is honoured iff its bytes are current."""
    app = NewsApplication(Newsroom())
    path = "/section/tech/"
    seen = {}  # etag -> body
    stop = threading.Event()

    broken = []  # a thread's failed assertion would otherwise be lost

    def reader():
        etag = None
        while not stop.is_set():
            headers = {"If_None_Match": etag} if etag else {}
            response = get(app, path, **headers)
            if response.status == 200:
                etag = response.headers.get("ETag")
                if etag != strong_etag(response.body):
                    broken.append((etag, response))
                seen[etag] = response.body
            elif response.status != 304 or response.body:
                broken.append((etag, response))

    def editor():
        for _ in range(60):
            app.newsroom.revise()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=reader) for _ in range(4)]
        editors = [threading.Thread(target=editor) for _ in range(2)]
        for thread in readers + editors:
            thread.start()
        for thread in editors:
            thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers + editors)
    assert app.newsroom.revision_count == 120 and not broken

    current = get(app, path).body
    assert len(seen) > 1
    for etag, body in seen.items():
        status = get(app, path, If_None_Match=etag).status
        assert (status == 304) == (body == current)
