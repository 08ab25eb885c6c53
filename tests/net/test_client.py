"""In-process HTTP client: routing, cookies, redirects, accounting."""

import pytest

from repro.errors import FetchError
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.net.messages import Request, Response
from repro.net.server import Application


class EchoApp(Application):
    def __init__(self):
        self.seen = []

    def handle(self, request):
        self.seen.append(request)
        if request.url.path == "/set":
            response = Response.text("cookie set")
            response.set_cookie("sid", "s1")
            return response
        if request.url.path == "/whoami":
            return Response.text(request.cookies.get("sid", "anon"))
        if request.url.path == "/bounce":
            return Response.redirect("/target")
        if request.url.path == "/bounce-post":
            return Response.redirect("/target", status=303)
        if request.url.path == "/loop":
            return Response.redirect("/loop")
        if request.url.path == "/target":
            return Response.text(f"landed via {request.method}")
        return Response.text("ok")


@pytest.fixture()
def app():
    return EchoApp()


@pytest.fixture()
def client(app):
    return HttpClient({"h": app}, jar=CookieJar())


def test_unknown_host_raises(client):
    with pytest.raises(FetchError):
        client.get("http://unknown-host/")


def test_host_header_set(client, app):
    client.get("http://h/")
    assert app.seen[-1].headers.get("Host") == "h"


def test_cookies_stored_and_sent(client):
    client.get("http://h/set")
    assert client.get("http://h/whoami").text_body == "s1"


def test_no_jar_no_cookies(app):
    client = HttpClient({"h": app})
    client.get("http://h/set")
    assert client.get("http://h/whoami").text_body == "anon"


def test_redirect_followed(client):
    response = client.get("http://h/bounce")
    assert response.text_body == "landed via GET"


def test_post_redirect_303_becomes_get(client):
    response = client.post("http://h/bounce-post", {"a": "1"})
    assert response.text_body == "landed via GET"


def test_redirect_loop_detected(client):
    with pytest.raises(FetchError):
        client.get("http://h/loop")


def test_send_does_not_follow_redirects(client):
    response = client.send(Request.get("http://h/bounce"))
    assert response.status == 302


def test_ledger_accounts_traffic(client):
    client.ledger.reset()
    client.get("http://h/")
    client.get("http://h/set")
    assert client.ledger.requests == 2
    assert client.ledger.bytes_received > 0
    assert client.ledger.bytes_sent > 0
    assert client.ledger.responses_by_status.get(200) == 2


def test_ledger_shows_a_not_modified_round_trip():
    from repro.sites.news.app import NewsApplication

    client = HttpClient({"h": NewsApplication()})
    full = client.get("http://h/section/tech/")
    full_bytes = client.ledger.bytes_received
    assert client.ledger.not_modified == 0
    again = client.get(
        "http://h/section/tech/", If_None_Match=full.headers.get("ETag")
    )
    assert again.status == 304 and again.body == b""
    assert client.ledger.not_modified == 1
    assert client.ledger.responses_by_status == {200: 1, 304: 1}
    assert client.ledger.bytes_received - full_bytes < 100  # headers only
    client.ledger.reset()
    assert client.ledger.not_modified == 0


def test_register_additional_origin(client):
    other = EchoApp()
    client.register("other-host", other)
    assert client.get("http://other-host/").ok
    assert len(other.seen) == 1
