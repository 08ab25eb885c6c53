"""In-process HTTP client.

Routes requests to registered origin :class:`Application` objects by host
name, follows redirects, sends/stores cookies through an optional
:class:`CookieJar`, and keeps a transfer ledger (bytes and request counts)
that the device timing models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import FetchError
from repro.net.cookies import CookieJar
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.net.url import URL


@dataclass
class TransferLedger:
    """Accounting of traffic moved through a client."""

    requests: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    responses_by_status: dict[int, int] = field(default_factory=dict)

    def record(self, request: Request, response: Response) -> None:
        self.requests += 1
        self.bytes_sent += request.wire_size()
        self.bytes_received += response.wire_size()
        self.responses_by_status[response.status] = (
            self.responses_by_status.get(response.status, 0) + 1
        )

    @property
    def not_modified(self) -> int:
        """Body-less 304 answers to conditional requests."""
        return self.responses_by_status.get(304, 0)

    def reset(self) -> None:
        self.requests = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.responses_by_status.clear()


class HttpClient:
    """Client bound to a map of host name → origin application."""

    def __init__(
        self,
        origins: Optional[dict[str, Application]] = None,
        jar: Optional[CookieJar] = None,
        clock=None,
        max_redirects: int = 5,
    ) -> None:
        self.origins: dict[str, Application] = dict(origins or {})
        self.jar = jar
        self.clock = clock
        self.max_redirects = max_redirects
        self.ledger = TransferLedger()

    def register(self, host: str, application: Application) -> None:
        self.origins[host.lower()] = application

    @property
    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def send(self, request: Request) -> Response:
        """Dispatch one request (no redirect following)."""
        application = self.origins.get(request.url.host)
        if application is None:
            raise FetchError(f"no origin registered for host {request.url.host!r}")
        if self.jar is not None:
            header = self.jar.cookie_header(request.url, self._now)
            if header is not None and "Cookie" not in request.headers:
                request.headers.set("Cookie", header)
        request.headers.set("Host", request.url.host)
        response = application.handle(request)
        if self.jar is not None:
            self.jar.store_response_cookies(
                response.headers, request.url, self._now
            )
        self.ledger.record(request, response)
        return response

    def request(self, request: Request) -> Response:
        """Dispatch a request, following redirects."""
        response = self.send(request)
        redirects = 0
        while response.is_redirect:
            redirects += 1
            if redirects > self.max_redirects:
                raise FetchError(
                    f"redirect loop fetching {request.url} "
                    f"(>{self.max_redirects} hops)"
                )
            location = response.headers.get("Location") or "/"
            target = request.url.join(location)
            method = request.method
            body = request.body
            if response.status == 303 or (
                response.status in (301, 302) and method == "POST"
            ):
                method = "GET"
                body = b""
            request = Request(method=method, url=target, body=body)
            response = self.send(request)
        return response

    def get(self, url: Union[str, URL], **headers: str) -> Response:
        return self.request(Request.get(url, **headers))

    def post(
        self, url: Union[str, URL], form: Optional[dict[str, str]] = None
    ) -> Response:
        return self.request(Request.post(url, form))
