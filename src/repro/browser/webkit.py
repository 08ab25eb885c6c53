"""The heavyweight server-side browser.

A :class:`ServerBrowser` behaves like the paper's embedded Qt/WebKit
instance: it owns private cookie state, fetches the page and all its
subresources, runs the full style/layout/paint pipeline, and must be
launched and disposed per use (the paper rejects instance sharing:
"using a browser pool can potentially violate security assumptions if
shared by multiple clients", §4.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.dom.document import Document
from repro.errors import RenderError
from repro.html.parser import parse_html
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.net.url import URL
from repro.browser.costs import BrowserCostModel, DEFAULT_COST_MODEL
from repro.browser.scripting import ScriptRuntime
from repro.render.snapshot import PageSnapshot, render_snapshot


@dataclass
class PageLoadResult:
    """Everything a full browser load produces."""

    url: URL
    document: Document
    snapshot: PageSnapshot
    resources_fetched: int
    total_bytes: int
    css_bytes: int = 0
    script_bytes: int = 0
    image_bytes: int = 0
    core_seconds: float = 0.0


class ServerBrowser:
    """One disposable browser instance bound to one user's cookie jar."""

    _instances_alive = 0

    def __init__(
        self,
        client: HttpClient,
        jar: Optional[CookieJar] = None,
        viewport_width: int = 1024,
        costs: BrowserCostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.client = HttpClient(
            origins=client.origins, jar=jar, clock=client.clock
        )
        self.viewport_width = viewport_width
        self.costs = costs
        self.scripts = ScriptRuntime()
        self._launched = False
        self._disposed = False

    # -- lifecycle -----------------------------------------------------------

    def launch(self) -> "ServerBrowser":
        if self._disposed:
            raise RenderError("browser instance already disposed")
        if not self._launched:
            self._launched = True
            ServerBrowser._instances_alive += 1
        return self

    def dispose(self) -> None:
        if self._launched and not self._disposed:
            ServerBrowser._instances_alive -= 1
        self._disposed = True

    def __enter__(self) -> "ServerBrowser":
        return self.launch()

    def __exit__(self, *exc_info) -> None:
        self.dispose()

    @classmethod
    def instances_alive(cls) -> int:
        return cls._instances_alive

    # -- loading --------------------------------------------------------------

    def load(
        self,
        url: Union[str, URL],
        run_scripts: bool = True,
        max_height: int = 8192,
    ) -> PageLoadResult:
        """Fetch, parse, fetch subresources, style, lay out, and paint."""
        if not self._launched or self._disposed:
            raise RenderError("browser must be launched before loading pages")
        parsed = url if isinstance(url, URL) else URL.parse(url)
        self.client.ledger.reset()
        response = self.client.get(parsed)
        if not response.ok:
            raise RenderError(
                f"browser load failed: {response.status} for {parsed}"
            )
        document = parse_html(response.text_body)
        external_css, css_bytes = self.fetch_stylesheets(document, parsed)
        script_bytes = self._fetch_scripts(document, parsed)
        image_bytes, image_count = self._fetch_images(document, parsed)
        if run_scripts:
            self.scripts.run_document_scripts(document)
        snapshot = render_snapshot(
            document,
            viewport_width=self.viewport_width,
            external_css=external_css,
            max_height=max_height,
        )
        ledger = self.client.ledger
        return PageLoadResult(
            url=parsed,
            document=document,
            snapshot=snapshot,
            resources_fetched=ledger.requests,
            total_bytes=ledger.bytes_received,
            css_bytes=css_bytes,
            script_bytes=script_bytes,
            image_bytes=image_bytes,
            core_seconds=self.costs.browser_request_s,
        )

    # -- subresources ------------------------------------------------------------

    def fetch_stylesheets(
        self, document: Document, base: URL
    ) -> tuple[dict[str, str], int]:
        """``(href → stylesheet text, bytes fetched)`` for the linked
        stylesheets of a document the caller already holds."""
        external: dict[str, str] = {}
        total = 0
        for element in document.all_elements():
            if (
                element.tag == "link"
                and (element.get("rel") or "").lower() == "stylesheet"
            ):
                href = element.get("href")
                if not href:
                    continue
                response = self._try_fetch(base.join(href))
                if response is not None:
                    external[href] = response.text_body
                    total += len(response.body)
        return external, total

    def _fetch_scripts(self, document: Document, base: URL) -> int:
        total = 0
        for element in document.all_elements():
            if element.tag == "script" and element.get("src"):
                response = self._try_fetch(base.join(element.get("src")))
                if response is not None:
                    total += len(response.body)
        return total

    def _fetch_images(self, document: Document, base: URL) -> tuple[int, int]:
        total = 0
        count = 0
        seen: set[str] = set()
        for element in document.all_elements():
            if element.tag == "img" and element.get("src"):
                src = element.get("src")
                if src in seen:
                    continue
                seen.add(src)
                response = self._try_fetch(base.join(src))
                if response is not None:
                    total += len(response.body)
                    count += 1
        return total, count

    def _try_fetch(self, url: URL):
        try:
            response = self.client.get(url)
        except Exception:
            return None
        return response if response.ok else None
