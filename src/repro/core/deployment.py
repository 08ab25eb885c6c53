"""Multi-page proxy deployments.

The visual tool generates one proxy shell *per originating page* (§3.2);
a real mobilization covers several pages — the paper's deployment adapts
the entry page, and thread/forum pages keep their own adaptations.  A
:class:`ProxyDeployment` hosts many generated proxies behind one host
name, sharing the session manager (one cookie jar per user across all
pages), the pre-render cache, and the file store.

Routing: ``/<name>.php`` dispatches to the proxy registered under
``name``; the bare root serves the deployment's default page.  Each
member proxy keeps its own counters; the deployment aggregates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.pipeline import ProxyServices
from repro.core.proxy import MSiteProxy, ProxyCounters
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec
from repro.errors import CodegenError
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.observability.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)


@dataclass
class DeploymentEntry:
    name: str
    proxy: MSiteProxy


class ProxyDeployment(Application):
    """Several generated page proxies behind one mobile host."""

    def __init__(
        self, services: ProxyServices, default: Optional[str] = None
    ) -> None:
        self.services = services
        self.sessions = SessionManager(
            services.storage, clock=services.clock
        )
        self._entries: dict[str, DeploymentEntry] = {}
        self._default = default

    # -- registration -----------------------------------------------------

    def add_page(self, name: str, spec: AdaptationSpec) -> MSiteProxy:
        """Deploy one generated proxy under ``/<name>.php``."""
        if name in self._entries:
            raise CodegenError(f"deployment already has a page {name!r}")
        proxy = MSiteProxy(
            spec, self.services, proxy_base=f"{name}.php", namespace=name
        )
        # All member proxies share one session universe: a user carries
        # the same jar (and login state) from page to page.
        proxy.sessions = self.sessions
        self._entries[name] = DeploymentEntry(name=name, proxy=proxy)
        if self._default is None:
            self._default = name
        return proxy

    def page(self, name: str) -> MSiteProxy:
        return self._entries[name].proxy

    @property
    def page_names(self) -> list[str]:
        return sorted(self._entries)

    # -- dispatch ---------------------------------------------------------

    def handle(self, request: Request) -> Response:
        path = request.url.path.strip("/")
        if path == "metrics":
            # One registry spans every member proxy (series are labelled
            # per page), so the deployment exposes a single endpoint.
            return Response.binary(
                render_prometheus(
                    self.services.observability.registry
                ).encode("utf-8"),
                PROMETHEUS_CONTENT_TYPE,
            )
        if path == "traces":
            return Response.binary(
                self.services.observability.traces.dump_json().encode(
                    "utf-8"
                ),
                "application/json; charset=utf-8",
            )
        if not path and self._default is not None:
            return self._entries[self._default].proxy.handle(request)
        name = path.removesuffix(".php")
        entry = self._entries.get(name)
        if entry is None:
            return Response.not_found(
                f"no adapted page {name!r}; available: "
                f"{', '.join(self.page_names)}"
            )
        return entry.proxy.handle(request)

    # -- aggregate accounting -------------------------------------------------

    def total_counters(self) -> ProxyCounters:
        total = ProxyCounters()
        for entry in self._entries.values():
            total.add(**entry.proxy.counters.values())
        return total
