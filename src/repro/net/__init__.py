"""HTTP substrate: URLs, messages, cookies, origin servers, link models.

The m.Site proxy downloads originating pages on demand, manages per-user
cookie jars, performs HTTP authentication on behalf of clients, and serves
generated subpages (§3.2).  Everything here runs in-process: origin sites
are :class:`Application` objects wired to a host name, and the
:class:`HttpClient` routes requests to them while accounting for bytes
moved (which the device timing models turn into wall-clock time).
"""

from repro.net.url import URL
from repro.net.headers import Headers
from repro.net.cookies import Cookie, CookieJar, parse_set_cookie
from repro.net.messages import Request, Response
from repro.net.status import STATUS_REASONS
from repro.net.server import Application, Router, route
from repro.net.client import HttpClient
from repro.net.conditional import (
    ConditionalPages,
    etag_matches,
    not_modified,
    strong_etag,
)
from repro.net.network import (
    NetworkLink,
    LINK_3G,
    LINK_HSPA,
    LINK_WIFI,
    LINK_LAN,
)

__all__ = [
    "URL",
    "Headers",
    "Cookie",
    "CookieJar",
    "parse_set_cookie",
    "Request",
    "Response",
    "STATUS_REASONS",
    "Application",
    "Router",
    "route",
    "HttpClient",
    "ConditionalPages",
    "etag_matches",
    "not_modified",
    "strong_etag",
    "NetworkLink",
    "LINK_3G",
    "LINK_HSPA",
    "LINK_WIFI",
    "LINK_LAN",
]
