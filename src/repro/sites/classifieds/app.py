"""The classifieds origin application.

Deliberately minimal markup, like its inspiration: a category page is a
long date-sorted list of links; a listing page is the ad body.  No AJAX
anywhere — "Craigslist does not ordinarily require any AJAX requests,
which for a mobile device means an overuse of the browser's tiny back
button, and continual reloading of pages" (§4.5) — which is exactly the
behaviour the m.Site adaptation fixes.
"""

from __future__ import annotations

from repro.net.conditional import ConditionalPages
from repro.net.messages import Request, Response
from repro.net.server import Application, Router
from repro.sites.classifieds.data import CATEGORIES, Listing, ListingGenerator

_HEAD = """<!DOCTYPE html>
<html><head><title>{title}</title>
<style type="text/css">
body {{ font-family: times, serif; margin: 12px; }}
.pl {{ padding: 2px 0; }}
.itemdate {{ color: #555; }}
.price {{ color: #060; font-weight: bold; }}
#titlebar {{ background: #5c1f85; color: white; padding: 6px; }}
.postingbody {{ font-size: 14px; margin-top: 10px; }}
</style></head>
"""


class ClassifiedsApplication(Application):
    """craigslist-analog origin server."""

    def __init__(self, listings: ListingGenerator | None = None) -> None:
        self.listings = listings or ListingGenerator()
        self.hits = 0
        self._pages = ConditionalPages()
        self._router = Router()
        self._router.add_route("/", self.home, ("GET",))
        self._router.add_route("/<category>/", self.category_page, ("GET",))
        self._router.add_route(
            "/<category>/<listing_file>", self.listing_page, ("GET",)
        )

    def handle(self, request: Request) -> Response:
        self.hits += 1
        return self._router.handle(request)

    def _conditional(self, request: Request, render) -> Response:
        """``render`` behind the ETag memo; the inventory revision is
        read here, before rendering.  No page varies by requester."""
        return self._pages.respond(
            request, self.listings.revision, None, render
        )

    def home(self, request: Request) -> Response:
        return self._conditional(request, self._render_home)

    def _render_home(self) -> Response:
        links = "".join(
            f'<li><a href="/{code}/">{label}</a></li>'
            for code, label in CATEGORIES
        )
        return Response.html(
            _HEAD.format(title="craigslist: classifieds")
            + f'<body><div id="titlebar">craigslist</div>'
            f"<ul>{links}</ul></body></html>"
        )

    def category_page(self, request: Request, category: str) -> Response:
        if not self.listings.category(category):
            return Response.not_found(f"no category {category!r}")
        return self._conditional(
            request, lambda: self._render_category(category)
        )

    def _render_category(self, category: str) -> Response:
        listings = self.listings.category(category)
        rows = "".join(self._listing_row(listing) for listing in listings)
        label = dict(CATEGORIES).get(category, category)
        return Response.html(
            _HEAD.format(title=f"all {label} classifieds")
            + f'<body><div id="titlebar">{label}</div>'
            f'<div id="toc">{rows}</div></body></html>'
        )

    @staticmethod
    def _listing_row(listing: Listing) -> str:
        return (
            f'<p class="pl" id="row{listing.listing_id}">'
            f'<span class="itemdate">day {listing.posted_day}</span> '
            f'<a href="{listing.path}">{listing.title}</a> '
            f'<span class="price">${listing.price}</span> '
            f"({listing.location})</p>"
        )

    def listing_page(
        self, request: Request, category: str, listing_file: str
    ) -> Response:
        try:
            listing_id = int(listing_file.removesuffix(".html"))
        except ValueError:
            return Response.not_found("bad listing id")
        listing = self.listings.listing(listing_id)
        if listing is None or listing.category != category:
            return Response.not_found("listing expired or removed")
        return self._conditional(
            request, lambda: self._render_listing(listing)
        )

    def _render_listing(self, listing: Listing) -> Response:
        return Response.html(
            _HEAD.format(title=listing.title)
            + f'<body><div id="titlebar">{listing.title} - '
            f'${listing.price} ({listing.location})</div>'
            f'<div class="postingbody" id="posting">{listing.body}</div>'
            f'<p class="itemdate">posted day {listing.posted_day}; '
            f"id {listing.listing_id}</p></body></html>"
        )
