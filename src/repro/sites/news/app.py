"""The news origin application.

A metro-daily analog with the two behaviours the forum never exhibits:

* section fronts carrying a long headline list (pagination-splitting
  material) and an infinite-scroll teaser feed primed with the first
  batch of stories,
* an AJAX feed endpoint, ``/feed.php?do=feed_<section>&id=<offset>``,
  shaped exactly like the vBulletin ``do=``/``id=`` calls so the
  ajax-rewriting attribute (§4.4) translates the "More stories" link
  into a static proxy action.
"""

from __future__ import annotations

from repro.net.conditional import ConditionalPages
from repro.net.messages import Request, Response
from repro.net.server import Application, Router
from repro.sites.news.data import FEED_BATCH, Article, Newsroom, SECTIONS

_HEAD = """<!DOCTYPE html>
<html><head><title>{title}</title>
<link rel="stylesheet" type="text/css" href="/styles/news.css" />
</head>
"""

_SCROLL_SCRIPT = """
<script type="text/javascript">
function feedScroll() {{
  var feed = document.getElementById('feed');
  var request = new XMLHttpRequest();
  request.open('GET', '/feed.php?do=feed_{code}&id={offset}', true);
  request.onreadystatechange = function () {{
    if (request.readyState === 4 && request.status === 200) {{
      feed.innerHTML += request.responseText;
    }}
  }};
  request.send(null);
}}
window.onscroll = feedScroll;
</script>
""".strip()

_CSS = """
body { font-family: georgia, serif; margin: 0; }
#masthead { background: #1a1a2e; color: white; padding: 10px 14px; }
#sections li { display: inline; margin-right: 12px; }
.headline { border-bottom: 1px dotted #bbb; padding: 3px 0; }
.teaser { padding: 6px 0; border-bottom: 1px solid #ddd; }
.byline { color: #666; font-size: 12px; }
.feed-more { font-weight: bold; }
#sidebar { background: #f4f4f4; padding: 8px; }
""".strip()


class NewsApplication(Application):
    """The metro-daily origin server."""

    def __init__(self, newsroom: Newsroom | None = None) -> None:
        self.newsroom = newsroom or Newsroom()
        self.hits = 0
        self.feed_fetches = 0
        self._pages = ConditionalPages()
        self._router = Router()
        self._router.add_route("/", self.front_page, ("GET",))
        self._router.add_route("/index.php", self.front_page, ("GET",))
        self._router.add_route(
            "/section/<code>/", self.section_page, ("GET",)
        )
        self._router.add_route(
            "/article/<article_file>", self.article_page, ("GET",)
        )
        self._router.add_route("/feed.php", self.feed, ("GET",))
        self._router.add_route("/styles/news.css", self.stylesheet, ("GET",))

    def handle(self, request: Request) -> Response:
        self.hits += 1
        return self._router.handle(request)

    def _conditional(self, request: Request, render) -> Response:
        """``render`` behind the ETag memo; the newsroom revision is
        read here, before rendering.  No page varies by requester."""
        return self._pages.respond(
            request, self.newsroom.revision_count, None, render
        )

    # -- markup helpers ----------------------------------------------------

    def _nav(self) -> str:
        links = "".join(
            f'<li><a href="/section/{code}/">{label}</a></li>'
            for code, label in SECTIONS
        )
        return f'<ul id="sections">{links}</ul>'

    @staticmethod
    def _headline_row(article: Article) -> str:
        return (
            f'<p class="headline" id="h{article.article_id}">'
            f'<a href="{article.path}">{article.title}</a> '
            f'<span class="byline">by {article.author}, '
            f"day {article.published_day}</span></p>"
        )

    @staticmethod
    def _teaser(article: Article) -> str:
        return (
            f'<div class="teaser" id="t{article.article_id}">'
            f'<a href="{article.path}">{article.title}</a>'
            f'<span class="byline"> — {article.author}</span>'
            f"<p>{article.summary}</p></div>"
        )

    # -- pages ------------------------------------------------------------

    def front_page(self, request: Request) -> Response:
        return self._conditional(request, self._render_front_page)

    def _render_front_page(self) -> Response:
        rows = "".join(
            self._headline_row(article)
            for article in self.newsroom.front_headlines()
        )
        return Response.html(
            _HEAD.format(title="The Metro Herald")
            + f'<body><div id="masthead"><h1>The Metro Herald</h1>'
            f"{self._nav()}</div>"
            f'<div id="headlines">{rows}</div></body></html>'
        )

    def section_page(self, request: Request, code: str) -> Response:
        label = dict(SECTIONS).get(code)
        if label is None:
            return Response.not_found(f"no section {code!r}")
        return self._conditional(
            request, lambda: self._render_section(code, label)
        )

    def _render_section(self, code: str, label: str) -> Response:
        stories = self.newsroom.section_articles(code)
        lead, rest = stories[0], stories[1:]
        headlines = "".join(self._headline_row(a) for a in rest)
        primed, _next = self.newsroom.feed_window(code, 0)
        teasers = "".join(self._teaser(a) for a in primed)
        script = _SCROLL_SCRIPT.format(code=code, offset=FEED_BATCH)
        return Response.html(
            _HEAD.format(title=f"{label} - The Metro Herald")
            + f'<body><div id="masthead"><h1>{label}</h1>{self._nav()}'
            f"</div>"
            f'<div id="lead"><h2><a href="{lead.path}">{lead.title}</a>'
            f'</h2><p>{lead.summary}</p>'
            f'<p class="byline">by {lead.author}</p></div>'
            f'<div id="headlines">{headlines}</div>'
            f'<div id="feed">{teasers}</div>'
            f'<p id="feedmore"><a class="feed-more" '
            f'href="/feed.php?do=feed_{code}&id={FEED_BATCH}">'
            f"More stories</a></p>"
            f'<div id="sidebar"><h3>About this desk</h3>'
            f"<p>The {label} desk publishes "
            f"{len(stories)} stories on rotation; "
            f"tips to {code}@metroherald.example.</p></div>"
            f"{script}</body></html>"
        )

    def article_page(self, request: Request, article_file: str) -> Response:
        try:
            article_id = int(article_file.removesuffix(".html"))
        except ValueError:
            return Response.not_found("bad article id")
        return self._conditional(
            request, lambda: self._render_article(article_id)
        )

    def _render_article(self, article_id: int) -> Response:
        article = self.newsroom.article(article_id)
        if article is None:
            return Response.not_found("story retracted or never filed")
        body = "".join(f"<p>{text}</p>" for text in article.paragraphs)
        related = "".join(
            self._headline_row(a)
            for a in self.newsroom.section_articles(article.section)[:4]
            if a.article_id != article.article_id
        )
        return Response.html(
            _HEAD.format(title=article.title)
            + f'<body><div id="masthead"><h1>The Metro Herald</h1>'
            f"{self._nav()}</div>"
            f'<div id="story"><h2>{article.title}</h2>'
            f'<p class="byline">by {article.author}, '
            f"day {article.published_day}</p>{body}</div>"
            f'<div id="sidebar"><h3>Related stories</h3>{related}</div>'
            f"</body></html>"
        )

    # -- the infinite-scroll feed -----------------------------------------

    def feed(self, request: Request) -> Response:
        """One AJAX batch: ``?do=feed_<section>&id=<offset>``."""
        do = request.params.get("do", "")
        if not do.startswith("feed_"):
            return Response.not_found(f"unknown feed action {do!r}")
        code = do.removeprefix("feed_")
        if dict(SECTIONS).get(code) is None:
            return Response.not_found(f"no section {code!r}")
        try:
            offset = int(request.params.get("id", "0"))
        except ValueError:
            return Response.not_found("bad feed offset")
        self.feed_fetches += 1
        window, next_offset = self.newsroom.feed_window(code, offset)
        if not window:
            return Response.html('<p class="feed-end">No more stories.</p>')
        fragment = "".join(self._teaser(a) for a in window)
        if next_offset is not None:
            fragment += (
                f'<a class="feed-more" '
                f'href="/feed.php?do=feed_{code}&id={next_offset}">'
                f"More stories</a>"
            )
        return Response.html(fragment)

    # -- assets -----------------------------------------------------------

    def stylesheet(self, request: Request) -> Response:
        return Response.binary(_CSS.encode("ascii"), "text/css")
