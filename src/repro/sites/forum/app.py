"""The forum origin application: routing, sessions, AJAX endpoints.

Implements the origin-side behaviours the proxy must interpose on:

* cookie-based login sessions (``bbuserid``/``bbsessionhash``),
* an HTTP-Basic protected area (§3.3's authentication attribute),
* vBulletin-style AJAX endpoints (``ajax.php?do=...``) whose links the
  AJAX-rewriting attribute translates (§4.4),
* all static assets (stylesheet, ~12 client scripts, entry-page images).
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.net.conditional import ConditionalPages
from repro.net.messages import Request, Response
from repro.net.server import Application, Router
from repro.sites.forum import assets, templates
from repro.sites.forum.data import Community, CommunityGenerator


def _session_token(username: str) -> str:
    return f"sess{zlib.crc32(username.encode('utf-8')):08x}"


class ForumApplication(Application):
    """The SawmillCreek-analog origin server."""

    def __init__(self, community: Optional[Community] = None) -> None:
        self.community = community or CommunityGenerator().generate()
        self.hits = 0
        self._sessions: dict[str, str] = {}  # token -> username
        self._pages = ConditionalPages()
        self._router = Router()
        self._register_routes()

    # -- plumbing ----------------------------------------------------------

    def handle(self, request: Request) -> Response:
        self.hits += 1
        return self._router.handle(request)

    def _register_routes(self) -> None:
        router = self._router
        router.add_route("/", self.index, ("GET",))
        router.add_route("/index.php", self.index, ("GET",))
        router.add_route("/forumdisplay.php", self.forumdisplay, ("GET",))
        router.add_route("/showthread.php", self.showthread, ("GET",))
        router.add_route("/login.php", self.login, ("GET", "POST"))
        router.add_route("/logout.php", self.logout, ("GET",))
        router.add_route("/members.php", self.member_profile, ("GET",))
        router.add_route("/ajax.php", self.ajax, ("GET", "POST"))
        router.add_route("/private.php", self.private_area, ("GET",))
        router.add_route("/calendar.php", self.calendar, ("GET",))
        router.add_route(
            "/clientscript/<name>", self.client_script, ("GET",)
        )
        router.add_route("/images/<name>", self.image, ("GET",))

    def current_user(self, request: Request) -> Optional[str]:
        token = request.cookies.get("bbsessionhash")
        if token:
            return self._sessions.get(token)
        return None

    def _conditional(
        self, request: Request, user: Optional[str], render
    ) -> Response:
        """``render`` behind the ETag memo, keyed by community revision
        (read here, before rendering) and the logged-in user."""
        return self._pages.respond(
            request, self.community.revision, user, render
        )

    # -- pages ------------------------------------------------------------

    def index(self, request: Request) -> Response:
        user = self.current_user(request)
        return self._conditional(
            request,
            user,
            lambda: Response.html(
                templates.entry_page(self.community, logged_in_user=user)
            ),
        )

    def forumdisplay(self, request: Request) -> Response:
        try:
            forum_id = int(request.params.get("f", ""))
        except ValueError:
            return Response.not_found("bad forum id")
        forum = self.community.forum(forum_id)
        if forum is None:
            return Response.not_found("no such forum")
        user = self.current_user(request)
        if forum.private and user is None:
            return Response.redirect("/login.php")
        return self._conditional(
            request,
            user,
            lambda: Response.html(
                templates.forumdisplay_page(self.community, forum)
            ),
        )

    def showthread(self, request: Request) -> Response:
        try:
            thread_id = int(request.params.get("t", ""))
        except ValueError:
            return Response.not_found("bad thread id")
        thread = self.community.thread(thread_id)
        if thread is None:
            return Response.not_found("no such thread")
        return self._conditional(
            request,
            self.current_user(request),
            lambda: Response.html(
                templates.showthread_page(
                    self.community, thread, self.community.thread_posts(thread)
                )
            ),
        )

    def login(self, request: Request) -> Response:
        if request.method == "GET":
            return Response.html(
                templates.page_head("Log In") + "<body>"
                + templates.login_box() + "</body></html>"
            )
        form = request.form
        username = form.get("vb_login_username", "")
        password = form.get("vb_login_password", "")
        expected = self.community.registered_accounts.get(username)
        if expected is not None and expected == password:
            token = _session_token(username)
            self._sessions[token] = username
            response = Response.html(
                templates.login_result_page(True, username)
            )
            response.set_cookie("bbsessionhash", token, http_only=True)
            response.set_cookie("bbuserid", str(zlib.crc32(username.encode())))
            return response
        return Response.html(
            templates.login_result_page(False, username), status=200
        )

    def logout(self, request: Request) -> Response:
        token = request.cookies.get("bbsessionhash")
        if token:
            self._sessions.pop(token, None)
        response = Response.redirect("/index.php")
        response.set_cookie("bbsessionhash", "", max_age=0)
        return response

    def member_profile(self, request: Request) -> Response:
        raw = request.params.get("u")
        if raw is None:
            return Response.html(
                templates.page_head("Members") + "<body><p>Member list "
                "requires login.</p></body></html>"
            )
        try:
            member_id = int(raw)
        except ValueError:
            return Response.not_found("bad member id")
        return Response.html(templates.member_page(self.community, member_id))

    def calendar(self, request: Request) -> Response:
        events = "".join(
            f"<li>{event.title}</li>"
            for event in self.community.calendar_events
        )
        return Response.html(
            templates.page_head("Calendar") + f"<body><ul>{events}</ul>"
            "</body></html>"
        )

    # -- AJAX -----------------------------------------------------------

    def ajax(self, request: Request) -> Response:
        action = request.params.get("do", "")
        if action == "showpic":
            pic_id = request.params.get("id", "0")
            return Response.html(
                f'<img src="/images/attachment{pic_id}.jpg" '
                f'alt="attachment {pic_id}" width="640" height="480" />'
            )
        if action == "quickstats":
            stats = self.community.statistics
            return Response.json(
                {
                    "members": stats.member_count,
                    "threads": stats.thread_count,
                    "posts": stats.post_count,
                    "online": stats.online_count,
                }
            )
        if action == "usersearch":
            prefix = request.params.get("fragment", "").lower()
            matches = []
            for member_id in self.community.online_member_ids[:400]:
                member = self.community.member(member_id)
                if member.username.lower().startswith(prefix):
                    matches.append(member.username)
                if len(matches) >= 15:
                    break
            return Response.json({"matches": matches})
        return Response.not_found(f"unknown ajax action {action!r}")

    # -- protected area -----------------------------------------------------

    def private_area(self, request: Request) -> Response:
        credentials = request.basic_auth()
        if credentials is None:
            return Response.unauthorized(realm="Sawmill Creek private")
        username, password = credentials
        expected = self.community.registered_accounts.get(username)
        if expected is None or expected != password:
            return Response.unauthorized(realm="Sawmill Creek private")
        return Response.html(
            templates.page_head("Private Messages")
            + f"<body><div id='pmbox'><h2>Private messages for "
            f"{username}</h2><p>No new messages.</p></div></body></html>"
        )

    # -- static assets -----------------------------------------------------

    def client_script(self, request: Request, name: str) -> Response:
        if name == "vbulletin_stylesheet.css":
            return Response.binary(
                assets.stylesheet_css().encode("utf-8"), "text/css"
            )
        for script_name, size in assets.SCRIPT_MANIFEST:
            if script_name == name:
                return Response.binary(
                    assets.script_body(script_name, size).encode("utf-8"),
                    "application/javascript",
                )
        return Response.not_found(f"no script {name}")

    def image(self, request: Request, name: str) -> Response:
        for image_name, size in assets.IMAGE_MANIFEST:
            if image_name == name:
                return Response.binary(
                    assets.image_bytes(image_name, size), "image/gif"
                )
        if name.startswith("attachment"):
            return Response.binary(
                assets.image_bytes(name, 38_000), "image/jpeg"
            )
        return Response.not_found(f"no image {name}")
