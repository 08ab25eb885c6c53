"""Conditional GET: strong validators and body-less 304 answers.

One helper for every origin application (forum, news, classifieds) and
the ``If-None-Match`` matcher both sides of the proxy share.

The validator is a digest of the response body, so two ETags are equal
iff the bytes are equal — across requesters, across origin instances,
and across any sequence of edits that happens to land two instances on
the same revision number.  A revision counter never leaves the origin:
it only keys the memo that lets a matching ``If-None-Match`` be
answered *without rendering the page*.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Hashable

from repro.net.messages import Request, Response


def strong_etag(body: bytes) -> str:
    """A strong validator: equal iff the bytes are equal."""
    return f'"{hashlib.sha256(body).hexdigest()[:32]}"'


def etag_matches(if_none_match: str, etag: str) -> bool:
    """RFC 7232 If-None-Match: ``*`` or a comma-separated ETag list."""
    header = if_none_match.strip()
    if header == "*":
        return True
    return any(
        candidate.strip() == etag for candidate in header.split(",")
    )


def not_modified(etag: str) -> Response:
    response = Response(status=304)
    response.headers.set("ETag", etag)
    return response


class ConditionalPages:
    """ETag memo for one origin application's rendered pages.

    ``respond`` is called with the state revision *as read before
    rendering* and whatever identifies the requester to the page (the
    logged-in user, or ``None``).  The memo is keyed by (request
    target, revision, requester), so an entry can only ever vouch for
    the state it was rendered from: the origin's state must mutate
    first and bump its revision last, and then a render that raced an
    edit is filed under a revision no later request will ask for.
    Only the current revision's entries are kept.
    """

    def __init__(self, limit: int = 1024) -> None:
        self._limit = limit
        self._revision: Hashable = None
        self._etags: dict[tuple, str] = {}

    def respond(
        self,
        request: Request,
        revision: Hashable,
        requester: Hashable,
        render: Callable[[], Response],
    ) -> Response:
        if revision != self._revision or len(self._etags) >= self._limit:
            # Rebound, never cleared in place: a concurrent reader
            # keeps the dict it already holds.
            self._etags = {}
            self._revision = revision
        key = (request.url.request_target, revision, requester)
        validator = request.headers.get("If-None-Match")
        if validator:
            known = self._etags.get(key)
            if known is not None and etag_matches(validator, known):
                return not_modified(known)
        response = render()
        if response.status != 200:
            return response
        # Always the digest of the bytes actually sent, never the
        # memoised one: a 200 must not pair a body with another's ETag.
        etag = strong_etag(response.body)
        self._etags[key] = etag
        if validator and etag_matches(validator, etag):
            return not_modified(etag)
        response.headers.set("ETag", etag)
        return response
