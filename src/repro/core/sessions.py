"""Multi-user session management for the proxy.

"Upon starting a mobile session for the first time, the mobile browser is
issued a session cookie for maintaining state on the server" (§3.2).  Each
session owns a cookie jar for the originating site, optional stored HTTP
credentials, and a protected subdirectory in the proxy's file store.

Concurrency: the manager's own tables are guarded by an internal lock,
so sessions can be issued, resolved, and expired from many
request-handling threads at once.  Each :class:`MobileSession` carries a
reentrant per-session lock; the proxy holds it while mutating the
session's cookie jar, credentials, or adapted-page state, so two
requests from one device can never interleave destructively while
requests from different devices proceed in parallel.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SessionError
from repro.net.cookies import CookieJar
from repro.sim.rng import DeterministicRandom

SESSION_COOKIE = "msite_session"


@dataclass(eq=False)
class MobileSession:
    """One mobile user's proxy-side state.

    Compared and hashed by identity, so per-session tables elsewhere
    (the proxy's adapted-page memo) can hold a session weakly and lose
    their entry when the manager lets the session go.
    """

    session_id: str
    created_at: float
    jar: CookieJar = field(default_factory=CookieJar)
    http_credentials: dict[str, tuple[str, str]] = field(default_factory=dict)
    last_seen: float = 0.0
    pages_served: int = 0
    #: The entry body (and its validator) this session last received:
    #: the very ``bytes`` object the response sent, which the proxy's
    #: file store (and, on a replay, the cache's decode) already holds,
    #: so keeping it costs the session no copy.  A returning client
    #: that kept that body can send ``X-MSite-Delta-Since: <etag>`` and
    #: be answered with a patch manifest instead of the full page; only
    #: then is it decoded.
    last_entry_body: Optional[bytes] = None
    last_entry_etag: Optional[str] = None
    lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    @property
    def directory(self) -> str:
        return f"/sessions/{self.session_id}"

    @property
    def image_directory(self) -> str:
        return f"{self.directory}/images"


class SessionManager:
    """Issues, resolves, and expires mobile sessions (thread-safe)."""

    def __init__(
        self,
        storage,
        clock=None,
        ttl_s: float = 4 * 3600.0,
        seed: int = 0x5E55,
    ) -> None:
        self.storage = storage
        self.clock = clock
        self.ttl_s = ttl_s
        self._rng = DeterministicRandom(seed)
        self._sessions: dict[str, MobileSession] = {}
        self._lock = threading.RLock()

    @property
    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- lifecycle -----------------------------------------------------------

    def create(self) -> MobileSession:
        with self._lock:
            session_id = f"ms{self._rng.next_u64():016x}"
            session = MobileSession(
                session_id=session_id, created_at=self._now
            )
            session.last_seen = self._now
            self._sessions[session_id] = session
        self.storage.mkdir(session.directory)
        self.storage.mkdir(session.image_directory)
        return session

    def get(self, session_id: str) -> MobileSession:
        """The live session, or :class:`SessionError` for an unknown or
        expired one.  An expired session is popped under the manager's
        lock and its directory deleted after, under the session's lock
        (the idle sweep's rule), so the deletion neither blocks other
        sessions' lookups nor lands under a request still serving it.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise SessionError(f"unknown session {session_id!r}")
            if not self._idle(session):
                session.last_seen = self._now
                return session
            del self._sessions[session_id]
        with session.lock:
            self.storage.delete_tree(session.directory)
        raise SessionError(f"session {session_id!r} expired")

    def get_or_create(self, session_id: Optional[str]) -> MobileSession:
        """Resolve a cookie value to a session, creating one as needed."""
        if session_id:
            try:
                return self.get(session_id)
            except SessionError:
                pass
        return self.create()

    def destroy(self, session_id: str) -> None:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is not None:
            self.storage.delete_tree(session.directory)

    def expire_idle(self) -> int:
        """Expire sessions idle past the TTL; returns how many died.

        A session whose lock is held is serving a request and is
        skipped: deleting its directory would pull the entry page out
        from under that request.  The session lock is taken without
        blocking, before the manager's; idleness is then checked again
        under the manager's lock, since a :meth:`get` may have refreshed
        it after the scan.
        """
        with self._lock:
            candidates = [
                session
                for session in self._sessions.values()
                if self._idle(session)
            ]
        expired = 0
        for session in candidates:
            if not session.lock.acquire(blocking=False):
                continue
            try:
                with self._lock:
                    if not (
                        self._idle(session)
                        and self._sessions.get(session.session_id) is session
                    ):
                        continue
                    del self._sessions[session.session_id]
                self.storage.delete_tree(session.directory)
                expired += 1
            finally:
                session.lock.release()
        return expired

    def _idle(self, session: MobileSession) -> bool:
        return self._now - session.last_seen > self.ttl_s
