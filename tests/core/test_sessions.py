"""Multi-user session management."""

import threading

import pytest

from repro.core.sessions import SessionManager
from repro.errors import SessionError
from repro.sim.clock import Clock


@pytest.fixture()
def manager():
    return SessionManager(clock=Clock())


def test_create_issues_unique_ids(manager):
    ids = {manager.create().session_id for __ in range(20)}
    assert len(ids) == 20
    assert len(manager) == 20


def test_get_returns_live_session(manager):
    session = manager.create()
    assert manager.get(session.session_id) is session


def test_get_unknown_raises(manager):
    with pytest.raises(SessionError):
        manager.get("ghost")


def test_get_or_create_reuses(manager):
    session = manager.create()
    assert manager.get_or_create(session.session_id) is session


def test_get_or_create_handles_garbage(manager):
    fresh = manager.get_or_create("bogus-cookie")
    assert fresh.session_id != "bogus-cookie"


def test_get_or_create_none(manager):
    assert manager.get_or_create(None) is not None


def test_expiry(manager):
    session = manager.create()
    manager.clock.advance(manager.ttl_s + 1)
    with pytest.raises(SessionError):
        manager.get(session.session_id)
    assert len(manager) == 0


def test_activity_refreshes_ttl(manager):
    session = manager.create()
    manager.clock.advance(manager.ttl_s / 2)
    manager.get(session.session_id)  # touch
    manager.clock.advance(manager.ttl_s / 2 + 1)
    # Still inside TTL measured from the touch.
    assert manager.get(session.session_id) is session


def test_destroy_forgets_the_session(manager):
    session = manager.create()
    manager.destroy(session.session_id)
    assert len(manager) == 0
    with pytest.raises(SessionError):
        manager.get(session.session_id)
    manager.destroy(session.session_id)  # a second destroy is a no-op


def test_expire_idle_bulk(manager):
    old = manager.create()
    manager.clock.advance(manager.ttl_s + 1)
    fresh = manager.create()
    assert manager.expire_idle() == 1
    assert manager.get(fresh.session_id) is fresh


def test_a_checked_out_session_outlives_its_ttl_until_released(manager):
    # A request resolves its session before it takes the session lock;
    # however long it runs, neither a sweep nor an expiring lookup
    # drops the session until the request releases it.
    session, is_new = manager.checkout(None)
    assert is_new
    again, is_new = manager.checkout(session.session_id)
    assert (again, is_new) == (session, False)
    manager.release(again)
    manager.clock.advance(manager.ttl_s + 1)
    assert manager.expire_idle() == 0
    assert manager.get(session.session_id) is session
    manager.release(session)
    manager.clock.advance(manager.ttl_s + 1)
    assert manager.expire_idle() == 1
    fresh, is_new = manager.checkout(session.session_id)
    assert is_new and fresh is not session


def test_sessions_have_separate_jars(manager):
    a = manager.create()
    b = manager.create()
    from repro.net.cookies import Cookie

    a.jar.set(Cookie("sid", "secret", domain="h"))
    assert b.jar.get("sid") is None


def test_deterministic_ids_per_seed():
    a = SessionManager(clock=Clock(), seed=7)
    b = SessionManager(clock=Clock(), seed=7)
    assert a.create().session_id == b.create().session_id


def test_an_expiring_get_never_waits_for_the_session_lock():
    # An expiry only drops the session from the table: a request still
    # holding the expired session's lock holds up neither the expiring
    # lookup nor another session's.
    clock = Clock()
    manager = SessionManager(clock=clock, ttl_s=10.0)
    doomed = manager.create()
    clock.advance(11.0)
    other = manager.create()
    held, release = threading.Event(), threading.Event()

    def serve():
        with doomed.lock:
            held.set()
            release.wait(timeout=10)

    serving = threading.Thread(target=serve)
    serving.start()
    raised, looked_up = [], []

    def expire():
        with pytest.raises(SessionError) as error:
            manager.get(doomed.session_id)
        raised.append(str(error.value))
        looked_up.append(manager.get(other.session_id))

    try:
        assert held.wait(timeout=10)
        expiring = threading.Thread(target=expire)
        expiring.start()
        expiring.join(timeout=2)
        assert not expiring.is_alive()
    finally:
        release.set()
        serving.join(timeout=10)
    assert raised and "expired" in raised[0]
    assert looked_up == [other]
    assert len(manager) == 1
