"""Multi-user session management."""

import threading

import pytest

from repro.core.sessions import SessionManager
from repro.core.storage import VirtualFileSystem
from repro.errors import SessionError
from repro.sim.clock import Clock


@pytest.fixture()
def manager():
    return SessionManager(VirtualFileSystem(), clock=Clock())


def test_create_issues_unique_ids(manager):
    ids = {manager.create().session_id for __ in range(20)}
    assert len(ids) == 20
    assert len(manager) == 20


def test_create_makes_directories(manager):
    session = manager.create()
    assert manager.storage.is_dir(session.directory)
    assert manager.storage.is_dir(session.image_directory)
    assert session.directory.startswith("/sessions/")


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


def test_destroy_removes_files(manager):
    session = manager.create()
    manager.storage.write(f"{session.directory}/f.html", b"x")
    manager.destroy(session.session_id)
    assert not manager.storage.exists(f"{session.directory}/f.html")
    with pytest.raises(SessionError):
        manager.get(session.session_id)


def test_expire_idle_bulk(manager):
    old = manager.create()
    manager.clock.advance(manager.ttl_s + 1)
    fresh = manager.create()
    assert manager.expire_idle() == 1
    assert manager.get(fresh.session_id) is fresh


def test_sessions_have_separate_jars(manager):
    a = manager.create()
    b = manager.create()
    from repro.net.cookies import Cookie

    a.jar.set(Cookie("sid", "secret", domain="h"))
    assert b.jar.get("sid") is None


def test_deterministic_ids_per_seed():
    a = SessionManager(VirtualFileSystem(), clock=Clock(), seed=7)
    b = SessionManager(VirtualFileSystem(), clock=Clock(), seed=7)
    assert a.create().session_id == b.create().session_id


def test_an_expiring_get_deletes_outside_the_manager_lock():
    # An expired session's directory is deleted after the manager lock
    # is released, under the session's own lock: a slow delete_tree
    # holds up neither another session's lookup nor anything but that
    # one session.
    storage = VirtualFileSystem()
    clock = Clock()
    manager = SessionManager(storage, clock=clock, ttl_s=10.0)
    doomed = manager.create()
    clock.advance(11.0)
    other = manager.create()
    deleting, release = threading.Event(), threading.Event()
    delete_tree = storage.delete_tree

    def blocked_delete_tree(path):
        deleting.set()
        release.wait(timeout=10)
        return delete_tree(path)

    storage.delete_tree = blocked_delete_tree
    raised, looked_up, session_lock_free = [], [], []

    def expire():
        with pytest.raises(SessionError) as error:
            manager.get(doomed.session_id)
        raised.append(str(error.value))

    expiring = threading.Thread(target=expire)
    expiring.start()
    try:
        assert deleting.wait(timeout=10)
        lookup = threading.Thread(
            target=lambda: looked_up.append(manager.get(other.session_id))
        )
        lookup.start()
        lookup.join(timeout=2)
        probe = threading.Thread(
            target=lambda: session_lock_free.append(
                doomed.lock.acquire(blocking=False)
            )
        )
        probe.start()
        probe.join(timeout=2)
    finally:
        release.set()
        expiring.join(timeout=10)
    assert looked_up == [other]
    assert session_lock_free == [False]  # the delete holds it
    assert raised and "expired" in raised[0]
    assert not storage.is_dir(doomed.directory)
    assert len(manager) == 1
