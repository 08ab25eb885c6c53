"""Thread-safety of the shared runtime state: pool slots, sessions and
counters."""

import threading
import time

import pytest

from repro.browser.pool import BrowserPool
from repro.core.proxy import ProxyCounters
from repro.core.sessions import SessionManager
from repro.errors import PoolTimeoutError


def _run_threads(count, target):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ---------------------------------------------------------------------------
# browser pool semaphore


def test_pool_bounds_concurrent_holders():
    pool = BrowserPool(max_instances=3)
    active = []
    peak = [0]
    lock = threading.Lock()

    def worker(index):
        with pool.instance(f"user{index}"):
            with lock:
                active.append(index)
                peak[0] = max(peak[0], len(active))
            time.sleep(0.02)
            with lock:
                active.remove(index)

    _run_threads(12, worker)
    assert peak[0] <= 3
    assert pool.stats.acquires == 12
    # 12 workers over 3 slots: most of them had to queue for a slot.
    assert pool.stats.queue_waits > 0
    assert pool.stats.queue_wait_total_s > 0.0
    assert pool.stats.queue_wait_max_s >= pool.stats.mean_queue_wait_s


def test_pool_timeout_raises():
    pool = BrowserPool(max_instances=1)
    holding = threading.Event()
    release = threading.Event()

    def hog():
        with pool.instance("hog"):
            holding.set()
            release.wait()

    thread = threading.Thread(target=hog)
    thread.start()
    holding.wait()
    try:
        with pytest.raises(PoolTimeoutError):
            with pool.instance("late", timeout=0.05):
                pass
    finally:
        release.set()
        thread.join()


def test_pool_slot_freed_after_exception():
    pool = BrowserPool(max_instances=1)
    with pytest.raises(RuntimeError):
        with pool.instance("u1"):
            raise RuntimeError("render failed")
    # The slot must be back: a fresh acquire succeeds without blocking.
    with pool.instance("u2", timeout=0.1):
        pass


# ---------------------------------------------------------------------------
# session manager


def test_sessions_created_concurrently_are_distinct():
    manager = SessionManager()
    ids = [None] * 32

    def worker(index):
        ids[index] = manager.create().session_id

    _run_threads(32, worker)
    assert len(set(ids)) == 32
    assert len(manager) == 32
    for session_id in ids:
        assert manager.get(session_id).session_id == session_id


def test_concurrent_destroy_is_idempotent():
    manager = SessionManager()
    session = manager.create()
    survivor = manager.create()

    def worker(index):
        manager.destroy(session.session_id)

    _run_threads(8, worker)
    assert len(manager) == 1
    assert manager.get(survivor.session_id) is survivor


# ---------------------------------------------------------------------------
# atomic counters


def test_counters_lose_no_increments_under_contention():
    counters = ProxyCounters()
    per_thread = 2000

    def worker(index):
        for _ in range(per_thread):
            counters.add(
                requests=1,
                lightweight_requests=1,
                lightweight_core_seconds=0.001,
            )

    _run_threads(8, worker)
    snap = counters.snapshot()
    assert snap.requests == 8 * per_thread
    assert snap.lightweight_requests == 8 * per_thread
    assert snap.lightweight_core_seconds == pytest.approx(8 * per_thread * 0.001)


def test_counters_reject_unknown_fields():
    with pytest.raises(TypeError):
        ProxyCounters().add(bogus=1)
