"""Single-flight semantics of the pre-render cache under real threads.

Part of the cache contract: runs here over ``[memory]`` and again,
re-collected by ``tests/cluster/contract_disk``, over ``[memory, disk]``.
"""

import threading
import time


def _run_threads(count, target):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def test_concurrent_misses_run_loader_once(make_cache):
    cache = make_cache()
    calls = []
    calls_lock = threading.Lock()
    gate = threading.Event()
    results = [None] * 8

    def loader():
        with calls_lock:
            calls.append(threading.get_ident())
        time.sleep(0.05)  # hold the flight open so everyone joins
        return "rendered"

    def worker(index):
        gate.wait()
        results[index] = cache.load_or_join("page", loader)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(8)
    ]
    for thread in threads:
        thread.start()
    gate.set()
    for thread in threads:
        thread.join()

    assert len(calls) == 1
    assert results == ["rendered"] * 8
    assert cache.stats.flights == 1
    assert cache.stats.stampedes_suppressed == 7


def test_joiners_share_the_leaders_exception(make_cache):
    cache = make_cache()
    gate = threading.Event()
    errors = [None] * 4

    def loader():
        gate.wait()  # keep the flight open until all joiners arrive
        raise RuntimeError("render blew up")

    def worker(index):
        try:
            cache.load_or_join("page", loader)
        except RuntimeError as exc:
            errors[index] = str(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(4)
    ]
    threads[0].start()
    time.sleep(0.02)  # let the leader take the flight
    for thread in threads[1:]:
        thread.start()
    time.sleep(0.02)
    gate.set()
    for thread in threads:
        thread.join()

    assert errors == ["render blew up"] * 4
    # The flight is forgotten after failure: a retry runs the loader anew.
    assert cache.load_or_join("page", lambda: "ok") == "ok"


def test_flights_on_distinct_keys_run_independently(make_cache):
    cache = make_cache()
    seen = set()
    lock = threading.Lock()

    def worker(index):
        value = cache.load_or_join(f"key-{index}", lambda: index)
        with lock:
            seen.add(value)

    _run_threads(6, worker)
    assert seen == set(range(6))
    assert cache.stats.flights == 6
    assert cache.stats.stampedes_suppressed == 0


def test_reentrant_leader_does_not_deadlock(make_cache):
    cache = make_cache()

    def inner():
        return "inner"

    def outer():
        # The leader's loader consults the cache for the same key; this
        # must run directly instead of joining its own flight.
        return cache.load_or_join("k", inner) + "+outer"

    assert cache.load_or_join("k", outer) == "inner+outer"


def test_get_or_load_fills_and_serves(make_cache):
    cache = make_cache()
    calls = []
    gate = threading.Event()
    results = [None] * 6

    def loader():
        calls.append(1)
        time.sleep(0.05)
        return b"snapshot-bytes"

    def worker(index):
        gate.wait()
        # The request path's fill: get, then single-flight
        # peek -> load -> put.
        results[index] = cache.get("snap") or cache.load_or_join(
            "snap",
            lambda: cache.peek("snap")
            or cache.put("snap", loader(), ttl_s=60.0),
        )

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(6)
    ]
    for thread in threads:
        thread.start()
    gate.set()
    for thread in threads:
        thread.join()

    assert len(calls) == 1
    assert all(entry.data == b"snapshot-bytes" for entry in results)
    assert cache.stats.stores == 1
    # One caller missed and loaded; once filled, a fresh get() hits.
    assert cache.get("snap").data == b"snapshot-bytes"


def test_sequential_loads_after_completion_rerun_loader(make_cache):
    """The flight table only collapses *concurrent* misses."""
    cache = make_cache()
    calls = []
    cache.load_or_join("k", lambda: calls.append(1))
    cache.load_or_join("k", lambda: calls.append(1))
    assert len(calls) == 2
    assert cache.stats.flights == 2
    assert cache.stats.stampedes_suppressed == 0
