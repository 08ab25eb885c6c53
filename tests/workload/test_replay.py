"""The replay driver: the two loops, the tally, the percentile rule, the
marked request stream, and the stand-in app's three render strategies.
"""

import sys
import threading
import time

import pytest

from repro.browser.pool import BrowserPool
from repro.core.cache import PrerenderCache
from repro.net.messages import Request, Response
from repro.renderfarm import RenderFarm
from repro.sim.rng import DeterministicRandom
from repro.workload.population import DESKTOP_UA, PHONE_UA
from repro.workload.replay import (
    RenderLedger,
    ReplayResult,
    SyntheticRenderApp,
    browser_marked,
    farm_render,
    flash_crowd_stream,
    marked_requests,
    percentile,
    pool_render,
    replay_closed,
    replay_open,
    shared_cache_render,
)


# ---------------------------------------------------------------------------
# percentile: nearest rank, pinned


@pytest.mark.parametrize(
    "n, q, expected",
    [
        (1, 0.50, 1.0),
        (1, 0.99, 1.0),
        (4, 0.50, 2.0),  # the round((n-1)q) copies said 3.0
        (4, 0.99, 4.0),
        (50, 0.50, 25.0),
        (50, 0.99, 50.0),  # the floor((n-1)q) copies said 49.0
        (100, 0.50, 50.0),
        (100, 0.99, 99.0),
        (100, 1.00, 100.0),
        (331, 0.50, 166.0),
        (331, 0.99, 328.0),  # the floor((n-1)q) copies said 327.0
    ],
)
def test_percentile_is_nearest_rank(n, q, expected):
    samples = [float(value) for value in range(n, 0, -1)]  # unsorted input
    assert percentile(samples, q) == expected


def test_percentile_of_no_samples_is_zero():
    assert percentile([], 0.99) == 0.0
    assert percentile([], 0.0) == 0.0


# ---------------------------------------------------------------------------
# the tally


def _response(status, degraded=None):
    response = Response.text("x", status=status)
    if degraded is not None:
        response.headers.set("X-MSite-Degraded", degraded)
    return response


def test_a_degraded_503_is_not_a_non_degraded_5xx():
    result = ReplayResult(offered=4)
    result.record(_response(200), 0.001)
    result.record(_response(200, "stale"), 0.002)
    result.record(_response(503, "remote-region"), 0.003)
    result.record(_response(503), 0.004)
    assert result.statuses == {200: 2, 503: 2}
    assert result.degraded == 2
    assert result.errors_5xx == 2
    assert result.non_degraded_5xx == 1
    assert result.latencies == [0.001, 0.002, 0.003, 0.004]


# ---------------------------------------------------------------------------
# open loop


def test_open_loop_does_not_wait_for_answers():
    """A send that blocks 200 ms must not delay later submissions."""
    arrivals = [0.02 * index for index in range(10)]
    entered = {}

    def send(index):
        entered[index] = time.perf_counter()
        time.sleep(0.2)
        return _response(200)

    result = replay_open(send, arrivals, list(range(10)))
    assert result.offered == 10
    assert result.statuses == {200: 10}
    for index, offset in enumerate(arrivals):
        lag = (entered[index] - entered[0]) - offset
        assert abs(lag) < 0.1, f"request {index} sent {lag * 1e3:.0f} ms off"
    # Ten overlapping 200 ms sends: a throttled schedule would need 2 s.
    assert result.wall_clock_s < 1.0
    assert min(result.latencies) >= 0.2


def test_open_loop_calls_on_arrival_before_each_submit():
    events = []
    result = replay_open(
        lambda item: events.append(("send", item)) or _response(200),
        [0.0, 0.01, 0.02],
        ["a", "b", "c"],
        on_arrival=lambda: events.append(("tick", None)),
    )
    assert result.statuses == {200: 3}
    assert [kind for kind, _ in events].count("tick") == 3
    for item in "abc":
        sent_at = events.index(("send", item))
        ticks_before = [e for e in events[:sent_at] if e[0] == "tick"]
        assert len(ticks_before) >= "abc".index(item) + 1


# ---------------------------------------------------------------------------
# closed loop


def test_closed_loop_sends_each_request_exactly_once_across_16_threads():
    sent = []
    sent_lock = threading.Lock()
    threads = set()

    def send(item):
        with sent_lock:
            sent.append(item)
            threads.add(threading.get_ident())
        return _response(503 if item % 7 == 0 else 200)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = replay_closed(send, list(range(2000)), 16)
    finally:
        sys.setswitchinterval(previous)
    assert sorted(sent) == list(range(2000))
    assert 1 <= len(threads) <= 16
    assert result.offered == 2000
    assert sum(result.statuses.values()) == result.offered
    assert len(result.latencies) == result.offered
    assert result.non_degraded_5xx == result.statuses[503] == 286


def test_closed_loop_latency_runs_from_the_reported_send():
    def send(_item):
        time.sleep(0.05)  # the sender's own setup
        sent_at = time.perf_counter()
        return _response(200), sent_at

    result = replay_closed(send, [0, 1], 1)
    assert result.statuses == {200: 2}
    assert max(result.latencies) < 0.04
    assert result.wall_clock_s >= 0.1


def test_closed_loop_of_nothing_is_empty():
    result = replay_closed(lambda item: _response(200), [], 8)
    assert result.offered == 0 and result.statuses == {}
    assert percentile(result.latencies, 0.99) == 0.0


# ---------------------------------------------------------------------------
# a raising send: the error surfaces, no thread is left behind


class _Boom(RuntimeError):
    pass


def _raises_on(nth):
    calls = []
    lock = threading.Lock()

    def send(item):
        with lock:
            calls.append(item)
            if len(calls) == nth:
                raise _Boom(f"request {nth}")
        return _response(200)

    return send, calls


def test_open_loop_propagates_a_raising_send_and_joins_its_clients():
    before = threading.active_count()
    send, calls = _raises_on(3)
    with pytest.raises(_Boom):
        replay_open(send, [0.01 * i for i in range(50)], list(range(50)))
    assert threading.active_count() == before
    assert len(calls) < 50  # the schedule stopped early


def test_closed_loop_propagates_a_raising_send_and_joins_its_clients():
    before = threading.active_count()
    send, calls = _raises_on(5)
    with pytest.raises(_Boom):
        replay_closed(send, list(range(400)), 8)
    assert threading.active_count() == before
    assert len(calls) < 400


def test_on_arrival_errors_propagate_too():
    before = threading.active_count()

    def tick():
        raise _Boom("controller")

    with pytest.raises(_Boom):
        replay_open(lambda item: _response(200), [0.0, 0.0], [1, 2], tick)
    assert threading.active_count() == before


@pytest.mark.parametrize("shape_name", ["burst", "autoscale"])
def test_a_failed_replay_still_closes_the_harness_target(
    monkeypatch, shape_name
):
    """The farm's consumers, the executor's workers and the fleet all
    live in ``with`` blocks, so a raising request cannot leak them."""
    from repro.bench import crowd

    shape = {"burst": crowd.BURST_SMOKE, "autoscale": crowd.AUTOSCALE_SMOKE}[
        shape_name
    ]

    def failing_replay(send, arrivals, requests, on_arrival=None):
        assert send(requests[0]).status == 200  # the target is live
        raise _Boom("mid-replay")

    monkeypatch.setattr(crowd, "replay_open", failing_replay)
    before = threading.active_count()
    for mode in shape.sides:
        with pytest.raises(_Boom):
            crowd._measure(shape, mode)
        assert threading.active_count() == before


# ---------------------------------------------------------------------------
# the marked stream


def test_marked_requests_are_a_pure_function_of_the_seed():
    def stream(seed):
        return [
            str(request.url)
            for request in marked_requests(
                "h.local", 64, 0.4, 8, DeterministicRandom(seed)
            )
        ]

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def test_marking_follows_the_papers_rule_exactly():
    draws = DeterministicRandom(99)
    expected = [draws.uniform() <= 0.3 for _ in range(200)]
    requests = marked_requests(
        "h.local", 200, 0.3, 16, DeterministicRandom(99)
    )
    assert [r.params["browser"] == "1" for r in requests] == expected
    assert [r.params["page"] for r in requests[:18]] == [
        f"p{i % 16}" for i in range(18)
    ]
    assert browser_marked(requests) == sum(expected)
    none = marked_requests("h.local", 50, 0.0, 4, DeterministicRandom(1))
    everything = marked_requests("h.local", 50, 1.0, 4, DeterministicRandom(1))
    assert browser_marked(none) == 0
    assert browser_marked(everything) == 50
    assert all(r.headers.get("User-Agent") is None for r in none)


@pytest.mark.parametrize("fraction", [-0.1, 1.5])
def test_marking_rejects_a_fraction_outside_the_unit_interval(fraction):
    with pytest.raises(ValueError):
        marked_requests("h.local", 1, fraction, 1, DeterministicRandom(1))


def test_seeded_inputs_match_the_values_the_old_harnesses_produced():
    """Captured from the retired ``bench.burst`` / ``bench.autoscale``
    harnesses and the two retired closed-loop configs of
    ``bench.scalability`` for these configs."""
    from dataclasses import replace

    from repro.bench.crowd import AUTOSCALE, BURST
    from repro.bench.scalability import ClosedLoopConfig, id_hash

    shape = dict(
        base_rps=20, peak_rps=60, ramp_s=0.1, hold_s=0.1, duration_s=0.4,
        distinct_pages=4,
    )
    arrivals, requests = flash_crowd_stream(
        replace(BURST, **shape), "burst.local"
    )
    assert arrivals == pytest.approx(
        [
            0.06680898411642855, 0.10947828573245302, 0.1261449523991197,
            0.14281161906578635, 0.159478285732453, 0.17614495239911968,
            0.19281161906578634, 0.209478285732453, 0.22614495239911966,
            0.24281161906578633, 0.259478285732453, 0.2761449523991197,
            0.29281161906578634, 0.309478285732453, 0.32614495239911967,
            0.34281161906578633, 0.359478285732453, 0.37614495239911966,
            0.3928116190657863,
        ],
        abs=1e-15,
    )
    assert [str(request.url) for request in requests] == [
        f"http://burst.local/?page=p{index % 4}&browser={mark}"
        for index, mark in enumerate("1000000000010001010")
    ]

    arrivals, requests = flash_crowd_stream(
        replace(AUTOSCALE, **shape), "autoscale.local"
    )
    assert arrivals == pytest.approx(
        [
            0.061095373967744775, 0.08578136482539056, 0.17469673836849536,
            0.19136340503516203, 0.2080300717018287, 0.22469673836849535,
            0.24136340503516202, 0.2580300717018287, 0.27469673836849534,
            0.3231340975066812,
        ],
        abs=1e-15,
    )
    assert [r.params["browser"] for r in requests] == list("1101101010")
    assert str(requests[5].url) == "http://autoscale.local/?page=p1&browser=0"

    cluster = ClosedLoopConfig(
        browser_fraction=0.5, fleet_workers=2, total_requests=10,
        distinct_pages=4,
    )
    assert id_hash(cluster) == 401488506
    requests = marked_requests(
        "cluster.local", 10, 0.5, 4,
        DeterministicRandom(cluster.seed ^ id_hash(cluster)),
        agents=(PHONE_UA, DESKTOP_UA),
    )
    assert [r.params["browser"] for r in requests] == list("0011011111")
    assert [r.headers.get("User-Agent") for r in requests] == (
        [PHONE_UA] * 4 + [DESKTOP_UA] * 4 + [PHONE_UA] * 2
    )

    real = ClosedLoopConfig(
        browser_fraction=0.25, total_requests=12, distinct_pages=4
    )
    assert id_hash(real) == 364930180
    requests = marked_requests(
        "proxy.local", 12, 0.25, 4,
        DeterministicRandom(real.seed ^ id_hash(real)),
    )
    assert [r.params["browser"] for r in requests] == list("100110100000")
    assert str(requests[0].url) == "http://proxy.local/?page=p0&browser=1"


# ---------------------------------------------------------------------------
# the stand-in app and its render strategies


def _get(page, browser, **headers):
    return Request.get(
        f"http://x.local/?page={page}&browser={browser}", **headers
    )


def test_pool_render_renders_on_the_request_thread_and_stores_nothing():
    ledger = RenderLedger()
    cache = PrerenderCache()
    app = SyntheticRenderApp(
        pool_render(BrowserPool(max_instances=1), cache, ledger), 0.0, 0.0
    )
    for _ in range(3):
        response = app.handle(_get("p1", 1))
        assert response.status == 200
        assert response.headers.get("X-MSite-Degraded") is None
    assert app.handle(_get("p1", 0)).status == 200
    assert ledger.renders == 3 and ledger.keys == {"p1"}
    assert cache.peek("snap:p1") is None
    assert app.phases["render"].count == 3
    assert app.phases["lightweight"].count == 1


def test_farm_render_degrades_to_the_stale_rung_on_a_missed_deadline():
    ledger = RenderLedger()
    with RenderFarm(consumers=1, queue_limit=4, name="replay-test") as farm:
        prompt = SyntheticRenderApp(
            farm_render(farm, "t", 1.0, ledger), 0.001, 0.001
        )
        response = prompt.handle(_get("p0", 1))
        assert response.headers.get("X-MSite-Degraded") is None
        assert ledger.renders == 1
        overdue = SyntheticRenderApp(
            farm_render(farm, "t", 0.01, ledger), 0.2, 0.0
        )
        response = overdue.handle(_get("p9", 1))
    assert response.status == 200
    assert response.headers.get("X-MSite-Degraded") == "stale"
    tally = ReplayResult()
    tally.record(response, 0.01)
    assert tally.degraded == 1 and tally.non_degraded_5xx == 0


def test_shared_cache_render_renders_each_page_and_device_once():
    ledger = RenderLedger()
    cache = PrerenderCache()
    workers = [
        SyntheticRenderApp(
            shared_cache_render(cache, ledger, 0.001), 0.001, 0.001
        )
        for _ in range(2)
    ]
    for index in range(12):
        agent = PHONE_UA if index % 2 else DESKTOP_UA
        workers[index % 2].handle(
            _get(f"p{index % 3}", 1, User_Agent=agent)
        )
    workers[0].handle(_get("p0", 0))
    assert ledger.renders == len(ledger.keys) == 6
    assert cache.peek(sorted(ledger.keys)[0]) is not None


def test_comparison_names_each_side_by_its_mode():
    from repro.bench.crowd import (
        BURST,
        Comparison,
        CrowdRow,
        format_comparison,
    )

    def side(mode, non_degraded_5xx):
        return CrowdRow(
            mode=mode, offered=1, completed_200=1, degraded_200=0,
            non_degraded_5xx=non_degraded_5xx,
            renders=0, p50_ms=1.0, p99_ms=1.0,
            queue_depth_peak=0,
        )

    comparison = Comparison(BURST, side("inline", 7), side("farm", 0))
    rows = format_comparison(comparison).splitlines()[2:4]
    assert [row.split()[0] for row in rows] == ["inline", "farm"]
    assert [row.split()[3] for row in rows] == ["7", "0"]
