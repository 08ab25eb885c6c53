"""The one replay driver: pace, fan out, tally, take a percentile.

Every wall-clock harness in :mod:`repro.bench` and the scenario engine
replay their requests through the two functions here, so a status
count, a degraded count, a latency sample and a "p99" mean the same
thing in every report and every test that gates on one.

* :func:`replay_open` sends each request at its offset on the arrival
  schedule whether or not earlier ones have been answered.  Saturation
  then shows up as what the target does about it — 503s, degraded 200s,
  a growing latency tail — and never as a schedule the harness quietly
  slowed down.
* :func:`replay_closed` is the paper's Figure 7 protocol: a fixed
  population of clients, each sending its next request when the
  previous answer lands.

Both return a :class:`ReplayResult`.  :func:`percentile` is the
nearest-rank rule (the smallest sample with at least ``q`` of the
samples at or below it) — the rule ``perfbench`` uses.

:func:`marked_requests` builds the paper's U[0,1]-marked request stream
and :class:`SyntheticRenderApp` is the stand-in application the
Figure 7 harnesses serve it with; the three ways its browser work gets
done (:func:`pool_render`, :func:`farm_render`,
:func:`shared_cache_render`) are the whole difference between those
harnesses' targets.  See ``docs/WORKLOADS.md``, "Replay driver".
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.detect import device_class
from repro.errors import RenderFarmError
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.observability.metrics import Histogram
from repro.renderfarm import INTERACTIVE, RenderKey
from repro.sim.rng import DeterministicRandom
from repro.workload.arrivals import FlashCrowd

#: ``send(item)`` puts one request to the target and returns its
#: :class:`Response`.  A closed-loop sender that does work of its own
#: before the request leaves (taking a session's lock, say) may return
#: ``(response, sent_at)`` — ``sent_at`` a ``time.perf_counter()``
#: reading — and the latency runs from there.
Send = Callable[[Any], Any]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples``; 0.0 when there are none."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class ReplayResult:
    """What one replay counted.  Latencies are seconds, one per response."""

    offered: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    degraded: int = 0
    non_degraded_5xx: int = 0
    latencies: list[float] = field(default_factory=list)
    wall_clock_s: float = 0.0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(self, response: Response, elapsed_s: float) -> None:
        """Tally one response.  A 5xx that carries ``X-MSite-Degraded``
        is the ladder saying so honestly; one without it is a bare
        server error, which is what the smoke gates hold at zero."""
        is_degraded = response.headers.get("X-MSite-Degraded") is not None
        with self._lock:
            self.statuses[response.status] = (
                self.statuses.get(response.status, 0) + 1
            )
            if is_degraded:
                self.degraded += 1
            elif response.status >= 500:
                self.non_degraded_5xx += 1
            self.latencies.append(elapsed_s)

    @property
    def errors_5xx(self) -> int:
        return sum(
            count for status, count in self.statuses.items() if status >= 500
        )


class _Clients:
    """The client threads of one replay: send, time, tally.

    A thread pool's work queue is the shared cursor: each idle client
    takes the next submitted request, so every request is sent exactly
    once.  The first exception a ``send`` raises is kept, the clients
    drain what is left without sending it, and leaving the ``with``
    block re-raises it once every thread has been joined.
    """

    def __init__(self, send: Send, requests: Sequence[Any], threads: int):
        self.send = send
        self.result = ReplayResult(offered=len(requests))
        self.errors: list[BaseException] = []
        self.pool = ThreadPoolExecutor(
            max_workers=max(1, min(threads, len(requests))),
            thread_name_prefix="replay-client",
        )

    def submit(self, item: Any, started_at: Optional[float]) -> None:
        """Queue ``item``; with no ``started_at`` its latency runs from
        the moment a client picks it up."""
        self.pool.submit(self._client, item, started_at)

    def _client(self, item: Any, started_at: Optional[float]) -> None:
        if self.errors:
            return
        if started_at is None:
            started_at = time.perf_counter()
        try:
            outcome = self.send(item)
        except BaseException as exc:  # re-raised by __exit__
            self.errors.append(exc)
            return
        if isinstance(outcome, tuple):
            outcome, started_at = outcome
        self.result.record(outcome, time.perf_counter() - started_at)

    def __enter__(self) -> "_Clients":
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        self.pool.shutdown(wait=True)
        self.result.wall_clock_s = time.perf_counter() - self.started
        if exc_type is None and self.errors:
            raise self.errors[0]


def replay_open(
    send: Send,
    arrivals: Sequence[float],
    requests: Sequence[Any],
    on_arrival: Optional[Callable[[], None]] = None,
) -> ReplayResult:
    """Send ``requests[i]`` at ``arrivals[i]`` seconds, open loop.

    The client pool may grow to one thread per request, so requests in
    flight never hold back the schedule; latency runs from the submit.
    ``on_arrival`` runs on the pacing thread before each submit (the
    autoscaler's tick).  A ``send`` that raises stops the schedule.
    """
    with _Clients(send, requests, len(requests)) as clients:
        for offset, item in zip(arrivals, requests):
            delay = clients.started + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if clients.errors:
                break
            if on_arrival is not None:
                on_arrival()
            clients.submit(item, time.perf_counter())
    return clients.result


def replay_closed(
    send: Send, requests: Sequence[Any], client_threads: int
) -> ReplayResult:
    """Issue each of ``requests`` exactly once from ``client_threads``
    clients, each taking the next unsent one when its last is answered
    (the paper's Figure 7 protocol).

    Latency runs from the moment a client picks the request up, or
    from the ``sent_at`` its sender reports.
    """
    with _Clients(send, requests, client_threads) as clients:
        for item in requests:
            clients.submit(item, None)
    return clients.result


# ---------------------------------------------------------------------------
# The request stream


def marked_requests(
    host: str,
    count: int,
    browser_fraction: float,
    distinct_pages: int,
    rng: DeterministicRandom,
    agents: Sequence[str] = (),
) -> list[Request]:
    """``count`` requests marked by the paper's rule (§4.6): "A U[0,1]
    random number is assigned to each request; if the number exceeds
    the percentage being tested, the request is marked as not requiring
    a browser instance."

    Request ``i`` asks for page ``i mod distinct_pages``; with
    ``agents``, each pass over the pages carries the next User-Agent.
    The marking is drawn up front, so the stream is a function of the
    seed and not of thread scheduling.
    """
    if not 0.0 <= browser_fraction <= 1.0:
        raise ValueError("browser_fraction must be within [0, 1]")
    requests = []
    for index in range(count):
        needs_browser = rng.uniform() <= browser_fraction
        request = Request.get(
            f"http://{host}/?page=p{index % distinct_pages}"
            f"&browser={'1' if needs_browser else '0'}"
        )
        if agents:
            request.headers.set(
                "User-Agent", agents[(index // distinct_pages) % len(agents)]
            )
        requests.append(request)
    return requests


def browser_marked(requests: Sequence[Request]) -> int:
    """How many of a marked stream's requests need a browser."""
    return sum(request.params.get("browser") == "1" for request in requests)


def flash_crowd_stream(config: Any, host: str) -> tuple[list[float], list]:
    """(arrival offsets, marked requests) of one flash-crowd bench.

    ``config`` is a harness config carrying the crowd's shape
    (``base_rps``, ``peak_rps``, ``ramp_s``, ``hold_s``,
    ``duration_s``), ``browser_fraction``, ``distinct_pages`` and
    ``seed``; both sides of a comparison replay the identical stream.
    """
    arrivals = FlashCrowd(
        base_rps=config.base_rps,
        peak_rps=config.peak_rps,
        ramp_s=config.ramp_s,
        hold_s=config.hold_s,
        duration_s=config.duration_s,
    ).times(DeterministicRandom(config.seed))
    requests = marked_requests(
        host,
        len(arrivals),
        config.browser_fraction,
        config.distinct_pages,
        DeterministicRandom(config.seed ^ 0x5EED),
    )
    return arrivals, requests


# ---------------------------------------------------------------------------
# The stand-in application


def phase_histograms() -> dict[str, Histogram]:
    """Fresh per-phase service-time histograms (render / lightweight)."""
    return {
        phase: Histogram(
            "msite_phase_service_seconds",
            "Per-request service time by pipeline phase.",
            labels={"phase": phase},
        )
        for phase in ("render", "lightweight")
    }


class RenderLedger:
    """Which keys were rendered, and how often, across a whole target."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.renders = 0
        self.keys: set[str] = set()

    def record(self, key: str) -> None:
        with self._lock:
            self.renders += 1
            self.keys.add(key)


#: ``render(request, page, work)`` gets a browser-marked request's
#: snapshot made, calling ``work()`` wherever the browser's time is
#: spent, and returns the degradation rung it fell to, if any.
Render = Callable[[Request, str, Callable[[], None]], Optional[str]]


def pool_render(pool, cache, ledger: RenderLedger) -> Render:
    """The seed architecture: render on the request thread, holding a
    :class:`~repro.browser.pool.BrowserPool` slot, behind the cache's
    single-flight.  Nothing is stored, so every non-overlapping request
    pays a full render (the paper's cache-free protocol) while
    concurrent misses on one page collapse."""

    def render(request: Request, page: str, work) -> None:
        def _render() -> str:
            with pool.instance(f"page-{page}"):
                work()
            ledger.record(page)
            return page

        cache.load_or_join(f"snap:{page}", _render)

    return render


def farm_render(farm, site: str, wait_s: float, ledger: RenderLedger) -> Render:
    """Submit to a :class:`~repro.renderfarm.RenderFarm` and wait at
    most ``wait_s``; backpressure (full queue, missed deadline) falls
    to the ladder's stale rung instead of holding the request thread."""

    def render(request: Request, page: str, work) -> Optional[str]:
        def _render() -> str:
            work()
            ledger.record(page)
            return page

        try:
            farm.render(
                RenderKey(site, f"/{page}"),
                _render,
                lane=INTERACTIVE,
                wait_s=wait_s,
            )
        except RenderFarmError:
            return "stale"
        return None

    return render


def shared_cache_render(cache, ledger: RenderLedger, serve_s: float) -> Render:
    """Fill the fleet-shared cache once per (page, device), whichever
    worker fields the cold request, then serve the stored snapshot
    (``serve_s`` of work) — so ``ledger.renders == len(ledger.keys)``
    is the fleet's render-once property."""

    def render(request: Request, page: str, work) -> None:
        device = device_class(request.headers.get("User-Agent"))
        key = f"clustersnap:{page}:{device}"

        def _render() -> str:
            work()
            ledger.record(key)
            return page

        if cache.get(key) is None:
            # The request path's fill: single-flight, double-checked.
            cache.load_or_join(
                key,
                lambda: cache.peek(key)
                or cache.put(key, _render(), ttl_s=3600.0),
            )
        if serve_s > 0:
            time.sleep(serve_s)

    return render


class SyntheticRenderApp(Application):
    """Stands in for the generated proxy under a Figure 7 harness.

    A request marked ``browser=1`` costs ``browser_service_s`` wherever
    ``render`` spends it; any other costs ``lightweight_service_s`` on
    the request thread.  A render that degraded is answered 200 with
    the ``X-MSite-Degraded`` marker, as the real pipeline's ladder
    does, so the only 5xx a target can produce is admission overflow.
    """

    def __init__(
        self,
        render: Render,
        browser_service_s: float,
        lightweight_service_s: float,
    ) -> None:
        self.render = render
        self.browser_service_s = browser_service_s
        self.lightweight_service_s = lightweight_service_s
        self.phases = phase_histograms()

    def _browser_work(self) -> None:
        if self.browser_service_s > 0:
            time.sleep(self.browser_service_s)

    def handle(self, request: Request) -> Response:
        started = time.perf_counter()
        response = Response.text("ok")
        if request.params.get("browser") == "1":
            phase = "render"
            page = request.params.get("page", "p0")
            rung = self.render(request, page, self._browser_work)
            if rung is not None:
                response = Response.text(f"ok (degraded: {rung} snapshot)")
                response.headers.set("X-MSite-Degraded", rung)
        else:
            phase = "lightweight"
            if self.lightweight_service_s > 0:
                time.sleep(self.lightweight_service_s)
        self.phases[phase].observe(time.perf_counter() - started)
        return response

