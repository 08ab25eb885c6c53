"""Trace replay: two client threads, open or closed loop, checked bodies.

Open loop: each request is sent at its due time whether or not earlier
ones have completed (as far as two client threads allow), and its
latency is counted from the instant it was *due*, so a stall charges
every request it delays.  Closed loop: a client sends its next request
when the previous one completes; latency is counted from the send.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.net.url import URL

from perfbench.spans import Tracer
from perfbench.traces import Planned, Trace
from perfbench.workloads import PHONE_UA, PROXY_HOST, body_hash

CLIENT_THREADS = 2  # = nproc on the baseline box
#: Median CPU time of one ``SpeedReference`` chunk on the baseline box
#: in its undisturbed state.  It only fixes the scale of the reported
#: times; comparisons between commits do not depend on it.
REFERENCE_CHUNK_NS = 750_000
#: An open-loop response later than this after its due time is not
#: goodput (Figure 7's "satisfied request").
ON_TIME_NS = 100_000_000


#: In a traced replay every fifth request runs with its spans off.  The
#: two groups are the same mix under the same machine state, so the gap
#: between their latencies is what the spans cost — which two passes
#: minutes apart could never resolve on the baseline box.
UNTRACED_EVERY = 5


def is_traced(index: int) -> bool:
    return index % UNTRACED_EVERY != UNTRACED_EVERY - 1


class Outcome(NamedTuple):
    index: int
    start_ns: int  # open loop: due; closed loop: picked by a free client
    send_ns: int
    done_ns: int
    ok: bool
    body_bytes: int


@dataclass
class Replay:
    loop: str
    outcomes: list[Outcome]  # in trace order
    wall_ns: int  # first start to last completion
    reference_ns: list[int]  # the speed reference's chunk times

    @property
    def latencies_ns(self) -> list[int]:
        # Closed-loop latency runs from the send, open-loop from the due
        # instant; ``start_ns`` of a closed loop only feeds send lag.
        if self.loop == "open":
            return [o.done_ns - o.start_ns for o in self.outcomes]
        return [o.done_ns - o.send_ns for o in self.outcomes]

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def good(self) -> int:
        """Correct responses; on an open loop, also on time."""
        if self.loop == "open":
            return sum(
                1
                for o in self.outcomes
                if o.ok and o.done_ns - o.start_ns <= ON_TIME_NS
            )
        return len(self.outcomes) - self.failed


class SpeedReference:
    """A clock for the machine itself, run beside the replay (and a
    second one beside the set-ups).

    The baseline box is a shared 2-vCPU microVM whose speed on
    memory-bound Python flips between two states ~1.5-1.9x apart, in
    phases of 5-50 s: identical work measured in back-to-back runs
    differs by +-20%, and no statistic over one run's own requests can
    tell a slow program from a slow minute.  So a third thread does a
    fixed piece of memory-bound Python (a walk over a shuffled object
    graph larger than the caches) every ``PERIOD_S`` and times it on its
    own CPU clock, which does not tick while it waits for the GIL.  The
    mean chunk time is the run's machine speed; ``run.py`` scales the
    wall-time metrics by it.  The thread costs ~5% of one core, the
    same on every commit.
    """

    PERIOD_S = 0.05
    OBJECTS = 40_000
    CHUNK = 1_000

    def __init__(self) -> None:
        rng = random.Random(0)
        self._objects = [
            {"key": str(rng.random()), "values": [rng.random()] * 4}
            for _ in range(self.OBJECTS)
        ]
        rng.shuffle(self._objects)
        self._cursor = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-speed-reference"
        )
        self.samples_ns: list[int] = []

    def _chunk(self) -> int:
        objects = self._objects
        begin = self._cursor
        self._cursor = (begin + self.CHUNK) % (self.OBJECTS - self.CHUNK)
        started = time.thread_time_ns()
        total = 0
        for item in objects[begin:begin + self.CHUNK]:
            total += len(item["key"]) + int(item["values"][1] * 10)
        return time.thread_time_ns() - started

    def _loop(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self.samples_ns.append(self._chunk())

    def __enter__(self) -> "SpeedReference":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def percentile(samples: list, q: float):
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class _Device:
    """One trace-local device: its cookie jar, held ETag, and a lock
    (two requests of one device are never in flight together)."""

    __slots__ = ("jar", "lock", "etag")

    def __init__(self) -> None:
        self.jar = CookieJar()
        self.lock = threading.Lock()
        self.etag: Optional[str] = None


def verdict(
    planned: Planned, response: Response, oracle: Optional[dict[str, str]]
) -> bool:
    """Whether ``response`` is a correct answer to ``planned``."""
    if response.headers.get("X-MSite-Degraded") is not None:
        return False
    if response.status == 304:
        return planned.delta_since
    if response.status != 200:
        return False
    if oracle is None:
        # The origin is changing under the run: bodies are compared
        # with the oracle once traffic has quiesced.
        return len(response.body) > 0
    return body_hash(response.body) == oracle[planned.path]


def replay(
    trace: Trace,
    target: Application,
    oracle: Optional[dict[str, str]],
    revise: Optional[Callable[[], object]] = None,
    tracer: Optional[Tracer] = None,
    tamper: Optional[Callable[[Response], Response]] = None,
) -> Replay:
    """Replay ``trace`` against ``target`` and judge every response.

    ``revise`` publishes one origin edit (churn traces).  ``tracer``
    turns on the spans of every request :func:`is_traced` selects.
    ``tamper`` rewrites responses before they are judged — the tests'
    way to prove that a wrong body fails the run.
    """
    requests = trace.requests
    open_loop = trace.loop == "open"
    urls = {
        planned.path: URL.parse(f"http://{PROXY_HOST}/{planned.path}")
        for planned in requests
    }
    devices: dict[int, _Device] = {}
    outcomes: list[Optional[Outcome]] = [None] * len(requests)
    cursor_lock = threading.Lock()
    cursor = [0]
    errors: list[BaseException] = []
    clock = time.perf_counter_ns

    def issue(client: HttpClient, planned: Planned, origin_ns: int) -> None:
        if planned.revise:
            revise()
        if open_loop:
            start_ns = origin_ns + int(planned.due_s * 1e9)
            wait_s = (start_ns - clock()) / 1e9
            if wait_s > 0:
                time.sleep(wait_s)
        else:
            start_ns = clock()
        with cursor_lock:
            device = devices.get(planned.session)
            if device is None:
                device = devices[planned.session] = _Device()
        request = Request(method="GET", url=urls[planned.path])
        request.headers.set("User-Agent", PHONE_UA)
        with device.lock:
            if planned.delta_since and device.etag is not None:
                request.headers.set("X-MSite-Delta-Since", device.etag)
            client.jar = device.jar
            traced = tracer is not None and is_traced(planned.index)
            if traced:
                root = tracer.next_id()
                previous = tracer.enter(planned.index, root)
            send_ns = clock()
            response = client.request(request)
            done_ns = clock()
            if traced:
                tracer.leave(previous)
                tracer.record(
                    root, 0, planned.index, "loadgen", "request",
                    start_ns if open_loop else send_ns, done_ns,
                )
            etag = response.headers.get("ETag")
            if etag is not None:
                device.etag = etag
        if tamper is not None:
            response = tamper(response)
        outcomes[planned.index] = Outcome(
            planned.index, start_ns, send_ns, done_ns,
            verdict(planned, response, oracle), len(response.body),
        )

    def client_loop(origin_ns: int) -> None:
        client = HttpClient({PROXY_HOST: target})
        try:
            while True:
                with cursor_lock:
                    position = cursor[0]
                    cursor[0] = position + 1
                if position >= len(requests):
                    return
                issue(client, requests[position], origin_ns)
        except BaseException as exc:  # surfaced by the joining thread
            errors.append(exc)
            with cursor_lock:
                cursor[0] = len(requests)

    with SpeedReference() as reference:
        origin_ns = clock()
        threads = [
            threading.Thread(
                target=client_loop, args=(origin_ns,),
                name=f"perfbench-client-{i}",
            )
            for i in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    first = min(outcome.start_ns for outcome in outcomes)
    last = max(outcome.done_ns for outcome in outcomes)
    return Replay(trace.loop, outcomes, last - first, reference.samples_ns)
