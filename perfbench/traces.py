"""Seeded trace compilation for the four perfbench workloads.

A trace is the ordered list of requests one run replays; the program
under test sees only these requests.  Everything is derived from
``(workload, seed, seconds)`` with ``random.Random`` — same arguments,
byte-identical trace, and :func:`trace_hash` proves it.

Two choices keep the metrics comparable across *different* seeds, which
is how the driver measures spread:

* Mixes are **quota-sampled**: a workload's shares (first visits,
  Zipf ranks, revisions, renders) are turned into exact request counts
  by largest-remainder apportionment, and the seed only shuffles their
  order, picks sessions and draws arrival times.  ``bytes_per_request``
  on a read-only workload is therefore the same for every seed.
* The open-loop schedule is a Poisson process **conditioned on its
  count**: N arrival instants uniform on ``[0, N / rate)``, sorted.
  Inter-arrival gaps are exponential in the limit, but every seed
  offers exactly ``rate`` requests per second over the same span.

Request counts are fixed by ``seconds`` (``rate x seconds``), not by a
deadline, so two runs of one commit do identical work.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from typing import Callable, NamedTuple

FORUM_SURFACE = (
    "proxy.php",
    "proxy.php?page=forums",
    "proxy.php?file=snapshot.jpg",
    "proxy.php?page=login",
    "proxy.php?page=nav",
)
NEWS_SURFACE = (
    "proxy.php",
    "proxy.php?page=headlines-p2",
    "proxy.php?page=headlines-p3",
    "proxy.php?page=about",
)
REFRESH_PATH = "proxy.php?refresh=1"

#: Requests per ``--seconds`` second.  ``warm-arrivals`` is the offered
#: open-loop rate (~20% of closed-loop capacity: low enough that a slow
#: minute of the machine stretches latencies in proportion instead of
#: tipping the queue); the closed loops are sized from the 2-core
#: baseline box so that each measured phase lasts about ``--seconds``.
WARM_ARRIVALS_RPS = 75.0
FULL_ADAPT_RPS = 16.0
CONTENT_CHURN_RPS = 1000.0
#: ``browser-mix`` is sized in renders: a block of light requests with
#: one render near its middle costs ~2.5 s of CPU.  The block is sized
#: so that the client which is not rendering works through it in a
#: little less than the render takes: some render is then always in
#: flight, and every light request meets the same contention.
BROWSER_MIX_RENDERS_PER_S = 0.4
BROWSER_MIX_BLOCK = 200

FORUM_ZIPF = 1.6
NEWS_ZIPF = 1.2
#: A returning visit comes from one of the most recent first visits.
RETURNING_WINDOW = 64
FULL_ADAPT_SESSIONS = 8
CHURN_REVISE_SHARE = 0.10


class Planned(NamedTuple):
    """One compiled trace entry."""

    index: int
    due_s: float  # offset into the run; 0.0 on closed loops
    path: str  # path + query, relative to the proxy host
    session: int  # trace-local device id
    first_visit: bool  # the device holds no cookie yet
    revise: bool  # the origin publishes one edit before this request
    delta_since: bool  # send X-MSite-Delta-Since with the held ETag
    refresh: bool  # forced re-adaptation (a real render on prerender specs)


class Trace(NamedTuple):
    workload: str
    loop: str  # "open" | "closed"
    seed: int
    seconds: float
    requests: tuple[Planned, ...]


def apportion(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder split of ``total`` by ``weights``."""
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (counts[i] - exact[i], i)
    )
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def zipf_weights(ranks: int, exponent: float) -> list[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, ranks + 1)]


def poisson_schedule(
    rng: random.Random, count: int, rate_rps: float
) -> list[float]:
    """``count`` Poisson arrival offsets over exactly ``count / rate``."""
    span_s = count / rate_rps
    return sorted(rng.random() * span_s for _ in range(count))


def _visits(
    rng: random.Random,
    count: int,
    surface: tuple[str, ...],
    exponent: float,
    first_share: float,
) -> list[tuple[str, int, bool]]:
    """``count`` (path, session, first_visit) draws of the visitor mix.

    ``first_share`` of the requests are new devices fetching the entry
    page; the rest are returning devices fetching a Zipf-ranked surface
    path.  A returning device is one of the last ``RETURNING_WINDOW``
    that arrived earlier in this trace, so no set-up is needed to have
    returning sessions and none outlives its neighbours.
    """
    first = max(1, round(count * first_share))
    quotas = apportion(count - first, zipf_weights(len(surface), exponent))
    kinds: list[str | None] = [None] * first
    for path, quota in zip(surface, quotas):
        kinds.extend([path] * quota)
    rng.shuffle(kinds)
    # A returning device needs an earlier arrival to return from.
    opener = kinds.index(None)
    kinds[0], kinds[opener] = kinds[opener], kinds[0]
    recent: deque[int] = deque(maxlen=RETURNING_WINDOW)
    visits = []
    minted = 0
    for kind in kinds:
        if kind is None:
            visits.append((surface[0], minted, True))
            recent.append(minted)
            minted += 1
        else:
            visits.append((kind, recent[rng.randrange(len(recent))], False))
    return visits


def _plain(index: int, visit: tuple[str, int, bool], due_s: float = 0.0):
    path, session, first_visit = visit
    return Planned(
        index, due_s, path, session, first_visit, False, False, False
    )


def _warm_arrivals(rng: random.Random, seconds: float) -> list[Planned]:
    count = max(2, round(WARM_ARRIVALS_RPS * seconds))
    visits = _visits(rng, count, FORUM_SURFACE, FORUM_ZIPF, 0.5)
    times = poisson_schedule(rng, count, WARM_ARRIVALS_RPS)
    return [
        _plain(index, visit, due_s)
        for index, (visit, due_s) in enumerate(zip(visits, times))
    ]


def _full_adapt(rng: random.Random, seconds: float) -> list[Planned]:
    count = max(2, round(FULL_ADAPT_RPS * seconds))
    # Cycling a seeded permutation keeps the two clients on different
    # devices at all times: they never queue on one session's lock.
    order = list(range(FULL_ADAPT_SESSIONS))
    rng.shuffle(order)
    return [
        Planned(
            index,
            0.0,
            REFRESH_PATH,
            order[index % FULL_ADAPT_SESSIONS],
            index < FULL_ADAPT_SESSIONS,
            False,
            False,
            True,
        )
        for index in range(count)
    ]


def _content_churn(rng: random.Random, seconds: float) -> list[Planned]:
    count = max(2, round(CONTENT_CHURN_RPS * seconds))
    visits = _visits(rng, count, NEWS_SURFACE, NEWS_ZIPF, 0.7)
    revised = set(
        rng.sample(range(count), round(count * CHURN_REVISE_SHARE))
    )
    returning_entries = [
        index
        for index, (path, _session, first_visit) in enumerate(visits)
        if not first_visit and path == NEWS_SURFACE[0]
    ]
    with_validator = set(
        rng.sample(returning_entries, len(returning_entries) // 2)
    )
    return [
        Planned(
            index,
            0.0,
            path,
            session,
            first_visit,
            index in revised,
            index in with_validator,
            False,
        )
        for index, (path, session, first_visit) in enumerate(visits)
    ]


def _browser_mix(rng: random.Random, seconds: float) -> list[Planned]:
    renders = max(1, round(BROWSER_MIX_RENDERS_PER_S * seconds))
    # One render per block, at a seeded offset in the block's middle
    # third, so renders stay evenly spread for every seed.  Every light
    # request is a first visit: under a render each one waits for 0, 1
    # or 2 GIL hand-offs of up to 5 ms, so one kind of request gives one
    # smooth latency distribution, where the warm mix's two kinds put
    # the median on a seam between their clusters (4.2-6.4 ms over
    # eight seeds).  Each request is a device of its own: none ever
    # queues behind a render on a device lock.
    third = BROWSER_MIX_BLOCK // 3
    rendered = {
        block * BROWSER_MIX_BLOCK + third + rng.randrange(third)
        for block in range(renders)
    }
    return [
        Planned(
            index,
            0.0,
            REFRESH_PATH if index in rendered else FORUM_SURFACE[0],
            index,
            True,
            False,
            False,
            index in rendered,
        )
        for index in range(renders * BROWSER_MIX_BLOCK)
    ]


_BUILDERS: dict[str, tuple[str, Callable[[random.Random, float], list]]] = {
    "warm-arrivals": ("open", _warm_arrivals),
    "full-adapt": ("closed", _full_adapt),
    "content-churn": ("closed", _content_churn),
    "browser-mix": ("closed", _browser_mix),
}

WORKLOADS = tuple(_BUILDERS)


def compile_trace(workload: str, seed: int, seconds: float) -> Trace:
    """The deterministic trace for one (workload, seed, seconds)."""
    if workload not in _BUILDERS:
        raise ValueError(
            f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}"
        )
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    loop, build = _BUILDERS[workload]
    # A per-workload stream: one seed never yields correlated traces.
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return Trace(workload, loop, seed, seconds, tuple(build(rng, seconds)))


def trace_hash(trace: Trace) -> str:
    """SHA-256 over the canonical serialization of the whole trace."""
    digest = hashlib.sha256()
    header = [trace.workload, trace.loop, trace.seed, trace.seconds]
    digest.update(json.dumps(header).encode("utf-8"))
    for planned in trace.requests:
        digest.update(b"\n")
        digest.update(json.dumps(list(planned)).encode("utf-8"))
    return digest.hexdigest()
