"""Named, reproducible traffic scenarios.

A scenario composes one arrival process with one population model over
one site family and compiles, from a single seed, into a *trace*: the
ordered list of planned requests (arrival offset, path, device, session)
the engine replays against a real cluster.  Same seed ⇒ byte-identical
trace — the reproducibility contract the property suite pins down.

The six named scenarios:

* ``uniform-forum`` — the legacy bench shape: a closed loop of phones
  cycling uniformly over the forum surface.  The control scenario.
* ``zipf-news``     — open Poisson arrivals over the news section front
  with Zipfian page popularity, mixed devices, and session churn.
* ``flash-crowd``   — a breaking-news burst against the forum: base
  load ramping to a bounded peak, held, then decaying.
* ``bot-storm``     — a crawler wave over the news surface: most hits
  are cookie-less bots walking the long tail uniformly.
* ``mixed-devices`` — a compressed diurnal day on the forum with all
  three device classes represented.
* ``content-churn`` — steady reader traffic on the storable news front
  while the newsroom keeps publishing edits: ~10% of arrivals coincide
  with an origin revision, so warm misses dominate and the delta fast
  path (re-adapt only what changed) carries the load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.rng import DeterministicRandom
from repro.workload.arrivals import ClosedLoop, Diurnal, FlashCrowd, Poisson
from repro.workload.population import (
    BotMix,
    DeviceMix,
    SessionPool,
    ZipfianSampler,
)

# The navigable surface per site family, most popular first (rank 1 is
# the entry page).  News feed offsets follow the windowing the section
# spec sets up: the entry keeps 6 teasers, each AJAX batch serves 8.
FORUM_SURFACE: tuple[str, ...] = (
    "proxy.php",
    "proxy.php?page=forums",
    "proxy.php?file=snapshot.jpg",
    "proxy.php?page=login",
    "proxy.php?page=nav",
)
NEWS_SURFACE: tuple[str, ...] = (
    "proxy.php",
    "proxy.php?action=1&p=6",
    "proxy.php?page=headlines-p2",
    "proxy.php?action=1&p=14",
    "proxy.php?page=headlines-p3",
    "proxy.php?page=about",
    "proxy.php?action=1&p=22",
)
# The fastpath spec drops the AJAX rewrite (live actions exclude a
# bundle from the cache), so its surface is the entry page plus the
# static subpages only.
NEWS_FASTPATH_SURFACE: tuple[str, ...] = (
    "proxy.php",
    "proxy.php?page=headlines-p2",
    "proxy.php?page=headlines-p3",
    "proxy.php?page=about",
)


@dataclass(frozen=True)
class PlannedRequest:
    """One compiled trace entry."""

    index: int
    at_s: Optional[float]  # None for closed-loop arrivals
    path: str  # path + query, relative to the proxy host
    device: str
    user_agent: str
    session: str  # "" means a fresh, cookie-less session (bots)
    bot: bool = False
    #: This arrival coincides with an origin content revision (the
    #: engine runs the scenario's mutator before issuing the request).
    mutate: bool = False


@dataclass(frozen=True)
class Scenario:
    """One named scenario: knobs plus its arrival/population recipe."""

    name: str
    site: str  # "forum" | "news"
    description: str
    arrivals: object  # ClosedLoop | Poisson | FlashCrowd | Diurnal
    surface: tuple[str, ...]
    zipf_exponent: Optional[float]  # None -> uniform popularity
    devices: DeviceMix
    churn: float
    max_sessions: int
    bot_fraction: float
    seed: int
    requests: Optional[int] = None  # closed-loop only; open = arrivals
    default_workers: int = 1
    #: Fraction of arrivals that coincide with an origin revision
    #: (content churn).  Zero for the classic read-only scenarios.
    mutate_fraction: float = 0.0

    def knobs(self) -> dict:
        """The scenario's configuration, JSON-stable, for fingerprints."""
        arrival = {"kind": type(self.arrivals).__name__}
        arrival.update(
            {
                key: value
                for key, value in vars(self.arrivals).items()
                if isinstance(value, (int, float, str))
            }
        )
        knobs = {
            "name": self.name,
            "site": self.site,
            "arrivals": arrival,
            "surface": list(self.surface),
            "zipf_exponent": self.zipf_exponent,
            "devices": [list(pair) for pair in self.devices.weights],
            "churn": self.churn,
            "max_sessions": self.max_sessions,
            "bot_fraction": self.bot_fraction,
            "seed": self.seed,
        }
        if self.mutate_fraction:
            # Included only when set so the read-only scenarios keep
            # their pre-churn fingerprints.
            knobs["mutate_fraction"] = self.mutate_fraction
        return knobs

    def fingerprint(self, workers: int) -> str:
        """Stable identity of one run's config + fleet size; the
        scenario report prints it."""
        payload = json.dumps(
            {"config": self.knobs(), "workers": workers},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    # -- trace compilation -------------------------------------------------

    def build_trace(self, seed: Optional[int] = None) -> list[PlannedRequest]:
        """Compile the scenario into its deterministic request trace."""
        root = DeterministicRandom(self.seed if seed is None else seed)
        arrival_rng = root.fork(1)
        page_rng = root.fork(2)
        device_rng = root.fork(3)
        session_rng = root.fork(4)
        bot_rng = root.fork(5)
        mutate_rng = root.fork(6)

        times = self.arrivals.times(arrival_rng)
        sampler = (
            ZipfianSampler(self.surface, self.zipf_exponent)
            if self.zipf_exponent is not None
            else None
        )
        pool = SessionPool(churn=self.churn, max_sessions=self.max_sessions)
        bots = BotMix(fraction=self.bot_fraction)

        trace: list[PlannedRequest] = []
        for index, at_s in enumerate(times):
            # One draw per arrival keeps the stream index-stable; the
            # read-only scenarios never draw so their traces are
            # bit-identical to the pre-churn compiler.
            mutated = (
                self.mutate_fraction > 0
                and mutate_rng.uniform() < self.mutate_fraction
            )
            if bots.is_bot(bot_rng):
                # Crawlers walk the tail uniformly, cookie-less.
                path = self.surface[
                    page_rng.randint(0, len(self.surface) - 1)
                ]
                trace.append(
                    PlannedRequest(
                        index=index,
                        at_s=at_s,
                        path=path,
                        device="bot",
                        user_agent=bots.user_agent,
                        session="",
                        bot=True,
                        mutate=mutated,
                    )
                )
                continue
            if sampler is not None:
                path = sampler.sample(page_rng)
            else:
                path = self.surface[index % len(self.surface)]
            device, user_agent = self.devices.sample(device_rng)
            trace.append(
                PlannedRequest(
                    index=index,
                    at_s=at_s,
                    path=path,
                    device=device,
                    user_agent=user_agent,
                    session=pool.next_session(session_rng),
                    mutate=mutated,
                )
            )
        return trace


_BUILDERS: dict[str, Callable[[bool], Scenario]] = {}


def _scenario(name: str):
    def decorator(fn: Callable[[bool], Scenario]):
        _BUILDERS[name] = fn
        return fn

    return decorator


def scenario_names() -> list[str]:
    return sorted(_BUILDERS)


def get_scenario(name: str, smoke: bool = False) -> Scenario:
    """Look up a named scenario (its smoke variant shrinks the run)."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise KeyError(
            f"unknown scenario {name!r}; have {', '.join(scenario_names())}"
        )
    return builder(smoke)


@_scenario("uniform-forum")
def _uniform_forum(smoke: bool) -> Scenario:
    requests = 120 if smoke else 400
    return Scenario(
        name="uniform-forum",
        site="forum",
        description="closed loop of phones cycling the forum uniformly",
        arrivals=ClosedLoop(requests=requests),
        surface=FORUM_SURFACE,
        zipf_exponent=None,
        devices=DeviceMix((("phone", 1.0),)),
        churn=0.1,
        max_sessions=32,
        bot_fraction=0.0,
        seed=0x0F0D_01,
        requests=requests,
    )


@_scenario("zipf-news")
def _zipf_news(smoke: bool) -> Scenario:
    return Scenario(
        name="zipf-news",
        site="news",
        description=(
            "open Poisson arrivals over the news front, Zipfian pages, "
            "mixed devices, churning sessions"
        ),
        arrivals=Poisson(
            rate_rps=8.0 if smoke else 12.0,
            duration_s=15.0 if smoke else 40.0,
        ),
        surface=NEWS_SURFACE,
        zipf_exponent=1.1,
        devices=DeviceMix(
            (("phone", 0.6), ("tablet", 0.25), ("desktop", 0.15))
        ),
        churn=0.3,
        max_sessions=48,
        bot_fraction=0.0,
        seed=0x21BF_02,
    )


@_scenario("flash-crowd")
def _flash_crowd(smoke: bool) -> Scenario:
    if smoke:
        arrivals = FlashCrowd(
            base_rps=4.0, peak_rps=40.0, ramp_s=3.0, hold_s=2.0,
            duration_s=8.0,
        )
    else:
        arrivals = FlashCrowd(
            base_rps=5.0, peak_rps=80.0, ramp_s=8.0, hold_s=4.0,
            duration_s=24.0,
        )
    return Scenario(
        name="flash-crowd",
        site="forum",
        description=(
            "breaking-news burst on the forum: ramp to a bounded peak, "
            "hold, decay; entry-page heavy"
        ),
        arrivals=arrivals,
        surface=FORUM_SURFACE,
        zipf_exponent=1.6,  # the crowd piles onto the story's entry page
        devices=DeviceMix((("phone", 0.8), ("tablet", 0.2))),
        churn=0.5,  # a burst is mostly first-time visitors
        max_sessions=96,
        bot_fraction=0.0,
        seed=0xF1A5_03,
        default_workers=2,
    )


@_scenario("bot-storm")
def _bot_storm(smoke: bool) -> Scenario:
    return Scenario(
        name="bot-storm",
        site="news",
        description=(
            "crawler wave on the news surface: cookie-less bots walk "
            "the long tail while a human minority reads by popularity"
        ),
        arrivals=Poisson(
            rate_rps=8.0 if smoke else 10.0,
            duration_s=12.0 if smoke else 36.0,
        ),
        surface=NEWS_SURFACE,
        zipf_exponent=1.1,
        devices=DeviceMix((("phone", 0.7), ("desktop", 0.3))),
        churn=0.2,
        max_sessions=32,
        bot_fraction=0.6,
        seed=0xB07_04,
    )


@_scenario("content-churn")
def _content_churn(smoke: bool) -> Scenario:
    requests = 60 if smoke else 240
    return Scenario(
        name="content-churn",
        site="news",
        description=(
            "steady readers on the storable news front while the "
            "newsroom keeps publishing edits; warm misses dominate and "
            "the delta fast path re-adapts only what changed"
        ),
        arrivals=ClosedLoop(requests=requests),
        surface=NEWS_FASTPATH_SURFACE,
        zipf_exponent=1.2,  # readers pile onto the revised front page
        devices=DeviceMix((("phone", 0.7), ("tablet", 0.3))),
        churn=0.2,
        max_sessions=24,
        bot_fraction=0.0,
        seed=0xDE17A_06,
        requests=requests,
        mutate_fraction=0.1,
    )


@_scenario("mixed-devices")
def _mixed_devices(smoke: bool) -> Scenario:
    return Scenario(
        name="mixed-devices",
        site="forum",
        description=(
            "a compressed diurnal day on the forum with phones, tablets "
            "and desktops sharing the fleet"
        ),
        arrivals=Diurnal(
            mean_rps=6.0 if smoke else 8.0,
            duration_s=20.0 if smoke else 45.0,
            period_s=20.0 if smoke else 45.0,
        ),
        surface=FORUM_SURFACE,
        zipf_exponent=0.9,
        devices=DeviceMix(
            (("phone", 0.45), ("tablet", 0.2), ("desktop", 0.35))
        ),
        churn=0.25,
        max_sessions=64,
        bot_fraction=0.0,
        seed=0xD1A7_05,
    )
