"""Interleavings, not fixtures: the delta path under arbitrary schedules.

A full run only stashes a seed; what happens to it next — replaced by a
refresh, aged out by the clock, dropped by an invalidation, or built
into a memo by a revision and patched forward — depends on the order
things arrive in.  Hypothesis draws that order.  The oracle is a fresh
delta-disabled deployment adapting the origin as it stands: whatever
the delta side serves a new session must equal it byte for byte.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.core import fastpath
from repro.core.codegen import generate_proxy_source, load_generated_proxy
from repro.core.pipeline import ProxyServices
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.sim.clock import Clock
from repro.sites.news.app import NewsApplication
from repro.sites.news.data import Newsroom
from repro.sites.news.spec import NEWS_HOST, news_fastpath_spec

PROXY_HOST = "m.example.test"
ENTRY = f"http://{PROXY_HOST}/proxy.php"

MODULE = load_generated_proxy(generate_proxy_source(news_fastpath_spec()))

#: Around the spec's 3600 s TTL: well inside, half, all of it.
ADVANCES = (1.0, 1800.0, 3600.0)

#: Origin 304s seen over every example.  ``NewsApplication`` emits
#: ETags, so these schedules run through the conditional fetch against
#: the unconditional oracle; the count proves they really did.
NOT_MODIFIED = [0.0]


class DeltaInterleavings(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.app = NewsApplication(Newsroom(seed=0xD1F_0FF))
        self.clock = Clock()
        self.services = ProxyServices(
            origins={NEWS_HOST: self.app}, clock=self.clock
        )
        self.proxy = MODULE.create_proxy(self.services)

    def _oracle(self) -> bytes:
        services = ProxyServices(
            origins={NEWS_HOST: self.app}, delta_enabled=False
        )
        client = HttpClient(
            {PROXY_HOST: MODULE.create_proxy(services)}, jar=CookieJar()
        )
        return client.get(ENTRY).body

    def _fetch(self, url: str) -> None:
        # A proxy pins each session's adapted page, so every fetch is a
        # new session's.
        client = HttpClient(
            {PROXY_HOST: self.proxy}, jar=CookieJar(), clock=self.clock
        )
        response = client.get(url)
        assert response.status == 200
        assert response.body == self._oracle()

    @rule()
    def request(self):
        self._fetch(ENTRY)

    @rule()
    def refresh(self):
        self._fetch(f"{ENTRY}?refresh=1")

    @rule()
    def revise(self):
        self.app.newsroom.revise()

    @rule(seconds=st.sampled_from(ADVANCES))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule()
    def invalidate(self):
        # What a fleet invalidation does to one worker: the shared
        # entries go, and the bus tells the proxy to drop what it
        # derived from them.
        self.services.cache.clear()
        self.proxy.forget_adapted()

    def teardown(self):
        self._fetch(ENTRY)
        NOT_MODIFIED[0] += fastpath.revalidation_counter(
            self.services.observability.registry, "not_modified"
        ).value


# Hypothesis switches rules off at random per example, so most examples
# never pair a revision with a fetch; one run of 60 x 30 steps made 499
# full runs, 51 memo builds, 72 applied deltas, 6 fallbacks and 6
# expiries in 7 s.
DeltaInterleavings.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
test_delta_interleavings = DeltaInterleavings.TestCase


def test_the_interleavings_ran_through_the_conditional_path():
    assert NOT_MODIFIED[0] >= 1
