"""Origin revalidation: conditional fetch, 304 replay, fallbacks, audit.

Every served body is compared with the oracle — a fresh single
``MSiteProxy`` with the fast path off, adapting the origin as it
stands for the same requester.
"""

import sys
import threading

import pytest

from repro.core import fastpath
from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.sessions import SESSION_COOKIE
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.errors import TransientFetchError
from repro.net.client import HttpClient
from repro.net.conditional import etag_matches, not_modified
from repro.net.cookies import Cookie, CookieJar
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.ops import SequencedLog
from repro.resilience.breaker import CLOSED, OPEN
from repro.resilience.policy import REVALIDATION_AUDIT_EVERY
from repro.sim.clock import Clock
from repro.sites.news.app import NewsApplication
from repro.sites.news.data import Newsroom
from repro.sites.news.spec import NEWS_HOST, news_fastpath_spec

PROXY_HOST = "m.example.test"
HOST = "scripted.example"
PHONE_UA = (
    "Mozilla/5.0 (iPhone; CPU iPhone OS 4_0 like Mac OS X) "
    "AppleWebKit/532.9 Mobile/8A293 Safari/6531.22.7"
)
TABLET_UA = (
    "Mozilla/5.0 (iPad; CPU OS 4_0 like Mac OS X) AppleWebKit/532.9 "
    "Mobile/8A293 Safari/6531.22.7"
)

PAGE = (
    "<html><head><title>Unit</title></head><body>"
    '<div id="a"><p>moved to a subpage</p></div>'
    '<div id="b"><p>hello {user}: {text}</p></div>'
    "</body></html>"
)


class ScriptedOrigin(Application):
    """A settable page under a settable ETag.

    The ETag is whatever the test says — it ignores the requester and,
    unless the test changes it, the page text — so this origin can lie.
    """

    def __init__(self, etag='"v1"'):
        self.text = "alpha"
        self.etag = etag
        self.fail_with = None  # a status code, or an exception
        self.always_304 = False
        self.validators = []  # the If-None-Match of every request

    def handle(self, request: Request) -> Response:
        validator = request.headers.get("If-None-Match")
        self.validators.append(validator)
        if isinstance(self.fail_with, Exception):
            raise self.fail_with
        if self.fail_with is not None:
            return Response.text("boom", status=self.fail_with)
        if self.always_304 or (
            self.etag and validator and etag_matches(validator, self.etag)
        ):
            return not_modified(self.etag)
        user = request.cookies.get("user", "guest")
        response = Response.html(PAGE.format(user=user, text=self.text))
        if self.etag:
            response.headers.set("ETag", self.etag)
        return response


def scripted_spec():
    spec = AdaptationSpec(site="Unit", origin_host=HOST)
    spec.add("cacheable", ttl_s=600)
    spec.add("subpage", ObjectSelector.css("#a"), subpage_id="a", title="A")
    return spec


class Bench:
    """One proxy over one origin, with the plumbing the tests share."""

    def __init__(self, spec, host, origin, **flags):
        self.spec, self.host, self.origin = spec, host, origin
        self.clock = Clock()
        self.ops = SequencedLog("ops", clock=self.clock)
        self.services = ProxyServices(
            origins={host: origin}, clock=self.clock, **flags
        )
        self.services.resilience.bind_ops(self.ops)
        self.proxy = MSiteProxy(spec, self.services)

    def visit(self, params="", user=None, ua=PHONE_UA, proxy=None):
        """One entry request from a brand-new device (and so a new
        proxy session), optionally logged in to the origin as ``user``."""
        proxy = proxy or self.proxy
        jar = CookieJar()
        if user is not None:
            session = proxy.sessions.create()
            session.jar.set(Cookie("user", user, domain=self.host))
            jar.set(
                Cookie(SESSION_COOKIE, session.session_id, domain=PROXY_HOST)
            )
        client = HttpClient({PROXY_HOST: proxy}, jar=jar, clock=self.clock)
        return client.get(
            f"http://{PROXY_HOST}/proxy.php{params}", User_Agent=ua
        )

    def oracle(self, user=None, ua=PHONE_UA) -> bytes:
        proxy = MSiteProxy(
            self.spec,
            ProxyServices(
                origins={self.host: self.origin}, fastpath_enabled=False
            ),
        )
        response = self.visit(user=user, ua=ua, proxy=proxy)
        assert response.status == 200
        return response.body

    def revalidations(self, result):
        return fastpath.revalidation_counter(
            self.services.observability.registry, result
        ).value

    def record(self, requester="anon"):
        return fastpath.load_validator(
            self.services.cache,
            fastpath.validator_key(
                self.spec.site, self.spec.page_path,
                self.proxy.plan.fingerprint, requester,
            ),
        )

    def origin_etag(self):
        return HttpClient({self.host: self.origin}).get(
            f"http://{self.host}{self.spec.page_path}"
        ).headers.get("ETag")


@pytest.fixture()
def news():
    return Bench(
        news_fastpath_spec(), NEWS_HOST, NewsApplication(Newsroom(seed=7))
    )


@pytest.fixture()
def scripted():
    return Bench(scripted_spec(), HOST, ScriptedOrigin())


# -- the warm hit ------------------------------------------------------------


def test_304_replay_is_byte_identical_and_moves_no_body(news):
    first = news.visit()
    assert news.revalidations("not_modified") == 0  # nothing to send yet
    second = news.visit()
    assert second.status == 200
    assert second.body == first.body == news.oracle()
    assert second.headers.get("ETag") == first.headers.get("ETag")
    assert news.revalidations("not_modified") == 1
    trace = news.services.observability.traces.last()
    (detect,) = trace.spans_named("detect")
    assert detect.attrs == {"revalidated": True}
    assert detect.to_dict()["attrs"] == {"revalidated": True}
    assert "adapt" not in trace.span_names()

    session = news.proxy.sessions.create()
    page = AdaptationPipeline(
        news.spec, news.services, session, plan=news.proxy.plan
    ).run(device_class="phone")
    assert page.fastpath_hit and page.origin_bytes == 0
    assert page.etag == first.headers.get("ETag")
    assert page.entry_html.encode("utf-8") == first.body


def test_first_fetch_carries_no_validator_and_no_attr(scripted):
    scripted.visit()
    assert scripted.origin.validators == [None]
    trace = scripted.services.observability.traces.last()
    (detect,) = trace.spans_named("detect")
    assert detect.attrs is None and "attrs" not in detect.to_dict()
    assert scripted.record() == fastpath.OriginValidator(
        '"v1"', scripted.record().content_fp
    )


def test_a_changed_page_answers_200_and_rewrites_the_record(news):
    news.visit()
    before = news.record()
    news.origin.newsroom.revise()
    changed = news.visit()
    assert changed.body == news.oracle()
    assert news.revalidations("modified") == 1
    after = news.record()
    assert after.etag == news.origin_etag() != before.etag
    assert after.content_fp != before.content_fp
    assert news.visit().body == changed.body
    assert news.revalidations("not_modified") == 1


# -- requester identity ------------------------------------------------------


def test_login_states_never_share_a_bundle_under_a_user_blind_etag(scripted):
    guest = scripted.visit()
    alice = scripted.visit(user="alice")
    assert b"hello guest" in guest.body and b"hello alice" in alice.body
    # Both identities now hold a record for the one ETag the origin
    # ever sends; each 304 must land on its own bundle.
    for _ in range(2):
        assert scripted.visit(user="alice").body == alice.body
        assert scripted.visit().body == guest.body
    assert scripted.revalidations("not_modified") == 4
    assert alice.body == scripted.oracle(user="alice")
    assert guest.body == scripted.oracle()
    # A third identity starts cold, never on a neighbour's validator.
    seen = len(scripted.origin.validators)
    assert b"hello bob" in scripted.visit(user="bob").body
    assert scripted.origin.validators[seen:] == [None]


def test_basic_credentials_are_part_of_the_identity():
    assert fastpath.requester_identity(None, None) == "anon"
    assert fastpath.requester_identity("", None) == "anon"
    identities = {
        fastpath.requester_identity("user=alice", None),
        fastpath.requester_identity("user=bob", None),
        fastpath.requester_identity(None, ("alice", "pw")),
        fastpath.requester_identity("user=alice", ("alice", "pw")),
    }
    assert len(identities) == 4 and "anon" not in identities
    # The record is purged with its site, like the bundles beside it
    # (the regional REFRESH replay drops every key holding ":<site>:").
    assert ":Unit:" in fastpath.validator_key("Unit", "/", "fp", "anon")


# -- fallbacks to the unconditional path -------------------------------------


def _drop_bundle(bench):
    pointer = bench.services.cache.peek(
        fastpath.latest_key(
            bench.spec.site, bench.spec.page_path, "phone",
            bench.proxy.plan.fingerprint,
        )
    )
    assert bench.services.cache.invalidate(pointer.data.decode("utf-8"))


@pytest.mark.parametrize(
    "lose, ua, sent_validator",
    [
        (lambda bench: bench.services.cache.clear(), PHONE_UA, False),
        (_drop_bundle, PHONE_UA, True),
        (lambda bench: bench.clock.advance(3600.0), PHONE_UA, False),
        (lambda bench: None, TABLET_UA, True),
    ],
    ids=["cache.clear()", "bundle evicted", "ttl lapsed", "new device class"],
)
def test_304_for_a_missing_bundle_falls_back_to_a_normal_miss(
    news, lose, ua, sent_validator
):
    news.visit()
    lose(news)
    response = news.visit(ua=ua)
    assert response.status == 200
    assert response.headers.get("X-MSite-Degraded") is None
    assert response.body == news.oracle(ua=ua)
    # The record alone survives an eviction and a new device class: the
    # origin said 304, and the proxy went back for the body.
    assert news.revalidations("not_modified") == int(sent_validator)
    # ...and the next visitor of that class is a fetch-free hit again.
    assert news.visit(ua=ua).body == response.body
    assert news.revalidations("not_modified") == int(sent_validator) + 1


def test_refresh_goes_out_unconditional_and_rewrites_the_record(scripted):
    scripted.visit()
    scripted.origin.text, scripted.origin.etag = "beta", '"v2"'
    forced = scripted.visit("?refresh=1")
    assert scripted.origin.validators == [None, None]
    assert b"beta" in forced.body
    assert scripted.record().etag == '"v2"'
    expected = scripted.oracle()
    assert scripted.visit().body == expected
    assert scripted.origin.validators[-1] == '"v2"'


@pytest.mark.parametrize("etag", [None, 'W/"weak"'], ids=["none", "weak"])
def test_an_origin_without_a_strong_etag_stays_unconditional(etag):
    bench = Bench(scripted_spec(), HOST, ScriptedOrigin(etag=etag))
    bodies = {bench.visit().body for _ in range(3)}
    assert bodies == {bench.oracle()}
    assert bench.origin.validators == [None, None, None, None]
    assert bench.record() is None


def test_fastpath_disabled_never_revalidates():
    bench = Bench(
        scripted_spec(), HOST, ScriptedOrigin(), fastpath_enabled=False
    )
    assert bench.visit().body == bench.visit().body
    assert bench.origin.validators == [None, None]
    assert len(bench.services.cache) == 0


def test_a_200_on_a_known_bundle_revouches_for_it(scripted):
    origin = scripted.origin
    first = scripted.visit()  # A under "v1"
    origin.text, origin.etag = "beta", '"v2"'
    scripted.visit()  # B under "v2"
    origin.text, origin.etag = "alpha", '"v1"'
    back = scripted.visit()  # sent "v2", got A again: a hit
    assert back.body == first.body
    assert scripted.revalidations("modified") == 2
    assert scripted.record().etag == '"v1"'
    assert scripted.visit().body == first.body == scripted.oracle()
    assert origin.validators == [None, '"v1"', '"v2"', '"v1"', None]
    assert scripted.revalidations("not_modified") == 1


# -- resilience --------------------------------------------------------------


@pytest.mark.parametrize(
    "failure", [500, TransientFetchError("connection refused")],
    ids=["origin 500", "origin unreachable"],
)
def test_origin_down_still_lands_on_the_stale_bundle_rung(scripted, failure):
    good = scripted.visit()
    scripted.origin.fail_with = failure
    breaker = scripted.services.resilience.origin_breaker(HOST)
    for _ in range(8):
        stale = scripted.visit()
        assert stale.status == 200
        assert stale.headers.get("X-MSite-Degraded") == "stale"
        assert stale.body == good.body
        assert stale.headers.get("ETag") is None
    if isinstance(failure, Exception):
        assert breaker.state == OPEN  # later serves never reached it


def test_a_304_is_a_success_and_an_unsolicited_one_a_fetch_error(scripted):
    breaker = scripted.services.resilience.origin_breaker(HOST)
    scripted.visit()
    for _ in range(20):
        assert scripted.visit().status == 200
    assert breaker.state == CLOSED and breaker.failure_rate == 0.0

    cold = Bench(scripted_spec(), HOST, ScriptedOrigin())
    cold.origin.always_304 = True
    response = cold.visit()
    assert response.status == 502 and b"304" in response.body
    assert cold.services.resilience.origin_breaker(HOST).state == CLOSED


# -- the audit ---------------------------------------------------------------


def test_an_honest_origin_passes_its_audits(scripted):
    scripted.visit()
    for _ in range(2 * REVALIDATION_AUDIT_EVERY):
        scripted.visit()
    assert scripted.revalidations("audit_ok") == 2
    assert scripted.revalidations("not_modified") == (
        2 * REVALIDATION_AUDIT_EVERY - 2
    )
    assert scripted.origin.validators.count(None) == 3  # cold + 2 audits
    assert scripted.services.resilience.trusts_validators(HOST)
    assert not scripted.ops.events_after(0)[0]


def test_a_lying_origin_is_believed_for_at_most_31_requests(scripted):
    old = scripted.visit().body
    scripted.origin.text = "beta"  # ...and the ETag stays "v1"
    fresh = scripted.oracle()
    assert fresh != old
    for _ in range(REVALIDATION_AUDIT_EVERY - 1):
        assert scripted.visit().body == old  # the lie, believed
    assert scripted.revalidations("not_modified") == 31
    caught = scripted.visit()  # the 32nd is fetched in full
    assert caught.body == fresh
    assert scripted.revalidations("audit_mismatch") == 1
    assert not scripted.services.resilience.trusts_validators(HOST)
    assert scripted.record() is None

    scripted.origin.text = "gamma"
    seen = len(scripted.origin.validators)
    for _ in range(REVALIDATION_AUDIT_EVERY + 2):
        assert scripted.visit().body == scripted.oracle()
    assert set(scripted.origin.validators[seen:]) == {None}
    events, truncated = scripted.ops.events_after(0)
    assert not truncated
    assert [(e.type, e.payload["origin"]) for e in events] == [
        ("origin_demoted", HOST)
    ]
    assert scripted.revalidations("audit_mismatch") == 1


def test_same_etag_on_a_conditional_200_is_also_a_lie(scripted):
    scripted.visit()
    scripted.origin.text = "beta"
    # An origin that ignores If-None-Match and keeps its stale ETag.
    scripted.origin.handle = lambda request: _ignoring(scripted.origin)
    assert scripted.visit().body == scripted.oracle()
    assert scripted.revalidations("audit_mismatch") == 1
    assert not scripted.services.resilience.trusts_validators(HOST)


def _ignoring(origin) -> Response:
    response = Response.html(PAGE.format(user="guest", text=origin.text))
    response.headers.set("ETag", origin.etag)
    return response


def test_audit_counting_and_demotion_hold_under_contention(scripted):
    """Eight threads on two cores: every 32nd revalidation is an audit
    (a lost update would drop some), and a host is demoted once."""
    resilience = scripted.services.resilience
    audits = []
    rounds = 25 * REVALIDATION_AUDIT_EVERY

    def hammer():
        mine = sum(resilience.audit_due(HOST) for _ in range(rounds))
        audits.append(mine)
        resilience.demote_origin(HOST)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sum(audits) == 8 * rounds // REVALIDATION_AUDIT_EVERY
    assert [e.type for e in scripted.ops.events_after(0)[0]] == [
        "origin_demoted"
    ]
