"""Deterministic fault injection: plans, faulty client, faulty browser."""

import pytest

from repro.errors import RenderError, TransientFetchError
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar
from repro.net.messages import Request, Response
from repro.net.server import Application
from repro.observability.metrics import MetricsRegistry
from repro.resilience.faults import (
    GARBAGE_BODY,
    RENDER_TARGET,
    FaultPlan,
    FaultSpec,
    FaultyBrowser,
    FaultyHttpClient,
    inject_render_fault,
    origin_target,
)


class Echo(Application):
    def handle(self, request: Request) -> Response:
        return Response.html("<html><body>ok</body></html>")


def schedule(plan, target, draws=40):
    return [plan.decide(target) for __ in range(draws)]


def test_same_seed_same_schedule():
    target = origin_target("h.example")
    plan_a = FaultPlan(seed=7).on(target, fail_rate=0.3, hang_rate=0.2)
    plan_b = FaultPlan(seed=7).on(target, fail_rate=0.3, hang_rate=0.2)
    assert schedule(plan_a, target) == schedule(plan_b, target)


def test_different_seeds_differ():
    target = origin_target("h.example")
    plan_a = FaultPlan(seed=7).on(target, fail_rate=0.5)
    plan_b = FaultPlan(seed=8).on(target, fail_rate=0.5)
    assert schedule(plan_a, target) != schedule(plan_b, target)


def test_targets_draw_from_independent_substreams():
    """Adding a second target must not perturb the first's schedule."""
    target = origin_target("h.example")
    alone = FaultPlan(seed=7).on(target, fail_rate=0.3)
    reference = schedule(alone, target)

    mixed = (
        FaultPlan(seed=7)
        .on(target, fail_rate=0.3)
        .on(RENDER_TARGET, fail_rate=0.5)
    )
    interleaved = []
    for __ in range(40):
        interleaved.append(mixed.decide(target))
        mixed.decide(RENDER_TARGET)
    assert interleaved == reference


def test_undeclared_target_never_faults():
    plan = FaultPlan(seed=7).on(RENDER_TARGET, fail_rate=1.0)
    assert plan.decide(origin_target("h.example")) is None
    assert plan.targets == [RENDER_TARGET]


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(fail_rate=-0.1)
    with pytest.raises(ValueError):
        FaultSpec(fail_rate=0.6, hang_rate=0.6)  # sums over 1.0
    spec = FaultSpec(fail_rate=0.2, hang_rate=0.3, garbage_rate=0.1)
    assert spec.hang_s == 5.0


def test_injected_faults_are_counted():
    registry = MetricsRegistry()
    plan = FaultPlan(seed=7, metrics=registry)
    plan.on(RENDER_TARGET, fail_rate=1.0)
    for __ in range(3):
        assert plan.decide(RENDER_TARGET) == "fail"
    counter = registry.get(
        "msite_faults_injected_total",
        labels={"target": RENDER_TARGET, "mode": "fail"},
    )
    assert int(counter.value) == 3


def test_faulty_client_fail_and_hang_are_transient():
    origin = Echo()
    plan = FaultPlan(seed=7).on(
        origin_target("h.example"), fail_rate=0.5, hang_rate=0.5
    )
    client = FaultyHttpClient(
        plan, origins={"h.example": origin}, jar=CookieJar()
    )
    for __ in range(5):
        with pytest.raises(TransientFetchError):
            client.get("http://h.example/")


def test_faulty_client_garbage_corrupts_the_body():
    origin = Echo()
    plan = FaultPlan(seed=7).on(origin_target("h.example"), garbage_rate=1.0)
    client = FaultyHttpClient(
        plan, origins={"h.example": origin}, jar=CookieJar()
    )
    response = client.get("http://h.example/")
    assert response.status == 200
    assert response.body == GARBAGE_BODY
    assert response.body.startswith(b"\x00\xff")
    # Decoding must never crash the caller.
    assert isinstance(response.text_body, str)


def test_faulty_client_garbage_owns_no_validator():
    """A body-rewriting intermediary must not pass the origin's
    validators through: no ``If-None-Match`` upstream (a 304 would
    leave nothing to corrupt), no ``ETag`` downstream (it would vouch
    for bytes the origin never sent)."""
    from repro.sites.news.app import NewsApplication

    origin = NewsApplication()
    url = "http://h.example/section/tech/"
    etag = HttpClient({"h.example": origin}).get(url).headers.get("ETag")
    assert etag
    plan = FaultPlan(seed=7).on(origin_target("h.example"), garbage_rate=1.0)
    client = FaultyHttpClient(plan, origins={"h.example": origin})
    response = client.get(url, If_None_Match=etag)
    assert response.status == 200  # not the 304 the origin would give
    assert response.body == GARBAGE_BODY
    assert response.headers.get("ETag") is None
    clean = FaultyHttpClient(FaultPlan(seed=7), origins={"h.example": origin})
    assert clean.get(url, If_None_Match=etag).status == 304


def test_faulty_client_clean_passthrough():
    origin = Echo()
    plan = FaultPlan(seed=7)  # no targets declared
    client = FaultyHttpClient(
        plan, origins={"h.example": origin}, jar=CookieJar()
    )
    assert b"ok" in client.get("http://h.example/").body


def test_inject_render_fault_modes():
    inject_render_fault(None)  # no plan, no fault

    failing = FaultPlan(seed=7).on(RENDER_TARGET, fail_rate=1.0)
    with pytest.raises(RenderError, match="crashed"):
        inject_render_fault(failing)

    hanging = FaultPlan(seed=7).on(RENDER_TARGET, hang_rate=1.0)
    with pytest.raises(RenderError, match="watchdog"):
        inject_render_fault(hanging)


class FakeBrowser:
    def __init__(self):
        self.loads = 0
        self.entered = False

    def load(self, url):
        self.loads += 1
        return "document"

    def __enter__(self):
        self.entered = True
        return self

    def __exit__(self, *exc_info):
        self.entered = False

    def cookies(self):
        return "jar"


def test_faulty_browser_delegates_and_injects():
    inner = FakeBrowser()
    plan = FaultPlan(seed=7).on(RENDER_TARGET, fail_rate=1.0)
    browser = FaultyBrowser(inner, plan)
    with browser as handle:
        assert inner.entered
        with pytest.raises(RenderError):
            handle.load("http://h.example/")
        assert inner.loads == 0  # the fault fired before delegation
        assert handle.cookies() == "jar"  # passthrough via __getattr__
    assert not inner.entered


def test_faulty_browser_clean_load_passes_through():
    inner = FakeBrowser()
    browser = FaultyBrowser(inner, FaultPlan(seed=7))
    assert browser.load("http://h.example/") == "document"
    assert inner.loads == 1
