"""Deterministic fault injection for origin fetches and renders.

A :class:`FaultPlan` decides, per *target* (``origin:<host>`` or
``render``), whether each call should **fail** (raise immediately),
**hang** (simulate a stalled dependency that a watchdog eventually
kills — surfaced as a timeout-flavoured error without real sleeping),
or return **garbage** (a corrupted payload the downstream code must
survive).  Decisions come from per-target substreams of a seeded
:class:`~repro.sim.rng.DeterministicRandom`, so a chaos run with seed 7
injects exactly the same faults every time, on every platform.

:class:`FaultyHttpClient` and :class:`FaultyBrowser` thread the plan
into the two dependency edges the proxy has: the in-process HTTP client
(origin pages, AJAX calls, images) and the heavyweight server browser
(snapshot renders).  :class:`ProxyServices <repro.core.pipeline
.ProxyServices>` wraps both automatically when a plan is installed.

Every injected fault is counted in
``msite_faults_injected_total{target,mode}``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.errors import RenderError, TransientFetchError
from repro.net.client import HttpClient
from repro.net.messages import Request, Response
from repro.observability.metrics import MetricsRegistry
from repro.sim.rng import DeterministicRandom

RENDER_TARGET = "render"


def origin_target(host: str) -> str:
    return f"origin:{host}"


def inject_render_fault(plan: Optional["FaultPlan"]) -> None:
    """Raise the scheduled render fault, if any (no-op without a plan).

    Render work that never touches the server browser (object renders,
    partial CSS prerenders) calls this directly, so chaos schedules cover
    every rung of the render ladder, not just full snapshots.
    """
    if plan is None:
        return
    mode = plan.decide(RENDER_TARGET)
    if mode == "fail":
        raise RenderError("injected fault: renderer crashed")
    if mode in ("hang", "garbage"):
        spec = plan.spec_for(RENDER_TARGET)
        raise RenderError(
            f"injected fault: renderer unresponsive for "
            f"{spec.hang_s:.0f}s; watchdog killed the instance"
        )


@dataclass(frozen=True)
class FaultSpec:
    """Per-target fault probabilities (independent draws per call)."""

    fail_rate: float = 0.0
    hang_rate: float = 0.0
    garbage_rate: float = 0.0
    hang_s: float = 5.0  # how long the simulated hang "took"

    def __post_init__(self) -> None:
        total = self.fail_rate + self.hang_rate + self.garbage_rate
        for rate in (self.fail_rate, self.hang_rate, self.garbage_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("fault rates must be fractions in [0, 1]")
        if total > 1.0:
            raise ValueError(
                f"fault rates for one target sum to {total}, over 1.0"
            )


class FaultPlan:
    """Seeded schedule of faults across the proxy's dependencies."""

    def __init__(
        self, seed: int = 7, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.seed = seed
        self._root = DeterministicRandom(seed)
        self._streams: dict[str, DeterministicRandom] = {}
        self._specs: dict[str, FaultSpec] = {}
        self._lock = threading.Lock()
        self._registry = metrics or MetricsRegistry()

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    def on(self, target: str, **rates: float) -> "FaultPlan":
        """Declare fault rates for one target (chainable)."""
        self._specs[target] = FaultSpec(**rates)
        return self

    def spec_for(self, target: str) -> FaultSpec:
        return self._specs.get(target, FaultSpec())

    def decide(self, target: str) -> Optional[str]:
        """``"fail"`` / ``"hang"`` / ``"garbage"`` / ``None`` for one call.

        Each target draws from its own forked substream, so adding a
        target (or reordering calls across targets) never perturbs the
        fault schedule of the others.
        """
        spec = self._specs.get(target)
        if spec is None:
            return None
        with self._lock:
            stream = self._streams.get(target)
            if stream is None:
                # Hash the target name into a stable stream id.
                stream_id = sum(
                    ord(ch) * (31 ** i) for i, ch in enumerate(target)
                )
                stream = DeterministicRandom(self.seed).fork(stream_id)
                self._streams[target] = stream
            draw = stream.uniform()
        mode = None
        if draw < spec.fail_rate:
            mode = "fail"
        elif draw < spec.fail_rate + spec.hang_rate:
            mode = "hang"
        elif draw < spec.fail_rate + spec.hang_rate + spec.garbage_rate:
            mode = "garbage"
        if mode is not None:
            self._registry.counter(
                "msite_faults_injected_total",
                "Faults injected by the active fault plan.",
                labels={"target": target, "mode": mode},
            ).inc()
        return mode

    @property
    def targets(self) -> list[str]:
        return sorted(self._specs)


GARBAGE_BODY = b"\x00\xff<!-- truncated mid-transfer " + b"\x00" * 64


class FaultyHttpClient(HttpClient):
    """An :class:`HttpClient` whose dispatches consult a fault plan."""

    def __init__(self, plan: FaultPlan, **kwargs) -> None:
        super().__init__(**kwargs)
        self.plan = plan

    def send(self, request: Request) -> Response:
        target = origin_target(request.url.host)
        mode = self.plan.decide(target)
        if mode == "fail":
            raise TransientFetchError(
                f"injected fault: {request.url.host} refused the connection"
            )
        if mode == "hang":
            spec = self.plan.spec_for(target)
            raise TransientFetchError(
                f"injected fault: {request.url.host} hung for "
                f"{spec.hang_s:.0f}s; watchdog timed the attempt out"
            )
        if mode == "garbage":
            # A transforming intermediary owns no validator: ask for the
            # body it is about to corrupt (the rebuilt response below
            # carries no ETag either).
            request.headers.remove("If-None-Match")
        response = super().send(request)
        if mode == "garbage":
            return Response.binary(
                GARBAGE_BODY,
                response.headers.get("Content-Type") or "text/html",
                status=response.status,
            )
        return response


class FaultyBrowser:
    """Wrap a :class:`ServerBrowser`; renders can fail or hang.

    Only the fetch/render entry points are intercepted — everything
    else (lifecycle, cookie state, costs) passes straight through, so
    the wrapped browser still counts against instance accounting.
    """

    def __init__(self, browser, plan: FaultPlan) -> None:
        self._browser = browser
        self._plan = plan

    def _inject(self) -> None:
        inject_render_fault(self._plan)

    def fetch_stylesheets(self, document, base):
        self._inject()
        return self._browser.fetch_stylesheets(document, base)

    def load(self, *args, **kwargs):
        self._inject()
        return self._browser.load(*args, **kwargs)

    def __enter__(self) -> "FaultyBrowser":
        self._browser.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        self._browser.__exit__(*exc_info)

    def __getattr__(self, name: str):
        return getattr(self._browser, name)
