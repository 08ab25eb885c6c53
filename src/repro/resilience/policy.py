"""The per-deployment resilience bundle.

One :class:`ResiliencePolicy` per :class:`ProxyServices
<repro.core.pipeline.ProxyServices>` owns the retry policy, one circuit
breaker per origin host, the breaker guarding the renderer, and the
degraded-serve accounting.  Binding it to the deployment's metrics
registry and clock (done automatically in ``ProxyServices``) makes all
breaker state, retry counts, and degradation modes visible at
``GET /metrics`` and keeps the whole machine deterministic under a
simulated clock.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.observability.metrics import MetricsRegistry
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.retry import RetryBudget, RetryPolicy
from repro.sim.rng import DeterministicRandom

#: Degradation modes counted in ``msite_degraded_serves_total{mode=}``.
STALE = "stale"
HTML_ONLY = "html_only"
PASSTHROUGH = "passthrough"
SKIPPED = "skipped"
#: A request served off-owner by another region's fleet (warm failover
#: from a replicated snapshot) — one rung above ``html_only`` on the
#: ladder: fully-adapted content, just from the "wrong" region.
REMOTE_REGION = "remote_region"

#: ``Retry-After`` seconds suggested when no breaker estimate exists.
DEFAULT_RETRY_AFTER_S = 5.0

#: Every this-many-th revalidation of an origin host is sent without
#: its validator and checked against it.  A constant, not a knob: it
#: bounds how long a lying origin can be believed.
REVALIDATION_AUDIT_EVERY = 32


class ResiliencePolicy:
    """Retry + breakers + degradation accounting for one deployment."""

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        breaker_window: int = 16,
        failure_threshold: float = 0.5,
        min_samples: int = 4,
        open_cooldown_s: float = 5.0,
        half_open_probes: int = 1,
        retry_budget: Optional[RetryBudget] = None,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._registry = metrics or MetricsRegistry()
        self._clock = clock or time.monotonic
        self.breaker_window = breaker_window
        self.failure_threshold = failure_threshold
        self.min_samples = min_samples
        self.open_cooldown_s = open_cooldown_s
        self.half_open_probes = half_open_probes
        self.retry = retry or RetryPolicy(
            rng=DeterministicRandom(seed or 0x5EED),
            budget=retry_budget,
            metrics=self._registry,
        )
        self._breakers: dict[str, CircuitBreaker] = {}
        self._ops = None
        self._ops_worker = ""
        self._revalidation_lock = threading.Lock()
        self._revalidations: dict[str, int] = {}
        self._demoted_origins: set[str] = set()

    # -- wiring ----------------------------------------------------------

    def bind(
        self,
        registry: MetricsRegistry,
        clock=None,
    ) -> None:
        """Adopt the deployment's registry and clock.

        ``clock`` is the deployment's simulated :class:`repro.sim.clock
        .Clock` (or ``None`` for wall time).  Under a simulated clock,
        backoff sleeps become no-ops — simulated deployments must never
        stall the host — while breaker cooldowns read simulated time, so
        open/half-open transitions stay deterministic in tests.
        """
        self._registry = registry
        self.retry.bind_metrics(registry)
        if clock is not None:
            self._clock = lambda: clock.now
            self.retry._sleep = lambda seconds: None
            if self.retry.budget is not None:
                self.retry.budget._clock = self._clock
        for breaker in self._breakers.values():
            breaker._clock = self._clock

    def bind_ops(self, ops, worker: str = "") -> None:
        """Mirror breaker transitions and degradations into an ops log.

        ``ops`` is a :class:`SequencedLog <repro.ops.SequencedLog>`;
        ``worker`` labels the events with the emitting fleet member so
        a fleet-wide log stays attributable.  Existing breakers get the
        hook retroactively; breakers created later inherit it.
        """
        self._ops = ops
        self._ops_worker = worker
        for name, breaker in self._breakers.items():
            breaker.on_transition = self._transition_emitter(name)

    def _transition_emitter(self, name: str):
        def emit(previous: str, state: str) -> None:
            if self._ops is not None:
                self._ops.emit(
                    "breaker_transition",
                    breaker=name,
                    from_state=previous,
                    to_state=state,
                    worker=self._ops_worker,
                )

        return emit

    def _make_breaker(self, name: str) -> CircuitBreaker:
        breaker = CircuitBreaker(
            name,
            window=self.breaker_window,
            failure_threshold=self.failure_threshold,
            min_samples=self.min_samples,
            open_cooldown_s=self.open_cooldown_s,
            half_open_probes=self.half_open_probes,
            clock=lambda: self._clock(),
            metrics=self._registry,
        )
        if self._ops is not None:
            breaker.on_transition = self._transition_emitter(name)
        return breaker

    def breaker(self, name: str) -> CircuitBreaker:
        """Get or create the breaker with this name."""
        existing = self._breakers.get(name)
        if existing is None:
            existing = self._breakers.setdefault(
                name, self._make_breaker(name)
            )
        return existing

    def origin_breaker(self, host: str) -> CircuitBreaker:
        return self.breaker(f"origin:{host}")

    @property
    def render_breaker(self) -> CircuitBreaker:
        return self.breaker("render")

    # -- origin revalidation trust ---------------------------------------

    def trusts_validators(self, host: str) -> bool:
        """Whether fetches of ``host`` may go out conditional."""
        return host not in self._demoted_origins

    def audit_due(self, host: str) -> bool:
        """Count one revalidation of ``host``; true on every
        ``REVALIDATION_AUDIT_EVERY``-th, which must fetch in full."""
        with self._revalidation_lock:
            count = self._revalidations.get(host, 0) + 1
            self._revalidations[host] = count
        return count % REVALIDATION_AUDIT_EVERY == 0

    def demote_origin(self, host: str) -> None:
        """``host`` kept an ETag over changed bytes: fetch it
        unconditionally for the life of the process.  One ops event."""
        with self._revalidation_lock:
            if host in self._demoted_origins:
                return
            self._demoted_origins.add(host)
        if self._ops is not None:
            self._ops.emit(
                "origin_demoted", origin=host, worker=self._ops_worker
            )

    # -- degradation accounting ------------------------------------------

    def record_degraded(self, mode: str) -> None:
        self._registry.counter(
            "msite_degraded_serves_total",
            "Requests answered through a degradation ladder rung.",
            labels={"mode": mode},
        ).inc()
        if self._ops is not None:
            self._ops.emit(
                "degradation", mode=mode, worker=self._ops_worker
            )

    def degraded_serves(self, mode: str) -> int:
        counter = self._registry.get(
            "msite_degraded_serves_total", labels={"mode": mode}
        )
        return int(counter.value) if counter is not None else 0
