"""Fault tolerance for the proxy runtime.

The package the degradation story lives in (see ``docs/RESILIENCE.md``):

* deterministic fault injection (:class:`FaultPlan`,
  :class:`FaultyHttpClient`, :class:`FaultyBrowser`) driven by the
  seeded experiment RNG,
* bounded retries with backoff, jitter, and a deployment-wide retry
  budget (:class:`RetryPolicy`, :class:`RetryBudget`),
* circuit breakers per origin host and around the renderer
  (:class:`CircuitBreaker`),
* the per-deployment bundle that wires it all into
  :class:`~repro.core.pipeline.ProxyServices`
  (:class:`ResiliencePolicy`),
* the chaos harness behind ``msite chaos`` (:func:`run_chaos`), which
  runs one of two scripts: ``faults`` over the forum demo proxy,
  ``regions`` over a two-region deployment.
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.chaos import ChaosReport, format_report, run_chaos
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    FaultyBrowser,
    FaultyHttpClient,
)
from repro.resilience.policy import (
    DEFAULT_RETRY_AFTER_S,
    HTML_ONLY,
    PASSTHROUGH,
    SKIPPED,
    STALE,
    ResiliencePolicy,
)
from repro.resilience.retry import RetryBudget, RetryPolicy

__all__ = [
    "ChaosReport",
    "CircuitBreaker",
    "DEFAULT_RETRY_AFTER_S",
    "FaultPlan",
    "FaultSpec",
    "FaultyBrowser",
    "FaultyHttpClient",
    "HTML_ONLY",
    "PASSTHROUGH",
    "ResiliencePolicy",
    "RetryBudget",
    "RetryPolicy",
    "SKIPPED",
    "STALE",
    "format_report",
    "run_chaos",
]
