"""Compiled transform plans: one spec → one reusable execution plan.

The original pipeline re-interpreted the spec on every request: each
binding looked its attribute up in the registry, and each CSS selector
string was re-parsed at match time.  A deployment's spec never changes
between requests, so all of that is compile-once work.

:class:`TransformPlan` resolves every binding to its
:class:`~repro.core.attributes.AttributeDefinition`, groups the steps by
phase in spec order, pre-parses CSS selectors through the memoized
:func:`~repro.dom.selectors.parse_selector`.  Every adaptation parses
the (filtered) source into a tree, whatever its phases: a filter-only
spec takes the same DOM emission as any other.

The plan also carries the spec *fingerprint* used by the fast-path
response cache: a change to the spec (or to the proxy base URL it is
deployed under) changes the fingerprint and therefore every cache key
derived from it — stale adaptations can never be replayed across a spec
edit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.core.attributes import ATTRIBUTE_REGISTRY, AttributeDefinition
from repro.core.spec import AdaptationSpec, AttributeBinding
from repro.dom.selectors import SelectorGroup, parse_selector
from repro.errors import AdaptationError, ParseError
from repro.observability.tracing import span


@dataclass(frozen=True)
class PlanStep:
    """One binding, resolved once: registry lookup + parsed selector."""

    binding: AttributeBinding
    definition: AttributeDefinition
    #: Pre-parsed group for CSS selectors; ``None`` for other selector
    #: kinds or for expressions that fail to parse (those keep their
    #: request-time error semantics).
    selector_group: Optional[SelectorGroup] = None


class TransformPlan:
    """The per-deployment compiled form of an :class:`AdaptationSpec`."""

    def __init__(
        self,
        spec: AdaptationSpec,
        proxy_base: str,
        namespace: str,
        fingerprint: str,
        filter_steps: list[PlanStep],
        dom_steps: list[PlanStep],
        page_steps: list[PlanStep],
    ) -> None:
        self.spec = spec
        self.proxy_base = proxy_base
        self.namespace = namespace
        self.fingerprint = fingerprint
        self.filter_steps = filter_steps
        self.dom_steps = dom_steps
        self.page_steps = page_steps

    @classmethod
    def compile(
        cls,
        spec: AdaptationSpec,
        proxy_base: str = "proxy.php",
        namespace: str = "",
        registry=None,
    ) -> "TransformPlan":
        """Resolve the spec once, at deployment time."""
        with span("plan"):
            spec.validate()
            phases: dict[str, list[PlanStep]] = {
                "filter": [], "dom": [], "page": [],
            }
            for binding in spec.bindings:
                definition = ATTRIBUTE_REGISTRY.get(binding.attribute)
                if definition is None:
                    raise AdaptationError(
                        f"unknown attribute {binding.attribute!r}"
                    )
                group = None
                if (
                    binding.selector is not None
                    and binding.selector.kind == "css"
                ):
                    try:
                        # Memoized: also warms the process-wide selector
                        # cache for request-time identify() calls.
                        group = parse_selector(binding.selector.expression)
                    except ParseError:
                        group = None
                phases[definition.phase].append(
                    PlanStep(binding, definition, group)
                )
            plan = cls(
                spec=spec,
                proxy_base=proxy_base,
                namespace=namespace,
                fingerprint=compute_fingerprint(
                    spec, proxy_base, namespace
                ),
                filter_steps=phases["filter"],
                dom_steps=phases["dom"],
                page_steps=phases["page"],
            )
        if registry is not None:
            registry.counter(
                "msite_plan_compiles_total",
                "Transform plans compiled (once per deployment).",
            ).inc()
        return plan

    def steps_for(self, phase: str) -> list[PlanStep]:
        if phase == "filter":
            return self.filter_steps
        if phase == "dom":
            return self.dom_steps
        if phase == "page":
            return self.page_steps
        raise ValueError(f"unknown phase {phase!r}")


def compute_fingerprint(
    spec: AdaptationSpec, proxy_base: str, namespace: str
) -> str:
    """Stable digest of everything that shapes the adapted output.

    ``spec.to_json()`` sorts keys, so semantically-equal specs
    fingerprint identically across processes and restarts.
    """
    basis = f"{spec.to_json()}|{proxy_base}|{namespace}"
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]
