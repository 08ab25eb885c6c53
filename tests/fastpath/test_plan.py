"""Compiled transform plans: grouping, selector parsing, fingerprints."""

import pytest

from repro.core.plan import TransformPlan, compute_fingerprint
from repro.core.spec import AdaptationSpec, ObjectSelector


def make_spec():
    spec = AdaptationSpec(site="S", origin_host="origin.example")
    spec.add("strip_scripts")
    spec.add(
        "subpage", ObjectSelector.css("#main"),
        subpage_id="main", title="Main",
    )
    spec.add("cacheable", ttl_s=60)
    return spec


def test_steps_grouped_by_phase_in_spec_order():
    plan = TransformPlan.compile(make_spec())
    assert [s.binding.attribute for s in plan.filter_steps] == [
        "strip_scripts"
    ]
    assert [s.binding.attribute for s in plan.dom_steps] == ["subpage"]
    assert [s.binding.attribute for s in plan.page_steps] == ["cacheable"]
    assert plan.steps_for("dom") is plan.dom_steps
    with pytest.raises(ValueError):
        plan.steps_for("bogus")


def test_css_selectors_preparsed_once():
    plan = TransformPlan.compile(make_spec())
    (step,) = plan.dom_steps
    assert step.selector_group is not None
    assert step.selector_group.alternatives


def test_bad_selector_keeps_request_time_error_semantics():
    spec = AdaptationSpec(site="S", origin_host="origin.example")
    spec.add(
        "subpage", ObjectSelector.css("#unclosed["),
        subpage_id="x", title="X",
    )
    # Compilation succeeds; the selector simply is not pre-parsed, and
    # the request-time identify() raises as it always did.
    plan = TransformPlan.compile(spec)
    assert plan.dom_steps[0].selector_group is None


def test_unknown_attribute_fails_compilation():
    from repro.core.spec import AttributeBinding
    from repro.errors import MSiteError

    spec = AdaptationSpec(site="S", origin_host="origin.example")
    spec.bindings.append(AttributeBinding(attribute="no_such_attribute"))
    # spec.validate() (CodegenError) or the registry resolution
    # (AdaptationError) — either way compilation refuses to deploy.
    with pytest.raises(MSiteError, match="unknown attribute"):
        TransformPlan.compile(spec)


def test_fingerprint_tracks_spec_base_and_namespace():
    spec = make_spec()
    base = compute_fingerprint(spec, "proxy.php", "")
    assert base == compute_fingerprint(make_spec(), "proxy.php", "")
    assert base != compute_fingerprint(spec, "other.php", "")
    assert base != compute_fingerprint(spec, "proxy.php", "pageB")
    changed = make_spec()
    changed.add("strip_css")
    assert base != compute_fingerprint(changed, "proxy.php", "")


def test_compile_counts_on_registry():
    from repro.observability.metrics import MetricsRegistry

    registry = MetricsRegistry()
    TransformPlan.compile(make_spec(), registry=registry)
    assert (
        registry.counter("msite_plan_compiles_total").value == 1.0
    )
