"""The attribute system, applied through the pipeline context."""

import pytest

from repro.core.attributes import (
    ATTRIBUTE_REGISTRY,
    attribute_menu,
    definitions_by_phase,
)
from repro.core.pipeline import PipelineContext
from repro.core.spec import AdaptationSpec, AttributeBinding, ObjectSelector
from repro.errors import AdaptationError
from repro.html.parser import parse_html
from repro.html.serializer import serialize

PAGE = """
<html><head><title>Original</title>
<script src="lib.js"></script>
<style>.x { color: red }</style>
</head><body>
<div id="logo"><img src="/images/big_logo.gif" width="320"></div>
<div id="nav"><a href="/a">A</a> <a href="/b">B</a> <a href="/c">C</a>
<a href="/d">D</a></div>
<form id="login"><input name="u"></form>
<div id="ads"><p class="ad">buy</p></div>
<a id="logout" href="/logout.php" onclick="confirm()">Log out</a>
<a id="pic" href="site.php?do=showpic&id=9">show</a>
</body></html>
"""


def make_ctx(page_html=PAGE):
    spec = AdaptationSpec(site="t", origin_host="h")
    ctx = PipelineContext(spec, page_html)
    ctx.document = parse_html(ctx.source)
    return ctx


def apply(ctx, attribute, selector=None, **params):
    binding = AttributeBinding(attribute, selector, params)
    ATTRIBUTE_REGISTRY[attribute].applier(ctx, binding)
    return binding


# -- registry ---------------------------------------------------------------


def test_registry_has_the_paper_attribute_families():
    expected = {
        "prerender", "subpage", "ajax_subpage", "copy_dependency",
        "insert_js", "remove_js", "insert_object", "remove_object",
        "relocate_object", "replace_object", "replace_attribute",
        "partial_css_prerender", "image_fidelity", "searchable",
        "cacheable", "http_auth", "ajax_rewrite", "hide_object",
        "doctype_rewrite", "title_rewrite", "strip_css", "strip_scripts",
        "rewrite_images", "vertical_links", "logout_button",
        "source_replace",
    }
    assert expected <= set(ATTRIBUTE_REGISTRY)


def test_menu_lists_descriptions():
    menu = attribute_menu()
    assert all(description for __, description in menu)
    assert len(menu) == len(ATTRIBUTE_REGISTRY)


def test_phases_partition_registry():
    total = sum(
        len(definitions_by_phase(phase)) for phase in ("filter", "dom", "page")
    )
    assert total == len(ATTRIBUTE_REGISTRY)


# -- filter phase ---------------------------------------------------------------


def test_doctype_rewrite():
    ctx = make_ctx()
    apply(ctx, "doctype_rewrite", doctype="html")
    assert ctx.source.startswith("<!DOCTYPE html>")


def test_title_rewrite_uses_param():
    ctx = make_ctx()
    apply(ctx, "title_rewrite", title="Mobile")
    assert "<title>Mobile</title>" in ctx.source


def test_title_rewrite_falls_back_to_site():
    ctx = make_ctx()
    apply(ctx, "title_rewrite")
    assert "<title>t</title>" in ctx.source


def test_strip_scripts_filter():
    ctx = make_ctx()
    apply(ctx, "strip_scripts")
    assert "<script" not in ctx.source


def test_strip_css_filter():
    ctx = make_ctx()
    apply(ctx, "strip_css")
    assert "<style" not in ctx.source


def test_rewrite_images_filter():
    ctx = make_ctx()
    apply(ctx, "rewrite_images", quality=33)
    assert "proxy.php?img=" in ctx.source
    assert "q=33" in ctx.source
    assert any("rewrite_images" in note for note in ctx.notes)


def test_source_replace_needs_regex_selector():
    ctx = make_ctx()
    with pytest.raises(AdaptationError):
        apply(
            ctx, "source_replace",
            selector=ObjectSelector.css("p"), replacement="x",
        )


def test_source_replace_applies():
    ctx = make_ctx()
    apply(
        ctx, "source_replace",
        selector=ObjectSelector.regex(r'<p class="ad">[^<]*</p>'),
        replacement="",
    )
    assert "buy" not in ctx.source


# -- dom phase ------------------------------------------------------------------


def test_subpage_defines_plan_entry():
    ctx = make_ctx()
    apply(
        ctx, "subpage", selector=ObjectSelector.css("#login"),
        subpage_id="login", title="Log in",
    )
    definition = ctx.plan.get("login")
    assert definition is not None
    assert definition.elements[0].id == "login"
    assert not definition.ajax


def test_subpage_missing_selection_raises():
    ctx = make_ctx()
    with pytest.raises(AdaptationError):
        apply(
            ctx, "subpage", selector=ObjectSelector.css("#ghost"),
            subpage_id="x",
        )


def test_ajax_subpage_flagged():
    ctx = make_ctx()
    apply(
        ctx, "ajax_subpage", selector=ObjectSelector.css("#nav"),
        subpage_id="nav",
    )
    assert ctx.plan.get("nav").ajax


def test_copy_dependency_accumulates():
    ctx = make_ctx()
    apply(
        ctx, "subpage", selector=ObjectSelector.css("#login"),
        subpage_id="login",
    )
    apply(
        ctx, "copy_dependency",
        selector=ObjectSelector.css('script[src="lib.js"]'),
        into="login",
    )
    definition = ctx.plan.get("login")
    assert len(definition.dependencies) == 1
    assert definition.dependencies[0].get("src") == "lib.js"


def test_copy_dependency_order_matters():
    ctx = make_ctx()
    with pytest.raises(AdaptationError):
        apply(
            ctx, "copy_dependency",
            selector=ObjectSelector.css("script"), into="later",
        )


def test_hide_object_sets_style():
    ctx = make_ctx()
    apply(ctx, "hide_object", selector=ObjectSelector.css("#ads"))
    assert "display: none" in ctx.document.get_element_by_id("ads").get("style")


def test_hide_object_appends_to_existing_style():
    ctx = make_ctx('<div id="x" style="color: red">y</div>')
    apply(ctx, "hide_object", selector=ObjectSelector.css("#x"))
    style = ctx.document.get_element_by_id("x").get("style")
    assert "color: red" in style
    assert "display: none" in style


def test_remove_object():
    ctx = make_ctx()
    apply(ctx, "remove_object", selector=ObjectSelector.css(".ad"))
    assert ctx.document.get_elements_by_class("ad") == []


def test_remove_object_required_flag():
    ctx = make_ctx()
    with pytest.raises(AdaptationError):
        apply(
            ctx, "remove_object", selector=ObjectSelector.css("#ghost"),
            required=True,
        )
    # Non-required silently tolerates no match.
    apply(ctx, "remove_object", selector=ObjectSelector.css("#ghost"))


def test_insert_object_positions():
    ctx = make_ctx()
    apply(
        ctx, "insert_object", selector=ObjectSelector.css("#nav"),
        html='<div id="crumb">breadcrumb</div>', position="before",
    )
    nav = ctx.document.get_element_by_id("nav")
    assert nav.previous_sibling.id == "crumb"


def test_insert_object_into_body_by_default():
    ctx = make_ctx()
    apply(ctx, "insert_object", html='<div id="footer-ad">ad</div>')
    body_children = ctx.document.body.child_elements()
    assert body_children[-1].id == "footer-ad"


def test_relocate_object():
    ctx = make_ctx()
    apply(
        ctx, "relocate_object", selector=ObjectSelector.css("#ads"),
        destination="#logo", position="append",
    )
    logo = ctx.document.get_element_by_id("logo")
    assert any(el.id == "ads" for el in logo.child_elements())


def test_relocate_requires_destination():
    ctx = make_ctx()
    with pytest.raises(AdaptationError):
        apply(ctx, "relocate_object", selector=ObjectSelector.css("#ads"))


def test_replace_object():
    ctx = make_ctx()
    apply(
        ctx, "replace_object", selector=ObjectSelector.css("#ads"),
        html='<div id="mobile-ad">small ad</div>',
    )
    assert ctx.document.get_element_by_id("ads") is None
    assert ctx.document.get_element_by_id("mobile-ad") is not None


def test_replace_object_with_empty_removes():
    ctx = make_ctx()
    apply(ctx, "replace_object", selector=ObjectSelector.css("#ads"), html="")
    assert ctx.document.get_element_by_id("ads") is None


def test_replace_attribute_swaps_logo_src():
    ctx = make_ctx()
    apply(
        ctx, "replace_attribute",
        selector=ObjectSelector.css("#logo img"),
        name="src", value="/images/mobile_logo.gif",
    )
    img = ctx.document.get_element_by_id("logo").child_elements()[0]
    assert img.get("src") == "/images/mobile_logo.gif"


def test_replace_attribute_requires_name():
    ctx = make_ctx()
    with pytest.raises(AdaptationError):
        apply(
            ctx, "replace_attribute",
            selector=ObjectSelector.css("#logo img"), value="x",
        )


def test_insert_js_client_side():
    ctx = make_ctx()
    apply(
        ctx, "insert_js", code="menuize();", where="client",
        position="body_end",
    )
    scripts = ctx.document.body.get_elements_by_tag("script")
    assert scripts[-1].text_content == "menuize();"


def test_insert_js_head():
    ctx = make_ctx()
    apply(ctx, "insert_js", code="early();", where="client", position="head")
    assert any(
        s.text_content == "early();"
        for s in ctx.document.head.get_elements_by_tag("script")
    )


def test_insert_js_server_side_runs_now():
    ctx = make_ctx()
    apply(
        ctx, "insert_js", code="$('.ad').remove();", where="server",
    )
    assert ctx.document.get_elements_by_class("ad") == []
    assert any("insert_js(server)" in note for note in ctx.notes)


def test_remove_js():
    ctx = make_ctx()
    apply(
        ctx, "remove_js",
        selector=ObjectSelector.css('script[src="lib.js"]'),
    )
    assert all(
        el.get("src") != "lib.js"
        for el in ctx.document.get_elements_by_tag("script")
    )


def test_vertical_links_transform():
    ctx = make_ctx()
    apply(
        ctx, "vertical_links", selector=ObjectSelector.css("#nav"),
        columns=2,
    )
    nav = ctx.document.get_element_by_id("nav")
    table = nav.child_elements()[0]
    assert table.tag == "table"
    rows = table.child_elements()
    assert len(rows) == 2  # 4 links over 2 columns
    links = nav.get_elements_by_tag("a")
    assert [a.text_content for a in links] == ["A", "C", "B", "D"]


def test_vertical_links_requires_links():
    ctx = make_ctx()
    with pytest.raises(AdaptationError):
        apply(
            ctx, "vertical_links", selector=ObjectSelector.css("#login"),
        )


def test_logout_button_rewrite():
    ctx = make_ctx()
    apply(ctx, "logout_button", selector=ObjectSelector.css("#logout"))
    logout = ctx.document.get_element_by_id("logout")
    assert logout.get("href") == "proxy.php?logout=1"
    assert not logout.has_attribute("onclick")


def test_ajax_rewrite_registers_actions():
    ctx = make_ctx()
    apply(ctx, "ajax_rewrite")
    pic = ctx.document.get_element_by_id("pic")
    assert pic.get("href").startswith("proxy.php?action=")
    assert len(ctx.ajax_table) == 1


def test_searchable_marks_subpage():
    ctx = make_ctx()
    apply(
        ctx, "subpage", selector=ObjectSelector.css("#login"),
        subpage_id="login",
    )
    apply(
        ctx, "searchable", selector=ObjectSelector.css("#login"),
        subpage_id="login", label="Find",
    )
    definition = ctx.plan.get("login")
    assert definition.searchable
    assert definition.search_trigger_label == "Find"


def test_searchable_unknown_subpage():
    ctx = make_ctx()
    with pytest.raises(AdaptationError):
        apply(
            ctx, "searchable", selector=ObjectSelector.css("#login"),
            subpage_id="ghost",
        )


def test_image_fidelity_sets_params():
    ctx = make_ctx()
    apply(ctx, "image_fidelity", quality=20, scale=0.5)
    assert ctx.fidelity == {"quality": 20, "scale": 0.5}


def test_partial_prerender_queues_target():
    ctx = make_ctx()
    apply(
        ctx, "partial_css_prerender",
        selector=ObjectSelector.css("#logo"),
    )
    assert len(ctx.partial_prerender_targets) == 1


# -- page phase -------------------------------------------------------------------


def test_prerender_flag():
    ctx = make_ctx()
    apply(ctx, "prerender", scale=0.25)
    assert ctx.prerender_page
    assert ctx.prerender_params["scale"] == 0.25


def test_cacheable_flag_and_ttl():
    ctx = make_ctx()
    apply(ctx, "cacheable", ttl_s=60)
    assert ctx.cache_snapshot
    assert ctx.cache_ttl_s == 60.0


def test_http_auth_flag():
    ctx = make_ctx()
    apply(ctx, "http_auth", realm="members")
    assert ctx.http_auth_enabled
    assert ctx.http_auth_realm == "members"


# -- the query index across steps ---------------------------------------------

#: The DOM attributes that only select (to define plan entries or set
#: parameters): the steps the query index survives.
READ_ONLY = {
    "subpage": (ObjectSelector.css("#login"), {"subpage_id": "login"}),
    "ajax_subpage": (ObjectSelector.css("#nav"), {"subpage_id": "nav"}),
    "copy_dependency": (
        ObjectSelector.css("script"), {"into": "login"}
    ),
    "searchable": (None, {"subpage_id": "login"}),
    "image_fidelity": (None, {"quality": 30}),
    "partial_css_prerender": (ObjectSelector.css("#logo"), {}),
}


def test_the_read_only_dom_attributes_are_exactly_these():
    assert {
        d.name for d in definitions_by_phase("dom") if not d.mutates_tree
    } == set(READ_ONLY)
    assert not any(
        d.mutates_tree
        for phase in ("filter", "page")
        for d in definitions_by_phase(phase)
    )


def test_read_only_appliers_leave_the_document_unchanged():
    ctx = make_ctx()
    before = serialize(ctx.document)
    for name, (selector, params) in READ_ONLY.items():
        apply(ctx, name, selector, **params)
        assert serialize(ctx.document) == before, name


def _counting_index_builds(monkeypatch) -> list:
    from repro.core import pipeline

    builds = []
    real = pipeline.QueryIndex

    def counting(root):
        builds.append(root)
        return real(root)

    monkeypatch.setattr(pipeline, "QueryIndex", counting)
    return builds


def _forum_spec(*subpages, ajax=None, prerender=False):
    from tests.conftest import FORUM_HOST

    spec = AdaptationSpec(site="SawmillCreek", origin_host=FORUM_HOST)
    if prerender:
        spec.add("prerender")
    spec.add("cacheable", ttl_s=3600)
    for selector, subpage_id in subpages:
        spec.add(
            "subpage", ObjectSelector.css(selector), subpage_id=subpage_id
        )
    if ajax:
        spec.add(
            "ajax_subpage", ObjectSelector.css(ajax), subpage_id="nav"
        )
    return spec


def test_a_forum_dom_adaptation_builds_one_query_index(
    origins, clock, monkeypatch
):
    from repro.core.pipeline import AdaptationPipeline, ProxyServices
    from repro.core.sessions import SessionManager

    spec = _forum_spec(("#loginform", "login"), ("#forumbits", "forums"))
    services = ProxyServices(origins=origins, clock=clock)
    session = SessionManager(clock=clock).create()
    builds = _counting_index_builds(monkeypatch)
    AdaptationPipeline(spec, services, session).run(force_refresh=True)
    assert len(builds) == 1


def test_the_paper_spec_steps_build_one_query_index(forum_app, monkeypatch):
    from repro.core.pipeline import apply_steps
    from repro.core.plan import TransformPlan
    from repro.net.client import HttpClient
    from tests.conftest import FORUM_HOST

    spec = _forum_spec(
        ("#loginform", "login"), ("#forumbits", "forums"), ("#wol", "online"),
        ajax="#navlinks", prerender=True,
    )
    plan = TransformPlan.compile(spec, proxy_base="proxy.php")
    page = HttpClient({FORUM_HOST: forum_app}).get(
        f"http://{FORUM_HOST}/index.php"
    ).text_body
    ctx = make_ctx(page)
    builds = _counting_index_builds(monkeypatch)
    for phase in ("dom", "page"):
        apply_steps(plan.steps_for(phase), ctx)
    assert len(builds) == 1
    assert len(ctx.plan) == 4 and ctx.prerender_page
