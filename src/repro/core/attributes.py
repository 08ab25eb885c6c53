"""The attribute system: the registry of pre-defined page modifications.

"The power of the m.Site framework originates from the very rich attribute
system" (§3.3).  Each attribute has a *phase*:

* ``filter`` — applied to the raw source before any DOM parse,
* ``dom`` — applied to the parsed document,
* ``page`` — whole-page behaviours recorded as pipeline flags
  (pre-rendering, caching, HTTP-auth interposition).

Appliers receive the pipeline context (see
:class:`repro.core.pipeline.PipelineContext`) and their binding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core import filters
from repro.core.subpages import SubpageDefinition
from repro.dom.element import Element
from repro.dom.node import Text
from repro.errors import AdaptationError
from repro.html.parser import parse_fragment


@dataclass(frozen=True)
class AttributeDefinition:
    """One entry in the attribute menu the admin tool shows."""

    name: str
    phase: str  # 'filter' | 'dom' | 'page'
    needs_selector: bool
    description: str
    applier: Callable
    #: Whether the applier may change ``ctx.document``'s tree (nodes or
    #: attributes); the pipeline's query index survives the steps that
    #: cannot.
    mutates_tree: bool = True


ATTRIBUTE_REGISTRY: dict[str, AttributeDefinition] = {}


def register_attribute(
    name: str,
    phase: str,
    needs_selector: bool,
    description: str,
    mutates_tree: bool = True,
):
    """Decorator adding an applier to the registry.

    Only a ``dom`` attribute can mutate the tree (filters rewrite the
    source before any parse, page attributes set flags); one that only
    selects, to define plan entries, passes ``mutates_tree=False``.
    """

    def decorator(fn: Callable) -> Callable:
        if phase not in ("filter", "dom", "page"):
            raise ValueError(f"bad phase {phase!r} for attribute {name!r}")
        ATTRIBUTE_REGISTRY[name] = AttributeDefinition(
            name=name,
            phase=phase,
            needs_selector=needs_selector,
            description=description,
            applier=fn,
            mutates_tree=mutates_tree and phase == "dom",
        )
        return fn

    return decorator


# ---------------------------------------------------------------------------
# filter-phase attributes (source level)


@register_attribute(
    "doctype_rewrite", "filter", False,
    "Replace the document type declaration",
)
def _apply_doctype(ctx, binding) -> None:
    ctx.source = filters.set_doctype(
        ctx.source, binding.param("doctype", "html")
    )


@register_attribute(
    "title_rewrite", "filter", False, "Replace the page title"
)
def _apply_title(ctx, binding) -> None:
    title = binding.param("title") or ctx.spec.mobile_title or ctx.spec.site
    ctx.source = filters.set_title(ctx.source, title)


@register_attribute(
    "strip_scripts", "filter", False,
    "Blanket-remove script tags (and inline handlers) at the source level",
)
def _apply_strip_scripts(ctx, binding) -> None:
    ctx.source = filters.strip_scripts(
        ctx.source,
        strip_event_handlers=binding.param("strip_event_handlers", True),
    )


@register_attribute(
    "strip_css", "filter", False,
    "Blanket-remove style blocks and stylesheet links at the source level",
)
def _apply_strip_css(ctx, binding) -> None:
    ctx.source = filters.strip_css(ctx.source)


@register_attribute(
    "rewrite_images", "filter", False,
    "Rewrite all image references to the low-fidelity proxy image cache",
)
def _apply_rewrite_images(ctx, binding) -> None:
    quality = binding.param("quality", 40)

    def rewriter(src: str) -> str:
        if src.startswith(ctx.proxy_base):
            return src
        from repro.net.url import quote

        return f"{ctx.proxy_base}?img={quote(src, safe='')}&q={quality}"

    ctx.source, count = filters.rewrite_image_sources(ctx.source, rewriter)
    ctx.note(f"rewrite_images: {count} sources now served via proxy cache")


@register_attribute(
    "source_replace", "filter", True,
    "Regex search/replace over the raw page source",
)
def _apply_source_replace(ctx, binding) -> None:
    if binding.selector.kind != "regex":
        raise AdaptationError("source_replace needs a regex selector")
    ctx.source, hits = filters.source_replace(
        ctx.source,
        binding.selector.expression,
        binding.param("replacement", ""),
        count=binding.param("count", 0),
    )
    ctx.note(f"source_replace: {hits} occurrences replaced")


# ---------------------------------------------------------------------------
# DOM-phase attributes


@register_attribute(
    "subpage", "dom", True,
    "Split the selection into its own subpage (optionally pre-rendered, "
    "optionally a child of another subpage)",
    mutates_tree=False,
)
def _apply_subpage(ctx, binding) -> None:
    elements = ctx.identify(binding.selector)
    if not elements:
        raise AdaptationError(
            f"subpage {binding.param('subpage_id')!r}: selector matched "
            f"nothing"
        )
    engine = binding.param("engine", "html")
    if engine not in ("html", "text", "pdf"):
        raise AdaptationError(
            f"subpage engine must be html, text, or pdf; got {engine!r} "
            f"(use prerender=True for image output)"
        )
    definition = SubpageDefinition(
        subpage_id=binding.param("subpage_id"),
        title=binding.param("title", binding.param("subpage_id")),
        elements=elements,
        mode=binding.param("mode", "move"),
        parent=binding.param("parent"),
        prerender=binding.param("prerender", False),
        ajax=False,
        engine=engine,
        cacheable=binding.param("cacheable", False),
        cache_ttl_s=float(binding.param("cache_ttl_s", 3600.0)),
        searchable=binding.param("searchable", False),
    )
    ctx.plan.define(definition)


@register_attribute(
    "ajax_subpage", "dom", True,
    "Split the selection into a subpage loaded asynchronously into a "
    "hidden div on the entry page",
    mutates_tree=False,
)
def _apply_ajax_subpage(ctx, binding) -> None:
    elements = ctx.identify(binding.selector)
    if not elements:
        raise AdaptationError(
            f"ajax_subpage {binding.param('subpage_id')!r}: selector "
            f"matched nothing"
        )
    definition = SubpageDefinition(
        subpage_id=binding.param("subpage_id"),
        title=binding.param("title", binding.param("subpage_id")),
        elements=elements,
        mode=binding.param("mode", "move"),
        parent=None,
        prerender=False,
        ajax=True,
    )
    ctx.plan.define(definition)


@register_attribute(
    "copy_dependency", "dom", True,
    "Copy scripts/CSS/objects from anywhere in the page into a subpage "
    "(inserted under the subpage's head tag)",
    mutates_tree=False,
)
def _apply_copy_dependency(ctx, binding) -> None:
    target_id = binding.param("into")
    definition = ctx.plan.get(target_id)
    if definition is None:
        raise AdaptationError(
            f"copy_dependency: subpage {target_id!r} is not defined yet "
            f"(order copy_dependency bindings after their subpage)"
        )
    elements = ctx.identify(binding.selector)
    if not elements:
        raise AdaptationError(
            f"copy_dependency into {target_id!r}: selector matched nothing"
        )
    definition.dependencies.extend(elements)


@register_attribute(
    "hide_object", "dom", True,
    "Hide the selection via CSS when it arrives on the client",
)
def _apply_hide(ctx, binding) -> None:
    for element in ctx.identify(binding.selector):
        _style_hide(element)


def _style_hide(element: Element) -> None:
    style = element.get("style") or ""
    if style and not style.rstrip().endswith(";"):
        style += "; "
    element.set("style", style + "display: none")


@register_attribute(
    "feed_window", "dom", True,
    "Trim an infinite-scroll feed to its first N items and link the "
    "remainder through the proxy's AJAX feed action",
)
def _apply_feed_window(ctx, binding) -> None:
    container = ctx.identify_one(binding.selector)
    items = max(1, int(binding.param("items", 10)))
    children = [
        child for child in list(container.children)
        if isinstance(child, Element)
    ]
    trimmed = 0
    for child in children[items:]:
        child.detach()
        trimmed += 1
    if trimmed:
        template = binding.param("more_template")
        if template:
            label = binding.param("more_label", "More")
            href = template.replace("{offset}", str(items))
            for node in parse_fragment(
                f'<p class="msite-feed-more">'
                f'<a href="{href}">{label}</a></p>'
            ):
                container.append(node)
    ctx.note(
        f"feed_window: kept {min(items, len(children))} items, "
        f"trimmed {trimmed}"
    )


@register_attribute(
    "paginate", "dom", True,
    "Split a long list into fixed-size pages: the first stays on the "
    "entry page, the rest become proxy-served subpages with next/prev "
    "navigation",
)
def _apply_paginate(ctx, binding) -> None:
    base_id = binding.param("subpage_id")
    if not base_id:
        raise AdaptationError("paginate needs a subpage_id")
    container = ctx.identify_one(binding.selector)
    per_page = max(1, int(binding.param("per_page", 10)))
    title = binding.param("title", base_id)
    children = [
        child for child in list(container.children)
        if isinstance(child, Element)
    ]
    if len(children) <= per_page:
        ctx.note(
            f"paginate {base_id!r}: {len(children)} items fit on one page"
        )
        return
    chunks = [
        children[start : start + per_page]
        for start in range(per_page, len(children), per_page)
    ]
    total = 1 + len(chunks)
    for number, chunk in enumerate(chunks, start=2):
        page_id = f"{base_id}-p{number}"
        wrapper = Element(
            "div",
            {"id": f"msite-{page_id}", "class": "msite-paginated"},
        )
        for child in chunk:
            child.detach()
            wrapper.append(child)
        links = [
            f'<a href="{ctx.page_url_for(None)}">Entry</a>'
            if number == 2
            else f'<a href="{ctx.page_url_for(f"{base_id}-p{number - 1}")}"'
            f">&larr; Page {number - 1}</a>"
        ]
        if number < total:
            links.append(
                f'<a href="{ctx.page_url_for(f"{base_id}-p{number + 1}")}"'
                f">Page {number + 1} &rarr;</a>"
            )
        for node in parse_fragment(
            f'<p class="msite-paginate-nav">{" | ".join(links)}</p>'
        ):
            wrapper.append(node)
        definition = SubpageDefinition(
            subpage_id=page_id,
            title=f"{title} (page {number} of {total})",
            elements=[wrapper],
            mode="move",
            cacheable=binding.param("cacheable", False),
            cache_ttl_s=float(binding.param("cache_ttl_s", 3600.0)),
        )
        ctx.plan.define(definition)
    for node in parse_fragment(
        f'<p class="msite-paginate-nav">'
        f'<a href="{ctx.page_url_for(base_id + "-p2")}">'
        f"More {title} &mdash; page 2 of {total}</a></p>"
    ):
        container.append(node)
    ctx.note(
        f"paginate {base_id!r}: {len(children)} items over {total} pages "
        f"of {per_page}"
    )


@register_attribute(
    "remove_object", "dom", True,
    "Strip the selection out of the page entirely",
)
def _apply_remove(ctx, binding) -> None:
    removed = 0
    for element in ctx.identify(binding.selector):
        element.detach()
        removed += 1
    if removed == 0 and binding.param("required", False):
        raise AdaptationError(
            f"remove_object: selector {binding.selector.expression!r} "
            f"matched nothing"
        )


@register_attribute(
    "insert_object", "dom", False,
    "Insert new markup (ads, breadcrumbs, navigation aids) at a position "
    "relative to a selection or the page body",
)
def _apply_insert(ctx, binding) -> None:
    markup = binding.param("html", "")
    position = binding.param("position", "append")
    nodes = parse_fragment(markup)
    if binding.selector is not None:
        anchor = ctx.identify_one(binding.selector)
    else:
        anchor = ctx.document.body
        if anchor is None:
            raise AdaptationError("insert_object: page has no body")
    for node in nodes:
        if position == "before":
            anchor.insert_before(node)
        elif position == "after":
            anchor.insert_after(node)
        elif position == "prepend":
            anchor.prepend(node)
        else:
            anchor.append(node)


@register_attribute(
    "relocate_object", "dom", True,
    "Move the selection to a new position in the document",
)
def _apply_relocate(ctx, binding) -> None:
    element = ctx.identify_one(binding.selector)
    from repro.core.spec import ObjectSelector

    destination_expr = binding.param("destination")
    if not destination_expr:
        raise AdaptationError("relocate_object needs a destination selector")
    destination = ctx.identify_one(
        ObjectSelector.css(destination_expr)
    )
    position = binding.param("position", "append")
    element.detach()
    if position == "before":
        destination.insert_before(element)
    elif position == "after":
        destination.insert_after(element)
    elif position == "prepend":
        destination.prepend(element)
    else:
        destination.append(element)


@register_attribute(
    "replace_object", "dom", True,
    "Replace the selection outright with new markup",
)
def _apply_replace(ctx, binding) -> None:
    element = ctx.identify_one(binding.selector)
    nodes = parse_fragment(binding.param("html", ""))
    if not nodes:
        element.detach()
        return
    element.replace_with(nodes[0])
    anchor = nodes[0]
    for node in nodes[1:]:
        anchor.insert_after(node)
        anchor = node


@register_attribute(
    "replace_attribute", "dom", True,
    "Rewrite one attribute on the selection (e.g. swap in a "
    "mobile-specific logo src)",
)
def _apply_replace_attribute(ctx, binding) -> None:
    name = binding.param("name")
    value = binding.param("value", "")
    if not name:
        raise AdaptationError("replace_attribute needs an attribute name")
    for element in ctx.identify(binding.selector):
        element.set(name, value)


@register_attribute(
    "insert_js", "dom", False,
    "Insert JavaScript: server-side scripts run against the DOM before "
    "rendering; client-side scripts ship with the page",
)
def _apply_insert_js(ctx, binding) -> None:
    code = binding.param("code", "")
    where = binding.param("where", "client")
    if where == "server":
        from repro.browser.scripting import ScriptRuntime

        executed = ScriptRuntime().execute_jquery(ctx.document, code)
        ctx.note(f"insert_js(server): executed {executed} statements")
        return
    script = Element("script", {"type": "text/javascript"})
    script.append(Text(code))
    position = binding.param("position", "body_end")
    if position == "head" and ctx.document.head is not None:
        ctx.document.head.append(script)
    elif ctx.document.body is not None:
        ctx.document.body.append(script)
    else:
        raise AdaptationError("insert_js: nowhere to insert")


@register_attribute(
    "remove_js", "dom", True, "Remove matching script elements"
)
def _apply_remove_js(ctx, binding) -> None:
    for element in ctx.identify(binding.selector):
        if element.tag == "script":
            element.detach()


@register_attribute(
    "vertical_links", "dom", True,
    "Rewrite a horizontal line of links into stacked columns "
    "(the §4.3 navigation transform)",
)
def _apply_vertical_links(ctx, binding) -> None:
    container = ctx.identify_one(binding.selector)
    columns = max(1, int(binding.param("columns", 2)))
    links = [
        el.clone() for el in container.descendant_elements() if el.tag == "a"
    ]
    if not links:
        raise AdaptationError("vertical_links: selection contains no links")
    table = Element("table", {"class": "msite-vertical-links"})
    rows = (len(links) + columns - 1) // columns
    for row_index in range(rows):
        row = Element("tr")
        for col_index in range(columns):
            cell = Element("td")
            link_index = col_index * rows + row_index
            if link_index < len(links):
                cell.append(links[link_index])
            row.append(cell)
        table.append(row)
    container.clear_children()
    container.append(table)


@register_attribute(
    "logout_button", "dom", True,
    "Replace a logout control with a proxy GET parameter that clears the "
    "user's proxy-held cookies",
)
def _apply_logout_button(ctx, binding) -> None:
    for element in ctx.identify(binding.selector):
        element.set("href", f"{ctx.proxy_base}?logout=1")
        element.remove_attribute("onclick")


@register_attribute(
    "ajax_rewrite", "dom", False,
    "Rewrite the page's AJAX-invoking links to static proxy actions",
)
def _apply_ajax_rewrite(ctx, binding) -> None:
    from repro.core.ajax import rewrite_ajax_calls

    count = rewrite_ajax_calls(ctx.document, ctx.ajax_table, ctx.proxy_base)
    ctx.note(f"ajax_rewrite: {count} calls now served by proxy actions")


@register_attribute(
    "searchable", "dom", True,
    "Build a word index over the selection's subpage so pre-rendered "
    "content stays searchable",
    mutates_tree=False,
)
def _apply_searchable(ctx, binding) -> None:
    target = binding.param("subpage_id")
    definition = ctx.plan.get(target) if target else None
    if definition is None:
        raise AdaptationError(
            f"searchable: subpage {target!r} is not defined"
        )
    definition.searchable = True
    definition.search_trigger_label = binding.param(
        "label", "Search this page"
    )


@register_attribute(
    "image_fidelity", "dom", False,
    "Post-process rendered images: quality and scale parameters",
    mutates_tree=False,
)
def _apply_image_fidelity(ctx, binding) -> None:
    ctx.fidelity["quality"] = int(
        binding.param("quality", ctx.fidelity.get("quality", 40))
    )
    ctx.fidelity["scale"] = float(
        binding.param("scale", ctx.fidelity.get("scale", 1.0))
    )


@register_attribute(
    "partial_css_prerender", "dom", True,
    "Pre-render the selection's decoration on the server; the device "
    "draws only the text",
    mutates_tree=False,
)
def _apply_partial_prerender(ctx, binding) -> None:
    element = ctx.identify_one(binding.selector)
    ctx.partial_prerender_targets.append((binding, element))


@register_attribute(
    "media_thumbnail", "dom", False,
    "Replace rich media (Flash, movies, applets) with thumbnail "
    "snapshots linking to the original content",
)
def _apply_media_thumbnail(ctx, binding) -> None:
    """§1: 'Support for producing thumbnail snapshots of rich media
    content for resource-constrained devices.'  Interactivity stays with
    'their respective plugin developers' (§2): the thumbnail links out.
    """
    from repro.core.media import replace_rich_media

    if binding.selector is not None:
        targets = ctx.identify(binding.selector)
    else:
        targets = None  # every rich-media element on the page
    replaced = replace_rich_media(
        ctx.document,
        ctx.media_thumbnails,
        proxy_base=ctx.proxy_base,
        targets=targets,
        max_width=int(binding.param("max_width", 160)),
        quality=int(binding.param("quality", 45)),
    )
    ctx.note(f"media_thumbnail: {replaced} rich media objects replaced")


# ---------------------------------------------------------------------------
# page-level attributes (pipeline flags)


@register_attribute(
    "prerender", "page", False,
    "Render the whole page into a snapshot on the server (the entry-page "
    "menu image)",
)
def _apply_prerender(ctx, binding) -> None:
    ctx.prerender_page = True
    ctx.prerender_params.update(binding.params)


@register_attribute(
    "cacheable", "page", False,
    "Store the pre-rendered snapshot in the shared cache with a TTL",
)
def _apply_cacheable(ctx, binding) -> None:
    ctx.cache_snapshot = True
    ttl = binding.param("ttl_s")
    if ttl is not None:
        ctx.cache_ttl_s = float(ttl)


@register_attribute(
    "http_auth", "page", False,
    "Interpose on origin HTTP authentication with a lightweight login "
    "page; credentials are stored per session",
)
def _apply_http_auth(ctx, binding) -> None:
    ctx.http_auth_enabled = True
    ctx.http_auth_realm = binding.param("realm", "restricted")


@register_attribute(
    "form_login", "page", False,
    "Interpose on the origin's form login: the proxy's lightweight auth "
    "page posts to the origin form and keeps the session cookies in the "
    "user's jar",
)
def _apply_form_login(ctx, binding) -> None:
    action = binding.param("action")
    if not action:
        raise AdaptationError("form_login needs the origin form's action")
    ctx.form_login = {
        "action": action,
        "username_field": binding.param("username_field", "username"),
        "password_field": binding.param("password_field", "password"),
        "extra_fields": dict(binding.param("extra_fields", {})),
        "success_marker": binding.param("success_marker", ""),
    }


@register_attribute(
    "subpage_extras", "page", False,
    "Repeat content (ads, breadcrumbs, jump menus) on every subpage",
)
def _apply_subpage_extras(ctx, binding) -> None:
    """§3.3: 'content such as ads, and navigational aids such as
    jump-menus can be made to appear on every subpage.'"""
    top = binding.param("top_html", "")
    bottom = binding.param("bottom_html", "")
    include_jump_menu = binding.param("jump_menu", False)
    if include_jump_menu:
        links = "".join(
            f'<option value="{ctx.page_url_for(d.subpage_id)}">'
            f"{d.title}</option>"
            for d in ctx.plan.top_level()
        )
        bottom += (
            f'<select id="msite-jump" onchange="window.location='
            f'this.value">'
            f'<option value="{ctx.proxy_base}">Jump to…</option>'
            f"{links}</select>"
        )
    for definition in ctx.plan.subpages.values():
        if top:
            definition.extras_top.append(top)
        if bottom:
            definition.extras_bottom.append(bottom)


def definitions_by_phase(phase: str) -> list[AttributeDefinition]:
    return [d for d in ATTRIBUTE_REGISTRY.values() if d.phase == phase]


def attribute_menu() -> list[tuple[str, str]]:
    """(name, description) pairs — what the admin tool's menu lists."""
    return sorted(
        (definition.name, definition.description)
        for definition in ATTRIBUTE_REGISTRY.values()
    )
