"""Page splitting: subpages, sub-subpages, and dependency copying.

§3.3: "Any object, object group, or page can be split and set to render in
its own separate HTML file, thus creating a subpage. ... Subpages can also
be further split into more subpages.  When a subpage is split, it allows
for a hierarchical navigation."  Dependencies (CSS/Javascript living
anywhere in the master document, not just the head) can be copied into any
subpage — the paper's improvement over repeat-the-head-content systems.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from repro.core.ajax import AjaxActionTable
from repro.dom.document import Document, new_document
from repro.dom.element import Element
from repro.dom.node import Node, Text
from repro.html.parser import parse_fragment
from repro.html.serializer import serialize
from repro.render.box import Rect
from repro.render.imagemap import MapRegion, build_image_map

if TYPE_CHECKING:
    from repro.core.fastpath import BundleFile


@dataclass
class SubpageDefinition:
    """One planned subpage, accumulated during the DOM phase."""

    subpage_id: str
    title: str
    elements: list[Element] = field(default_factory=list)
    dependencies: list[Element] = field(default_factory=list)
    mode: str = "move"  # 'move' or 'copy'
    parent: Optional[str] = None  # subpage_id of the parent (sub-subpage)
    prerender: bool = False
    ajax: bool = False
    engine: str = "html"  # output engine: html | text | pdf
    cacheable: bool = False  # share the pre-rendered image across sessions
    cache_ttl_s: float = 3600.0
    searchable: bool = False
    search_trigger_label: str = "Search this page"
    extras_top: list[str] = field(default_factory=list)  # raw HTML snippets
    extras_bottom: list[str] = field(default_factory=list)

    @property
    def file_name(self) -> str:
        return f"{self.subpage_id}.html"


@dataclass
class SubpagePlan:
    """All subpages for one adapted page, with hierarchy helpers."""

    subpages: dict[str, SubpageDefinition] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)

    def define(self, definition: SubpageDefinition) -> SubpageDefinition:
        if definition.subpage_id in self.subpages:
            raise ValueError(
                f"duplicate subpage id {definition.subpage_id!r}"
            )
        self.subpages[definition.subpage_id] = definition
        self.order.append(definition.subpage_id)
        return definition

    def get(self, subpage_id: str) -> Optional[SubpageDefinition]:
        return self.subpages.get(subpage_id)

    def children_of(self, subpage_id: str) -> list[SubpageDefinition]:
        return [
            self.subpages[sid]
            for sid in self.order
            if self.subpages[sid].parent == subpage_id
        ]

    def top_level(self) -> list[SubpageDefinition]:
        return [
            self.subpages[sid]
            for sid in self.order
            if self.subpages[sid].parent is None
        ]

    def __len__(self) -> int:
        return len(self.subpages)


def detach_for_subpage(definition: SubpageDefinition) -> list[Element]:
    """Take the subpage's elements out of (or copy from) the master page.

    Move keeps element identity (snapshot geometry captured earlier still
    applies); copy leaves the master document untouched.
    """
    taken: list[Element] = []
    for element in definition.elements:
        if definition.mode == "copy":
            taken.append(element.clone())
        else:
            element.detach()
            taken.append(element)
    return taken


def build_subpage_document(
    definition: SubpageDefinition,
    plan: SubpagePlan,
    page_url_for,
    taken: Optional[list[Element]] = None,
) -> Document:
    """Assemble the standalone HTML document for one subpage.

    ``page_url_for(subpage_id)`` maps ids to proxy URLs (the proxy knows
    its own routing scheme; this module does not).
    """
    document = new_document(title=definition.title)
    head = document.head
    body = document.body
    assert head is not None and body is not None

    # Dependencies land under the head tag (§4.3: "satisfied by inserting
    # the dependent scripts underneath the head tag in the subpage").
    for dependency in definition.dependencies:
        head.append(dependency.clone())

    nav = Element("div", {"id": "msite-breadcrumb", "class": "smallfont"})
    back_target = page_url_for(definition.parent) if definition.parent else (
        page_url_for(None)
    )
    back = Element("a", {"href": back_target})
    back.append(Text("← Back"))
    nav.append(back)
    body.append(nav)

    for raw in definition.extras_top:
        for node in parse_fragment(raw):
            body.append(node)

    container = Element("div", {"id": f"msite-subpage-{definition.subpage_id}"})
    for element in taken if taken is not None else definition.elements:
        container.append(element)
    body.append(container)

    children = plan.children_of(definition.subpage_id)
    if children:
        menu = Element("ul", {"id": "msite-childmenu"})
        for child in children:
            item = Element("li")
            link = Element("a", {"href": page_url_for(child.subpage_id)})
            link.append(Text(child.title))
            item.append(link)
            menu.append(item)
        body.append(menu)

    for raw in definition.extras_bottom:
        for node in parse_fragment(raw):
            body.append(node)

    return document


def serialize_subpage(document: Document) -> str:
    return serialize(document)


AJAX_LOADER_JS = """
function msiteLoad(subpage, target) {
  var container = document.getElementById(target);
  if (!container) { return false; }
  var request = new XMLHttpRequest();
  request.open('GET', subpage + '&fragment=1', true);
  request.onreadystatechange = function () {
    if (request.readyState === 4 && request.status === 200) {
      container.innerHTML = request.responseText;
      container.style.display = 'block';
    }
  };
  request.send(null);
  return false;
}
""".strip()


def ajax_container_html(subpage_id: str) -> str:
    """The hidden div an AJAX subpage loads into (§4.3: 'The container is
    hidden and empty by default')."""
    return (
        f'<div id="msite-ajax-{subpage_id}" '
        f'style="display: none"></div>'
    )


def fragment_html(
    definition: SubpageDefinition, taken: list[Element]
) -> str:
    """Serialized fragment for asynchronous loads (no html/head wrapper)."""
    parts = [serialize(element) for element in taken]
    return "".join(parts)


# ---------------------------------------------------------------------------
# what one adaptation produced

#: The entry page's name among a page's files.
ENTRY_FILE = "index.html"


@dataclass(frozen=True, slots=True)
class SubpageArtifact:
    """One emitted subpage; ``path`` names its file in the page's
    :attr:`AdaptedPage.files`."""

    subpage_id: str
    title: str
    path: str
    content_type: str
    bytes_written: int
    prerendered: bool
    ajax: bool


@dataclass(slots=True, weakref_slot=True)
class AdaptedPage:
    """The result of one pipeline run, and the files it serves.

    The paper keeps a session's generated files in a per-user directory
    (§3.2); here the session's page *is* that directory: ``files`` maps
    each artifact's relative path to its
    :class:`~repro.core.fastpath.BundleFile`, and the proxy answers
    ``?file=`` and ``?page=`` from it (:meth:`file`).  A full run fills
    a map of its own; a replay points at its bundle's map and subpage
    tuple, so it writes nothing per session.  ``entry_body`` is the
    entry page's UTF-8 bytes: the very object the entry file holds.
    """

    entry_body: bytes
    files: Mapping[str, BundleFile] = field(default_factory=dict)
    subpages: Sequence[SubpageArtifact] = field(default_factory=list)
    #: The device class the page was adapted for; a request from
    #: another class adapts anew.
    device_class: str = "default"
    snapshot_bytes: int = 0
    snapshot_from_cache: bool = False
    used_browser: bool = False
    browser_core_seconds: float = 0.0
    lightweight_core_seconds: float = 0.0
    origin_bytes: int = 0
    #: A replay's are its bundle's ``replay_notes``: never appended to.
    notes: Sequence[str] = field(default_factory=list)
    ajax_table: Optional[AjaxActionTable] = None
    #: ``None`` for a full-fidelity page, else the degradation mode that
    #: produced it (``"stale"`` / ``"html_only"`` — see repro.resilience).
    degraded: Optional[str] = None
    #: Strong validator for If-None-Match revalidation; ``None`` when
    #: the fast path is disabled or the page was served degraded.
    etag: Optional[str] = None
    #: True when this result was replayed from the fast-path cache
    #: without running the adaptation at all.
    fastpath_hit: bool = False

    @property
    def entry_html(self) -> str:
        return self.entry_body.decode("utf-8")

    @property
    def total_core_seconds(self) -> float:
        return self.browser_core_seconds + self.lightweight_core_seconds

    def file(self, name: str) -> Optional[BundleFile]:
        """The file ``name`` names: at the page's root, else among its
        images; ``None`` when the page has neither."""
        found = self.files.get(name)
        return found if found is not None else self.files.get(f"images/{name}")


# ---------------------------------------------------------------------------
# the entry page: built here, for the full run, the stale rung and the
# delta engine alike


def menu_html(ctx) -> str:
    """The subpage menu of an entry page with no snapshot (AJAX subpages
    load in place and get no item); ``""`` when there is nothing to list.

    ``ctx`` is the run's ``PipelineContext``: its subpage ``plan`` and
    its ``page_url_for`` routing.
    """
    items = "".join(
        f'<li><a href="{ctx.page_url_for(d.subpage_id)}">{d.title}</a></li>'
        for d in ctx.plan.top_level()
        if not d.ajax
    )
    return f'<ul id="msite-menu">{items}</ul>' if items else ""


def ajax_injection_html(ctx) -> str:
    """Hidden containers plus the loader script, ``""`` without AJAX."""
    ajax_defs = [d for d in ctx.plan.top_level() if d.ajax]
    if not ajax_defs:
        return ""
    containers = "".join(
        ajax_container_html(d.subpage_id) for d in ajax_defs
    )
    return (
        containers
        + f'<script type="text/javascript">{AJAX_LOADER_JS}</script>'
    )


#: The serialized ``<body ...>`` open tag.  The serializer escapes ``>``
#: inside attribute values, so the first ``>`` after the name ends it.
_BODY_OPEN = re.compile(r"<body(?:\s[^>]*)?>")


def assemble_entry(body_html: str, menu: str, ajax_injection: str) -> str:
    """Menu just inside ``<body>``, AJAX support just before ``</body>``.

    Input with no body element at all (a bare fragment) gets the menu in
    front and the injection behind.
    """
    entry_html = body_html
    if menu:
        opened = _BODY_OPEN.search(body_html)
        cut = opened.end() if opened is not None else 0
        entry_html = body_html[:cut] + menu + body_html[cut:]
    if ajax_injection:
        if "</body>" in entry_html:
            entry_html = entry_html.replace(
                "</body>", ajax_injection + "</body>", 1
            )
        else:
            entry_html += ajax_injection
    return entry_html


def snapshot_entry_html(
    title: str,
    links: Iterable[tuple[str, str, str]],
    manifest: dict,
    proxy_base: str,
) -> str:
    """The snapshot entry page: one image, one image map over it.

    ``links`` is ``(subpage_id, href, alt)`` per region wanted; a subpage
    the snapshot manifest has no geometry for gets none.
    """
    regions = [
        MapRegion(
            rect=Rect(*manifest["regions"][subpage_id]), href=href, alt=alt
        )
        for subpage_id, href, alt in links
        if subpage_id in manifest["regions"]
    ]
    image_map = build_image_map(
        regions,
        snapshot_src=f"{proxy_base}?file=snapshot.jpg",
        scale=manifest["scale"],
        width=manifest["width"],
        height=manifest["height"],
    )
    return (
        f"<!DOCTYPE html><html><head><title>{title}</title>"
        f'<meta name="viewport" content="width=device-width, '
        f'initial-scale=1" /></head><body>'
        f"{image_map}"
        f"</body></html>"
    )
