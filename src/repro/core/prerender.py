"""Pre-rendering: snapshots, partial CSS pre-render, fidelity control.

§3.3: "A page, subpage, object, or object group can be marked to be
completely rendered on the server side into a single graphic, saving much
computational effort on the mobile device. ... In the index page of our
test site, this technique can reduce wall-clock load time by a factor
of 5."

The heavyweight browser is reached through one **render-once ladder**
(:func:`render_once`): a rendered artifact is a JSON manifest plus an
image entry under one cache key, looked up with hit/miss accounting,
cold-missed through a render-farm lane (or, without a farm, the cache's
single flight) with an unaccounted double-check inside the loader, and
stored as two ``put``s.  Its two callers are the page snapshot
(:func:`obtain_snapshot`, which also owns the ``STALE`` → ``HTML_ONLY``
degrade rungs) and the pre-rendered subpage object
(:func:`prerender_subpage`); each hands it a render callable, a cache
key, a farm key, a TTL and whether the artifact is cacheable at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.search import (
    build_word_index,
    search_script,
    search_trigger_html,
    shift_index,
)
from repro.core.subpages import SubpageDefinition, build_subpage_document
from repro.dom.document import Document
from repro.dom.element import Element
from repro.dom.node import Text
from repro.errors import (
    CircuitOpenError,
    FetchError,
    PoolTimeoutError,
    RenderError,
    RenderFarmError,
)
from repro.observability.tracing import span
from repro.render.box import Rect
from repro.render.image import EncodedImage, RasterImage, encode_jpeg, encode_png
from repro.render.snapshot import PageSnapshot, render_snapshot
from repro.renderfarm.job import (
    INTERACTIVE as FARM_INTERACTIVE,
    REFRESH as FARM_REFRESH,
    RenderKey,
)
from repro.resilience.faults import inject_render_fault
from repro.resilience.policy import HTML_ONLY, STALE


@dataclass
class SnapshotArtifact:
    """A finished snapshot: scaled low-fidelity image plus geometry."""

    encoded: EncodedImage
    scale: float
    original_width: int
    original_height: int
    snapshot: PageSnapshot

    @property
    def scaled_width(self) -> int:
        return self.encoded.width

    @property
    def scaled_height(self) -> int:
        return self.encoded.height

    def region_for(self, element: Element) -> Optional[Rect]:
        """Original-document geometry of an element (unscaled)."""
        return self.snapshot.geometry_of(element)


def produce_snapshot(
    snapshot: PageSnapshot,
    scale: float = 0.28,
    quality: int = 25,
) -> SnapshotArtifact:
    """Scale a rendered page down and encode at mobile fidelity.

    "The image itself is also scaled down to prevent the user from having
    to zoom in before clicking" (§4.3); fidelity is lowered so the
    overview page ships in 25-50 KB instead of ~600 KB (§3.3).
    """
    image = snapshot.image if scale == 1.0 else snapshot.image.scaled(scale)
    encoded = encode_jpeg(image, quality=quality)
    return SnapshotArtifact(
        encoded=encoded,
        scale=scale,
        original_width=snapshot.viewport_width,
        original_height=snapshot.page_height,
        snapshot=snapshot,
    )


def prerender_object(
    document: Document,
    element: Element,
    viewport_width: int = 1024,
    quality: int = 55,
) -> EncodedImage:
    """Render a single object (subtree) to an image.

    Used when a subpage combines the subpage and prerender attributes: "If
    the subpage is combined with the pre-rendering attribute, it will be
    made up of simple pre-rendered images" (§3.3).
    """
    snapshot = render_snapshot(document, viewport_width=viewport_width)
    return _encode_region(snapshot, snapshot.geometry_of(element), quality)


def _laid_out(rect: Optional[Rect]) -> bool:
    return rect is not None and rect.width >= 1 and rect.height >= 1


def _encode_region(
    snapshot: PageSnapshot, rect: Optional[Rect], quality: int
) -> EncodedImage:
    """The part of a rendered page's frame an object covers, as a JPEG.

    An object that did not lay out (``display: none`` etc.) or lies
    wholly outside the frame -- laid out below the canvas's height clamp,
    say -- is a 1x1 blank."""
    region = RasterImage.blank(1, 1)
    if _laid_out(rect):
        try:
            region = snapshot.image.cropped(*rect.rounded())
        except ValueError:  # no part of the object is in the frame
            pass
    return encode_jpeg(region, quality=quality)


# ---------------------------------------------------------------------------
# partial CSS pre-render (§3.3)


@dataclass
class PartialPrerender:
    """Background image + text placement data for client-side text draw."""

    background: EncodedImage
    text_runs: list[dict]  # {text, x, y, size} for the client script


def partial_css_prerender(
    document: Document,
    element: Element,
    viewport_width: int = 1024,
    quality: int = 55,
) -> PartialPrerender:
    """Pre-render an object's *decoration* but leave text to the client.

    "take a portion of CSS code, replace the text with stretched one-pixel
    placeholders (to allow the layout engine to properly size the object),
    and take a snapshot of the rendered object. ... the rendered object can
    then be used as a background in a static subpage, while the device only
    needs to draw text in the proper location." (§3.3)
    """
    # Lay out the pristine document to capture where text goes.
    snapshot = render_snapshot(document, viewport_width=viewport_width)
    rect = snapshot.geometry_of(element)
    box = snapshot.layout_root.find_box_for(element)
    text_runs = []
    if box is not None and rect is not None:
        for inner in box.iter_boxes():
            for run in inner.text_runs:
                text_runs.append(
                    {
                        "text": run.text,
                        "x": int(run.rect.x - rect.x),
                        "y": int(run.rect.y - rect.y),
                        "size": int(run.font_size),
                    }
                )

    # Blank the text out of a working copy, then snapshot the decoration.
    working = document.clone()
    target = _matching_clone(document, working, element)
    if target is not None:
        _replace_text_with_placeholders(target)
    blanked = render_snapshot(working, viewport_width=viewport_width)
    brect = blanked.geometry_of(target) if target is not None else None
    background = _encode_region(blanked, brect, quality)
    return PartialPrerender(background=background, text_runs=text_runs)


def _matching_clone(
    original_root: Document, cloned_root: Document, element: Element
) -> Optional[Element]:
    """Find the clone of ``element`` by walking identical tree paths."""
    path: list[int] = []
    node = element
    while node.parent is not None:
        path.append(node.index_in_parent)
        node = node.parent  # type: ignore[assignment]
    current = cloned_root
    for index in reversed(path):
        children = current.children
        if index >= len(children):
            return None
        current = children[index]  # type: ignore[assignment]
    return current if isinstance(current, Element) else None


def _replace_text_with_placeholders(element: Element) -> None:
    """Swap text for 1px-tall stretched placeholders, preserving extent."""
    from repro.render import fonts

    for node in list(element.descendants()):
        if isinstance(node, Text) and node.data.strip():
            width = int(fonts.text_width(node.data.strip(), 16.0))
            placeholder = Element(
                "img",
                {
                    "src": "placeholder.gif",
                    "width": str(max(1, width)),
                    "height": "1",
                    "alt": "",
                },
            )
            node.replace_with(placeholder)


PARTIAL_RENDER_CLIENT_JS = """
function msiteDrawText(containerId, runs) {
  var container = document.getElementById(containerId);
  if (!container) { return; }
  for (var i = 0; i < runs.length; i++) {
    var run = runs[i];
    var span = document.createElement('span');
    span.style.position = 'absolute';
    span.style.left = run.x + 'px';
    span.style.top = run.y + 'px';
    span.style.fontSize = run.size + 'px';
    span.appendChild(document.createTextNode(run.text));
    container.appendChild(span);
  }
}
""".strip()


# ---------------------------------------------------------------------------
# the render-once ladder (§3.3 object caching)


def _image_key(key: str) -> str:
    """Where a rendered artifact's image bytes live beside its manifest."""
    return key + ":image"


def load_rendered(cache, key: str, kind: str = "get") -> Optional[dict]:
    """The manifest + image pair under ``key`` as one dict, or ``None``.

    ``kind`` names the cache read: ``"get"`` (hit/miss accounted),
    ``"peek"`` (unaccounted — single-flight double-checks) or
    ``"load_stale"`` (fresh or within the stale grace — degrade rungs).
    """
    lookup = getattr(cache, kind)
    manifest = lookup(key)
    if manifest is None:
        return None
    image = lookup(_image_key(key))
    if image is None:
        return None
    rendered = json.loads(manifest.data.decode("utf-8"))
    rendered["image_bytes"] = image.data
    return rendered


def _store_rendered(cache, key: str, rendered: dict, ttl_s: float) -> None:
    manifest = {
        name: value
        for name, value in rendered.items()
        if name != "image_bytes"
    }
    cache.put(
        key,
        json.dumps(manifest),
        content_type="application/json",
        ttl_s=ttl_s,
    )
    cache.put(
        _image_key(key),
        rendered["image_bytes"],
        content_type="image/jpeg",
        ttl_s=ttl_s,
    )


def render_once(
    services,
    key: str,
    farm_key: RenderKey,
    render: Callable[[], dict],
    ttl_s: float,
    cacheable: bool,
    force_refresh: bool = False,
) -> tuple[dict, bool]:
    """``(rendered, rendered_here)``: from the cache, or rendered once.

    §3.3: "Once a cacheable object is rendered, it is placed into a
    pre-render cache on the server and can be used by the attribute
    system as needed."  Concurrent cold misses collapse into one
    ``render()``; an uncacheable artifact renders per call.
    """
    if not cacheable:
        return render(), True
    cache = services.cache
    rendered_here = False

    def _render_and_store() -> dict:
        nonlocal rendered_here
        if not force_refresh:
            cached = load_rendered(cache, key, "peek")
            if cached is not None:
                return cached
        rendered_here = True
        fresh = render()
        with span("cache"):
            _store_rendered(cache, key, fresh, ttl_s)
        return fresh

    if force_refresh:
        # A forced refresh of a warm artifact rides the middle lane: it
        # must not starve interactive cold misses.
        lane = FARM_REFRESH
    else:
        with span("cache"):
            rendered = load_rendered(cache, key)
        if rendered is not None:
            return rendered, False
        lane = FARM_INTERACTIVE
    farm = services.renderfarm
    if farm is not None:
        # The farm supersedes the cache's single flight: jobs sharing a
        # (site, path, device, spec) key coalesce on one queued render,
        # and a full queue raises into the caller's degradation ladder
        # instead of parking this thread.
        rendered = farm.render(farm_key, _render_and_store, lane=lane)
    elif force_refresh:
        rendered = _render_and_store()
    else:
        rendered = cache.load_or_join(key, _render_and_store)
    return rendered, rendered_here


def _farm_key(run, suffix: str = "") -> RenderKey:
    """A run's coalescing identity for farm submissions."""
    path = run.spec.page_path + (f"#{suffix}" if suffix else "")
    return RenderKey(
        site=run.spec.site,
        path=path,
        device_class=run.device_class,
        spec_fp=run.plan.fingerprint,
    )


# ---------------------------------------------------------------------------
# the page snapshot (the heavyweight path + cache)


def snapshot_cache_key(spec) -> str:
    return (
        f"snapshot:{spec.site}:{spec.page_path}:w{spec.viewport_width}"
        f":s{spec.snapshot_scale}:q{spec.snapshot_quality}"
    )


def obtain_snapshot(run, ctx, result, force_refresh: bool) -> Optional[dict]:
    """Cached/fresh snapshot, degrading down the render ladder.

    Render fails (crash, hang, open breaker, exhausted pool) ⇒ serve
    the stale snapshot if one survives in the cache's grace store ⇒
    otherwise return ``None``, and the run builds the HTML-only menu
    entry page.  ``run`` is the :class:`AdaptationPipeline` in flight.
    """
    services = run.services
    key = snapshot_cache_key(run.spec)
    try:
        rendered, rendered_here = render_once(
            services,
            key,
            _farm_key(run),
            lambda: _render_page_snapshot(run, ctx, result),
            ttl_s=ctx.cache_ttl_s,
            cacheable=ctx.cache_snapshot,
            force_refresh=force_refresh,
        )
    except (
        RenderError,
        FetchError,
        CircuitOpenError,
        PoolTimeoutError,
        RenderFarmError,
    ) as exc:
        with span("degrade"):
            rendered = (
                load_rendered(services.cache, key, "load_stale")
                if ctx.cache_snapshot
                else None
            )
            rung = STALE if rendered is not None else HTML_ONLY
            result.degraded = result.degraded or rung
            services.resilience.record_degraded(rung)
            if rendered is None:
                ctx.note(
                    f"degraded: html-only entry after render failure ({exc})"
                )
                return None
            ctx.note(
                f"degraded: stale snapshot served after render "
                f"failure ({exc})"
            )
            rendered_here = False
    if not rendered_here:
        result.snapshot_from_cache = True
        result.snapshot_bytes = len(rendered["image_bytes"])
    return rendered


def _render_page_snapshot(run, ctx, result) -> dict:
    """The full browser path: launch, load subresources, paint."""
    spec, services = run.spec, run.services
    # The breaker check happens before a browser is even constructed:
    # an open renderer breaker must never consume a pool slot.
    with services.resilience.render_breaker.guard(
        failure_on=(RenderError, FetchError, PoolTimeoutError)
    ):
        browser = services.make_browser(run.session.jar, spec.viewport_width)
        with span("render"), browser:
            external_css, _ = browser.fetch_stylesheets(
                ctx.document, run.origin_url
            )
            snapshot = render_snapshot(
                ctx.document,
                viewport_width=spec.viewport_width,
                external_css=external_css,
            )
    result.used_browser = True
    result.browser_core_seconds += services.costs.browser_request_s

    scale = float(ctx.prerender_params.get("scale", spec.snapshot_scale))
    quality = int(ctx.prerender_params.get("quality", spec.snapshot_quality))
    artifact = produce_snapshot(snapshot, scale=scale, quality=quality)
    regions = {}
    for definition in ctx.plan.top_level():
        rect = None
        for element in definition.elements:
            geometry = snapshot.geometry_of(element)
            if geometry is not None:
                rect = geometry if rect is None else _union(rect, geometry)
        if rect is not None:
            regions[definition.subpage_id] = [
                rect.x, rect.y, rect.width, rect.height,
            ]
    result.snapshot_bytes = artifact.encoded.size_bytes
    return {
        "scale": scale,
        "width": artifact.scaled_width,
        "height": artifact.scaled_height,
        "page_height": snapshot.page_height,
        "regions": regions,
        "image_bytes": artifact.encoded.data,
    }


def _union(a: Rect, b: Rect) -> Rect:
    x1 = min(a.x, b.x)
    y1 = min(a.y, b.y)
    x2 = max(a.right, b.right)
    y2 = max(a.bottom, b.bottom)
    return Rect(x1, y1, x2 - x1, y2 - y1)


# ---------------------------------------------------------------------------
# the pre-rendered subpage object


def prerender_subpage(
    run, ctx, result, definition: SubpageDefinition, taken: list
) -> dict:
    """Subpage + prerender: the subpage's content as one image.

    Returns ``{"image_bytes", "width", "height", "search_block"}``; a
    ``cacheable`` definition shares the render across sessions.
    """
    spec, services = run.spec, run.services
    quality = int(ctx.fidelity.get("quality", 55))

    def _render() -> dict:
        with span("render"):
            inject_render_fault(services.faults)
            document = build_subpage_document(
                definition, ctx.plan, ctx.page_url_for, taken
            )
            container = document.get_element_by_id(
                f"msite-subpage-{definition.subpage_id}"
            )
            snapshot = render_snapshot(
                document, viewport_width=spec.viewport_width
            )
            rect = snapshot.geometry_of(container)
            encoded = _encode_region(snapshot, rect, quality)
            result.used_browser = True
            result.browser_core_seconds += services.costs.browser_request_s
            search_block = ""
            box = (
                snapshot.layout_root.find_box_for(container)
                if definition.searchable and _laid_out(rect)
                else None
            )
            if box is not None:
                # §3.3: "the search attribute effectively allows
                # pre-rendered images to be searched" — index words at
                # their rendered locations, translated into the cropped
                # image's coordinates.
                index = shift_index(
                    build_word_index(box), dx=-int(rect.x), dy=-int(rect.y)
                )
                search_block = (
                    f'<script type="text/javascript">'
                    f"{search_script(index)}</script>"
                    f"{search_trigger_html(definition.search_trigger_label)}"
                )
            return {
                "image_bytes": encoded.data,
                "width": encoded.width,
                "height": encoded.height,
                "search_block": search_block,
            }

    rendered, _ = render_once(
        services,
        f"objrender:{spec.site}:{spec.page_path}"
        f":{definition.subpage_id}:q{quality}:w{spec.viewport_width}",
        _farm_key(run, suffix=definition.subpage_id),
        _render,
        ttl_s=definition.cache_ttl_s,
        cacheable=definition.cacheable,
    )
    return rendered
