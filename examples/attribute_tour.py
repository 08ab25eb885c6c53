"""A tour of the full attribute menu (§3.3), one attribute at a time.

Applies every attribute family to a small demonstration page and shows
what each one does to the delivered markup — the closest thing to the
paper's attribute catalog in executable form.

Run:  python examples/attribute_tour.py
"""

from repro.core.attributes import ATTRIBUTE_REGISTRY, attribute_menu
from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.net.messages import Request, Response
from repro.net.server import Application

DEMO_PAGE = """<!DOCTYPE html>
<html><head><title>Demo Shop</title>
<script src="/heavy-library.js"></script>
<style>.banner { width: 728px } .fine-print { font-size: 9px }</style>
</head><body>
<div id="banner"><img src="/ads/wide-banner.gif" width="728" height="90"></div>
<div id="menu"><a href="/a">Tools</a> <a href="/b">Wood</a>
<a href="/c">Finishes</a> <a href="/d">Classes</a></div>
<div id="catalog">
  <p class="item">Dovetail saw — $65
    <a href="shop.php?do=detail&id=11">details</a></p>
  <p class="item">Block plane — $120
    <a href="shop.php?do=detail&id=12">details</a></p>
</div>
<embed src="/promo/showreel.swf" width="320" height="240"></embed>
<div id="legal" class="fine-print">Terms and conditions apply.</div>
<a id="logout" href="/logout" onclick="confirmLogout()">Sign out</a>
</body></html>"""


class DemoShop(Application):
    def handle(self, request: Request) -> Response:
        if request.url.params.get("do") == "detail":
            item = request.url.params.get("id", "?")
            return Response.html(f"<div class='detail'>Item {item}</div>")
        return Response.html(DEMO_PAGE)


def run(spec: AdaptationSpec) -> str:
    services = ProxyServices(origins={"shop.example": DemoShop()})
    session = SessionManager().create()
    return AdaptationPipeline(spec, services, session).run().entry_html


def fresh_spec() -> AdaptationSpec:
    return AdaptationSpec(site="DemoShop", origin_host="shop.example",
                          page_path="/")


def show(label: str, before: str, after: str) -> None:
    print(f"\n=== {label} ===")
    for line in after.splitlines():
        if line.strip() and line not in before:
            print(f"  + {line.strip()[:74]}")


def main() -> None:
    print(f"attribute menu ({len(ATTRIBUTE_REGISTRY)} entries):")
    for name, description in attribute_menu():
        print(f"  {name:<22s} {description[:52]}")

    baseline = run(fresh_spec())

    spec = fresh_spec()
    spec.add("title_rewrite", title="Demo Shop (mobile)")
    spec.add("doctype_rewrite", doctype="html")
    show("title_rewrite + doctype_rewrite", baseline, run(spec))

    spec = fresh_spec()
    spec.add("strip_scripts")
    spec.add("strip_css")
    out = run(spec)
    print("\n=== strip_scripts + strip_css ===")
    print(f"  scripts remaining: {out.count('<script')}, "
          f"style blocks remaining: {out.count('<style')}")

    spec = fresh_spec()
    spec.add("hide_object", ObjectSelector.css("#banner"))
    show("hide_object (the 728px banner, §4.2)", baseline, run(spec))

    spec = fresh_spec()
    spec.add(
        "replace_object", ObjectSelector.css("#banner"),
        html='<div id="banner"><img src="/ads/mobile.gif" width="300"></div>',
    )
    show("replace_object (mobile-sized ad)", baseline, run(spec))

    spec = fresh_spec()
    spec.add("vertical_links", ObjectSelector.css("#menu"), columns=2)
    show("vertical_links (2 columns)", baseline, run(spec))

    spec = fresh_spec()
    spec.add(
        "insert_object",
        html='<div id="crumb">Home &gt; Catalog</div>',
        position="prepend",
    )
    show("insert_object (breadcrumb)", baseline, run(spec))

    spec = fresh_spec()
    spec.add("insert_js", code="$('.fine-print').remove();", where="server")
    out = run(spec)
    print("\n=== insert_js (server-side jQuery) ===")
    marker = 'class="fine-print"'
    print(f"  fine print removed: {marker not in out}")

    spec = fresh_spec()
    spec.add("ajax_rewrite")
    out = run(spec)
    print("\n=== ajax_rewrite (§4.4) ===")
    import re

    print("  " + "; ".join(
        re.findall(r"proxy\.php\?action=\d+&(?:amp;)?p=\d+", out)
    ))

    spec = fresh_spec()
    spec.add("media_thumbnail")
    out = run(spec)
    print("\n=== media_thumbnail ===")
    print(f"  flash embeds remaining: {out.count('<embed')}, "
          f"thumbnails: {out.count('msite-media-thumb')}")

    spec = fresh_spec()
    spec.add("logout_button", ObjectSelector.css("#logout"))
    show("logout_button", baseline, run(spec))

    spec = fresh_spec()
    spec.add("subpage", ObjectSelector.css("#catalog"),
             subpage_id="catalog", title="Catalog")
    spec.add("subpage", ObjectSelector.css("#legal"),
             subpage_id="legal", title="Legal", engine="text")
    out = run(spec)
    print("\n=== subpage (html + text engines) ===")
    print(f"  menu entries: {out.count('proxy.php?page=')}")

    spec = fresh_spec()
    spec.add("rewrite_images", quality=30)
    out = run(spec)
    print("\n=== rewrite_images (low-fidelity cache) ===")
    print("  " + next(
        line.strip()[:74] for line in out.splitlines() if "proxy.php?img=" in line
    ))


if __name__ == "__main__":
    main()
