"""A parsed tree dies by refcount.

The child list is the tree's only strong link and ``Node.parent`` is a
weak one, so a tree holds no reference cycle: dropping its root frees
every node at that moment, and the cycle collector finds nothing.  The
contract that comes with it: a node kept past its tree reads
``parent is None`` and is its own root.  The guard at the end keeps
every write of the link inside the tree's own mutators.
"""

import ast
import gc
import pathlib
import weakref

import pytest

from repro.core.pipeline import ProxyServices
from repro.core.proxy import MSiteProxy
from repro.core.spec import AdaptationSpec, ObjectSelector
from repro.dom.element import Element
from repro.html.parser import parse_fragment, parse_html
from repro.net.client import HttpClient
from repro.net.cookies import CookieJar

from tests.conftest import FORUM_HOST

REPO = pathlib.Path(__file__).resolve().parents[2]
TREE_MUTATORS = {
    pathlib.Path("src/repro/dom/node.py"),
    pathlib.Path("src/repro/dom/element.py"),
    pathlib.Path("src/repro/dom/document.py"),
}
#: ``Span.parent`` is a span index, not a DOM link.
NOT_DOM = {(pathlib.Path("src/repro/observability/tracing.py"), "Span")}
PROXY_HOST = "m.lifetime.example"


@pytest.fixture()
def no_automatic_gc():
    """Only the test's own ``gc.collect()`` calls may free a cycle, so
    what they return is all the cyclic garbage the test made."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def forum_dom_spec():
    """The forum's DOM-phase adaptation (no browser render): parse,
    select two subpages, serialize, store."""
    spec = AdaptationSpec(site="SawmillCreek", origin_host=FORUM_HOST)
    spec.add("cacheable", ttl_s=3600)
    spec.add(
        "subpage", ObjectSelector.css("#loginform"),
        subpage_id="login", title="Log in",
    )
    spec.add(
        "subpage", ObjectSelector.css("#forumbits"),
        subpage_id="forums", title="Forums",
    )
    return spec


def test_a_dropped_page_leaves_no_cyclic_garbage(
    entry_page_html, no_automatic_gc
):
    document = parse_html(entry_page_html)
    assert len(document.all_elements()) > 1000
    del document
    assert gc.collect() == 0


def test_a_full_adaptation_leaves_no_cyclic_garbage(forum_app):
    proxy = MSiteProxy(
        forum_dom_spec(), ProxyServices(origins={FORUM_HOST: forum_app})
    )
    phone = HttpClient({PROXY_HOST: proxy}, jar=CookieJar())
    url = f"http://{PROXY_HOST}/proxy.php?refresh=1"
    for _ in range(2):  # warm-up: caches, tables and memos fill once
        assert phone.get(url).status == 200
    gc.collect()
    gc.disable()
    try:
        response = phone.get(url)
        assert response.status == 200 and response.body
        del response
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_node_kept_past_its_document_is_its_own_root(no_automatic_gc):
    document = parse_html("<div id=outer><p id=inner>kept</p></div>")
    kept = document.get_element_by_id("inner")
    assert kept.parent.id == "outer"
    del document
    assert kept.parent is None
    assert kept.root() is kept
    assert kept.owner_document is None
    assert list(kept.ancestors()) == []
    assert kept.text_content == "kept"  # its own subtree is intact
    assert gc.collect() == 0


def test_fragment_nodes_belong_to_the_tree_they_join():
    document = parse_html("<body><div id=host></div></body>")
    host = document.get_element_by_id("host")
    nodes = parse_fragment("<b>bold</b> text <i>it</i>")
    assert [node.parent for node in nodes] == [None, None, None]
    for node in nodes:
        host.append(node)
    assert all(node.owner_document is document for node in nodes)
    assert all(node.parent is host for node in nodes)
    assert nodes[0].root() is document


def test_a_deep_chain_is_freed_by_refcount(no_automatic_gc):
    depth = 100_000
    document = parse_html("<div>" * depth)
    node = document.body
    for _ in range(depth):
        node = node.children[0]
    assert isinstance(node, Element) and node.children == []
    innermost = weakref.ref(node)
    outermost = weakref.ref(document.body.children[0])
    del node, document
    assert innermost() is None and outermost() is None
    assert gc.collect() == 0


def _parent_writes(tree):
    """``(class name or None, line)`` of every assignment to a
    ``.parent`` attribute, or ``setattr(..., "parent", ...)``."""

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute) and target.attr == "parent":
                yield owner, node.lineno
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value == "parent"
        ):
            yield owner, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, None)


def test_only_tree_mutators_write_parent():
    sightings = []
    for path in sorted((REPO / "src/repro").rglob("*.py")):
        relative = path.relative_to(REPO)
        if relative in TREE_MUTATORS:
            continue
        for owner, line in _parent_writes(ast.parse(path.read_text())):
            if (relative, owner) not in NOT_DOM:
                sightings.append(f"{relative}:{line}")
    assert sightings == []
