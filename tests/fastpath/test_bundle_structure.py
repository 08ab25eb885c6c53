"""A stored bundle has one form, and reading it costs what it should.

Structural guards, read off the AST: the JSON + base64 codec the
container replaced does not come back beside it — not as an import, a
method or a cached field — the cache holds each entry in one form and
knows no codec (a decode is handed back by the fast path alone), and a
stored bundle is decoded in one place, the per-entry decode every load
goes through.
Then the counts that make the container worth having, on the forum
paper-spec bundle (the one ``warm-arrivals`` replays): one small
``json.loads`` per decode, and a container barely larger than its
payloads.  Counts, not timings, so they hold on any machine.
"""

import ast
import json
import pathlib

from repro.core import fastpath
from repro.core.cache import CacheEntry
from repro.core.pipeline import AdaptationPipeline, ProxyServices
from repro.core.sessions import SessionManager
from repro.core.spec import AdaptationSpec, ObjectSelector
from tests.conftest import FORUM_HOST

CORE = pathlib.Path(__file__).resolve().parents[2] / "src/repro/core"
HEADER_BUDGET = 4096


def _tree(name):
    return ast.parse((CORE / name).read_text())


def _class(tree, name):
    (node,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == name
    ]
    return node


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def _members(class_node):
    """Methods and annotated / assigned fields a class body defines."""
    for node in class_node.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.AnnAssign):
            yield node.target.id
        elif isinstance(node, ast.Assign):
            yield from (getattr(t, "id", None) for t in node.targets)


def test_the_old_codec_is_gone_not_aliased():
    tree = _tree("fastpath.py")
    modules = set(_imported_modules(tree))
    assert not {"base64", "binascii"} & modules
    bundle = set(_members(_class(tree, "FastpathBundle")))
    assert {"to_bytes", "from_bytes"} <= bundle
    assert not {"to_json", "from_json"} & bundle
    assert set(_members(_class(tree, "BundleFile"))) == {
        "relpath", "content_type", "data",
    }
    names = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    } | {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    assert not {"b64encode", "b64decode", "data_b64", "_b64"} & names


def test_the_cache_holds_one_form_and_knows_no_codec():
    """A ``CacheEntry`` has one slot for its value, bytes or a decode, so
    no entry holds both; ``cache.py`` encodes in one place (reading
    ``data``) and never decodes, imports or names the fast path — the
    decode is handed back by the reader (``keep_decoded``)."""
    tree = _tree("cache.py")
    assert CacheEntry.__slots__ == (
        "key", "content_type", "stored_at", "ttl_s", "hits", "size", "_held",
    )
    assert not any("fastpath" in module for module in _imported_modules(tree))
    called = [
        node.func.attr for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert called.count("to_bytes") == 1
    assert not {"from_bytes", "keep_decoded"} & set(called)


def _decodes(tree):
    """The ``FastpathBundle.from_bytes(...)`` calls in ``tree``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "from_bytes"
        and ast.unparse(node.func.value).endswith("FastpathBundle")
    ]


def test_a_stored_bundle_is_decoded_in_one_place():
    """Every load goes through the per-entry decode: one
    ``FastpathBundle.from_bytes`` call under ``src/``, in ``_decoded``."""
    sites = [
        path.relative_to(CORE.parent).as_posix()
        for path in sorted(CORE.parent.rglob("*.py"))
        for _ in _decodes(ast.parse(path.read_text()))
    ]
    assert sites == ["core/fastpath.py"]
    (decoded,) = [
        node for node in ast.walk(_tree("fastpath.py"))
        if isinstance(node, ast.FunctionDef) and node.name == "_decoded"
    ]
    assert len(_decodes(decoded)) == 1


def _forum_paper_spec():
    """The paper's forum mobilization, as ``warm-arrivals`` deploys it."""
    spec = AdaptationSpec(site="SawmillCreek", origin_host=FORUM_HOST)
    spec.add("prerender")
    spec.add("cacheable", ttl_s=3600)
    for selector, subpage_id, title in (
        ("#loginform", "login", "Log in"),
        ("#forumbits", "forums", "Forums"),
        ("#wol", "online", "Who's online"),
    ):
        spec.add(
            "subpage", ObjectSelector.css(selector),
            subpage_id=subpage_id, title=title,
        )
    spec.add(
        "ajax_subpage", ObjectSelector.css("#navlinks"),
        subpage_id="nav", title="Navigation",
    )
    return spec


def test_decoding_the_forum_bundle_parses_one_small_header(
    origins, clock, monkeypatch
):
    services = ProxyServices(origins=origins, clock=clock)
    session = SessionManager(clock=clock).create()
    spec = _forum_paper_spec()
    pipeline = AdaptationPipeline(spec, services, session)
    pipeline.run(device_class="phone")
    pointer = services.cache.peek(
        fastpath.latest_key(
            spec.site, spec.page_path, "phone", pipeline.plan.fingerprint
        )
    )
    container = services.cache.peek(pointer.data.decode("utf-8")).data

    parsed = []
    real_loads = json.loads

    def counting_loads(text, *args, **kwargs):
        parsed.append(len(text))
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    bundle = fastpath.FastpathBundle.from_bytes(container)
    monkeypatch.undo()

    assert len(parsed) == 1 and parsed[0] < HEADER_BUDGET
    assert len(bundle.files) >= 6 and bundle.snapshot_bytes > 40_000
    payload = len(bundle.entry_html.encode("utf-8")) + sum(
        len(item.data) for item in bundle.files
    )
    assert payload < len(container) <= payload + HEADER_BUDGET
    assert bundle.to_bytes() == container
