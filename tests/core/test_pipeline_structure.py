"""The pipeline is what runs on a miss — and stays that.

A structural guard, read off the AST: the gate that decides *whether*
to adapt lives in ``core/fastpath.py`` and does not grow back into
``AdaptationPipeline``; the entry page, the snapshot shell and the
manifest + image cache pair are each built in one function; and the
names of the second copies this replaced do not come back, nor those of
the session file store a page's own files replaced.
"""

import ast
import dataclasses
import inspect
import pathlib

from repro.cluster.deployment import ClusterDeployment
from repro.core.pipeline import ProxyServices

REPO = pathlib.Path(__file__).resolve().parents[2]
ROOTS = ("src", "examples", "benchmarks")
PIPELINE = REPO / "src/repro/core/pipeline.py"

GATE_WORDS = ("fastpath", "validator", "revalidat", "bundle", "replay")
RETIRED = {
    "_rebuild_entry",
    "_menu_html",
    "_ajax_injection_html",
    "_rebundle",
    "_cached_objrender",
    "_stale_snapshot_bundle",
}
#: The session file store and the path plumbing around it: a session's
#: files are its page's (``AdaptedPage.files``).  ``relpath`` is also
#: ``BundleFile``'s field, so as a name only its calls count.
STORE_NAMES = {
    "VirtualFileSystem",
    "StoredFile",
    "write_files",
    "delete_tree",
    "_page_dir",
    "_image_dir",
    "_capture",
}
STORE_FUNCTIONS = {"relpath"}


def _trees(roots=ROOTS):
    for root in roots:
        for path in sorted((REPO / root).rglob("*.py")):
            yield path.relative_to(REPO), ast.parse(path.read_text())


def _pipeline_class() -> ast.ClassDef:
    tree = ast.parse(PIPELINE.read_text())
    (found,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and node.name == "AdaptationPipeline"
    ]
    return found


def _functions_where(predicate, roots=("src",)) -> list[str]:
    """``path:function`` for each innermost function (or module body)
    holding a node the predicate accepts."""
    found = set()

    def visit(node, owner, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if predicate(node):
            found.add(f"{path}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner, path)

    for path, tree in _trees(roots):
        visit(tree, "<module>", path)
    return sorted(found)


def _spells(text: str):
    return lambda node: (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and text in node.value
    )


def _reads(name: str):
    return lambda node: (
        isinstance(node, ast.Name)
        and node.id == name
        and isinstance(node.ctx, ast.Load)
    ) or (isinstance(node, ast.Attribute) and node.attr == name)


def test_the_pipeline_holds_no_gate():
    methods = [
        node.name
        for node in _pipeline_class().body
        if isinstance(node, ast.FunctionDef)
    ]
    assert [
        name
        for name in methods
        if any(word in name.lower() for word in GATE_WORDS)
    ] == []
    assert len(methods) <= 24, methods
    validator_state = [
        target.attr
        for node in ast.walk(_pipeline_class())
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in ast.walk(node)
        if isinstance(target, ast.Attribute)
        and isinstance(target.ctx, ast.Store)
        and target.attr.startswith("_validator")
    ]
    assert validator_state == []


def test_the_pipeline_module_stays_under_a_thousand_lines():
    assert len(PIPELINE.read_text().splitlines()) < 1000


def test_the_entry_page_is_built_in_one_place():
    assert _functions_where(_spells('<ul id="msite-menu">')) == [
        "src/repro/core/subpages.py:menu_html"
    ]
    assert _functions_where(_reads("AJAX_LOADER_JS")) == [
        "src/repro/core/subpages.py:ajax_injection_html"
    ]
    # The snapshot shell is the viewport <meta> around the image map
    # (core/ajax.py's two-pane page is a different document).
    assert _functions_where(_reads("build_image_map")) == [
        "src/repro/core/subpages.py:snapshot_entry_html"
    ]


def test_the_manifest_image_pair_is_keyed_in_one_place():
    assert _functions_where(_spells(":image")) == [
        "src/repro/core/prerender.py:_image_key"
    ]


def _imported_modules(path, tree):
    """Dotted names of every module ``tree`` imports, relative ones
    resolved against the package of ``path`` (``src/repro/...``)."""
    package = list(path.with_suffix("").parts[1:-1])
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level]
            if not node.level:
                base = []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_nothing_in_src_imports_the_stream_serializer():
    # One emission path: every adaptation parses.  The streaming
    # serializer is kept only as the benchmark's stage, never as a fork.
    importers = [
        f"{path} {module}"
        for path, tree in _trees(("src",))
        for module in _imported_modules(path, tree)
        if module == "repro.html.stream"
        or module.startswith("repro.html.stream.")
    ]
    assert importers == []


def test_the_second_copies_stay_deleted():
    sightings = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [
                    part
                    for alias in node.names
                    for part in (alias.name, alias.asname or "")
                ]
            elif isinstance(node, ast.Assign):
                names = [getattr(t, "id", None) for t in node.targets]
            else:
                continue
            sightings += [
                f"{path}:{node.lineno} {name}"
                for name in names
                if name in RETIRED
            ]
    assert sightings == []


def _store_sightings(node) -> list[str]:
    """The store names ``node`` defines, imports, assigns or reads."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return [
            name for name in [node.name]
            if name in STORE_NAMES | STORE_FUNCTIONS
        ]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [
            part
            for alias in node.names
            for part in (alias.name.rsplit(".", 1)[-1], alias.asname or "")
            if part in STORE_NAMES | STORE_FUNCTIONS | {"storage"}
        ]
    if isinstance(node, ast.Name) and node.id in STORE_NAMES:
        return [node.id]
    if isinstance(node, ast.Attribute) and node.attr in STORE_NAMES:
        return [node.attr]
    if isinstance(node, ast.Call):
        called = node.func
        name = getattr(called, "id", None) or getattr(called, "attr", None)
        return [name] if name in STORE_FUNCTIONS else []
    return []


def test_the_session_file_store_stays_deleted():
    assert not (REPO / "src/repro/core/storage.py").exists()
    sightings = [
        f"{path}:{node.lineno} {name}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        for name in _store_sightings(node)
    ]
    assert sightings == []
    # Nothing configures a store: the one ``storage`` left is a
    # read-only ``None`` for an old benchmark call.
    assert "storage" not in {
        field.name for field in dataclasses.fields(ProxyServices)
    }
    assert "storage" not in inspect.signature(ClusterDeployment).parameters
    assert ProxyServices(origins={}).storage is None
