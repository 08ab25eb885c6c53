"""The observability plane stays one log and one counter view.

A structural guard, read off the AST (in the style of
``tests/core/test_cache_structure.py``): the sequenced log and the
named-fields-over-counters view each exist exactly once, the log's two
roles are two literals, the four stats structs are tables over the view
and nothing more, and the names the shared classes replaced do not come
back — not as definitions, not as imports, not as aliases.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[2]
ROOTS = ("src", "examples", "benchmarks")
RETIRED = {"InvalidationLog", "ChangeEvent", "OpsEventLog", "OpsEvent"}
RETIRED_MODULE = "repro.regions.cdclog"
STRUCTS = {"CacheStats", "PoolStats", "RuntimeStats", "ProxyCounters"}
VIEW_METHODS = {"record", "add", "bind", "__getattr__", "__repr__"}


def _trees(roots=ROOTS):
    for root in roots:
        for path in sorted((REPO / root).rglob("*.py")):
            yield path.relative_to(REPO), ast.parse(path.read_text())


def _classes(roots=ROOTS):
    for path, tree in _trees(roots):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield path, node


def _methods(node: ast.ClassDef) -> set[str]:
    return {
        item.name for item in node.body if isinstance(item, ast.FunctionDef)
    }


def _fields(node: ast.ClassDef) -> list[str]:
    return [
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign)
    ]


def _where(path, node) -> str:
    return f"{path}:{node.lineno} {node.name}"


def test_one_class_reads_events_after_an_offset():
    logs = [
        _where(path, node)
        for path, node in _classes()
        if "events_after" in _methods(node)
    ]
    assert len(logs) == 1 and logs[0].endswith(" SequencedLog"), logs
    assert logs[0].startswith("src/repro/ops/events.py:")


def test_one_event_envelope():
    envelopes = [
        _where(path, node)
        for path, node in _classes()
        if _fields(node) == ["sequence", "type", "created_at", "payload"]
    ]
    assert len(envelopes) == 1 and envelopes[0].endswith(" Event"), envelopes


def test_one_view_over_registry_counters():
    views = [
        _where(path, node)
        for path, node in _classes()
        if {"bind", "__getattr__"} <= _methods(node)
    ]
    assert len(views) == 1 and views[0].endswith(" CounterView"), views
    assert views[0].startswith("src/repro/observability/metrics.py:")


def test_the_four_structs_are_tables_over_the_view():
    seen = {}
    for path, node in _classes():
        if node.name in STRUCTS:
            seen[node.name] = _where(path, node)
            assert [getattr(b, "id", None) for b in node.bases] == [
                "CounterView"
            ], seen[node.name]
            assert not (_methods(node) & VIEW_METHODS), seen[node.name]
            assert any(
                isinstance(item, ast.Assign)
                and [getattr(t, "id", None) for t in item.targets]
                == ["FIELDS"]
                for item in node.body
            ), seen[node.name]
    assert set(seen) == STRUCTS


def test_the_log_has_two_roles_and_both_are_literals():
    names = []
    for path, tree in _trees(("src",)):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "SequencedLog"
                or getattr(node.func, "attr", None) == "SequencedLog"
            ):
                given = node.args[:1] + [
                    kw.value for kw in node.keywords if kw.arg == "name"
                ]
                assert len(given) == 1 and isinstance(
                    given[0], ast.Constant
                ), f"{path}:{node.lineno} role is not a literal"
                names.append(given[0].value)
    assert set(names) == {"ops", "cdclog"}
    assert names.count("cdclog") == 1


def test_retired_names_are_gone():
    sightings = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                names = [module] + [
                    part
                    for alias in node.names
                    for part in (
                        alias.name, alias.asname, f"{module}.{alias.name}"
                    )
                ]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Constant):  # __all__ re-exports
                names = [node.value]
            else:
                continue
            sightings += [
                f"{path}:{node.lineno} {name}"
                for name in names
                if name in RETIRED or name == RETIRED_MODULE
            ]
    assert sightings == []
    assert not (REPO / "src/repro/regions/cdclog.py").exists()


def test_the_log_module_imports_neither_of_its_consumers():
    tree = ast.parse((REPO / "src/repro/ops/events.py").read_text())
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert not [
        module
        for module in imported
        if module.startswith(("repro.regions", "repro.cluster"))
    ]
