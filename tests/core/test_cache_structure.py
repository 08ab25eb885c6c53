"""The cache stays one composed class.

A structural guard, read off the AST: the cache is extended by giving it
another :class:`Tier <repro.core.cache.Tier>`, never by subclassing it,
and the names the composed class replaced do not come back — not as
definitions, not as imports, not as aliases.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[2]
ROOTS = ("src", "examples", "benchmarks")
RETIRED = {
    "SharedPrerenderCache",
    "TieredPrerenderCache",
    "HotMemoCache",
    "TieredSharedCache",
    "SharedCacheBackend",
    "get_or_load",
    "serve_stale_while_revalidate",
}


def _trees():
    for root in ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            yield path.relative_to(REPO), ast.parse(path.read_text())


def _base_name(base):
    if isinstance(base, ast.Subscript):  # Generic[...] style bases
        base = base.value
    return base.attr if isinstance(base, ast.Attribute) else getattr(
        base, "id", None
    )


def test_nothing_subclasses_the_cache():
    subclasses = [
        f"{path}:{node.lineno} {node.name}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and "PrerenderCache" in map(_base_name, node.bases)
    ]
    assert subclasses == []


def test_retired_cache_names_are_gone():
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
    assert not (REPO / "src/repro/cluster/tiers.py").exists()
