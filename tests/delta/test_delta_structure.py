"""One way to patch a segment.

A structural guard, read off the source (nothing is imported): the
delta engine keeps one filter mode (piecewise), one application (parse
the changed segment, run its steps on it, swap it in) and one footprint
function, so neither a global-filter baseline, an in-place diff rung
nor a second, widened footprint grows back beside them.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[2]
DELTA = REPO / "src/repro/core/delta.py"

MAX_LINES = 1200
MAX_ENGINE_METHODS = 22
GONE = ("filtered_source", "SubtreeSummary", "step_touches", "_patchable_pair")


def _tree():
    return ast.parse(DELTA.read_text())


def test_the_delta_module_stays_small():
    assert len(DELTA.read_text().splitlines()) <= MAX_LINES


def test_the_engine_has_few_methods():
    (engine,) = [
        node
        for node in _tree().body
        if isinstance(node, ast.ClassDef) and node.name == "DeltaEngine"
    ]
    methods = [
        node.name
        for node in engine.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    assert len(methods) <= MAX_ENGINE_METHODS, methods


def test_segments_are_swapped_not_diffed_in_place():
    sightings = []
    for node in ast.walk(_tree()):
        if isinstance(node, ast.Attribute) and node.attr in (
            "apply", "changeset"
        ):
            if isinstance(node.value, ast.Name) and node.value.id == "diff":
                sightings.append(f"{node.lineno} diff.{node.attr}")
        elif (
            isinstance(node, ast.ImportFrom)
            and node.module == "repro.dom.diff"
        ):
            sightings += [
                f"{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name in ("apply", "changeset")
            ]
    assert sightings == []


def test_the_second_modes_are_gone_from_the_source():
    sightings = [
        f"{path.relative_to(REPO)}:{number} {name}"
        for path in sorted((REPO / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        for name in GONE
        if name in line
    ]
    assert sightings == []
