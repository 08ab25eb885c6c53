"""One copy of each thing in the delta engine.

A structural guard, read off the source (nothing is imported): the
delta engine keeps one filter mode (piecewise) walked by one loop, one
record per key, one application (parse the changed segment, run its
steps on it, swap its part in, lay the parts out in scan order) and one
footprint function, so neither a global-filter baseline, an in-place
diff rung, a second filter loop, an insert-anchor search nor a second,
widened footprint grows back beside them.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[2]
DELTA = REPO / "src/repro/core/delta.py"

MAX_LINES = 1100
MAX_CODE_LINES = 710
MAX_ENGINE_METHODS = 18
GONE = (
    "filtered_source", "SubtreeSummary", "step_touches", "_patchable_pair",
    "_piecewise_setup", "_refilter", "_anchor_for",
)


def _tree():
    return ast.parse(DELTA.read_text())


def code_lines(source: str) -> int:
    """Lines that are not blank, not comments and not docstrings."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if not isinstance(body, list) or not body:
            continue
        first = body[0]
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip()
        and not line.strip().startswith("#")
        and number not in docstrings
    )


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = (
        '"""Module.\n\nMore."""\n\n# note\nX = 1\n\n\n'
        'def f():\n    """Doc."""\n    return X  # trailing\n'
    )
    assert code_lines(source) == 3


def test_the_delta_module_stays_small():
    source = DELTA.read_text()
    assert len(source.splitlines()) <= MAX_LINES
    assert code_lines(source) <= MAX_CODE_LINES


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
