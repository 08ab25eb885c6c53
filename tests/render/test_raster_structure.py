"""There stays one fill path.

A structural guard, read off the AST (nothing is imported): under
``src/repro/render`` only ``image._fill`` writes a colour over a region.
Anywhere else, an index with a slice in it may be assigned an array
that was computed (a call, an arithmetic expression, a slice of another
array) or a scalar constant, but not a bare name, attribute, tuple or
list -- the shapes a colour takes -- and not an array lifted by a
``None`` axis, which is how a column of colours is broadcast across
rows.  Either would be a broadcast at ~4.6 ns a pixel where ``_fill``
copies rows.  The per-glyph and per-line painters do not come back.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[2]
RENDER = REPO / "src/repro/render"
HELPER = ("src/repro/render/image.py", "_fill")
GONE = {"_draw_glyph", "_hline", "_vline"}


def _trees():
    for path in sorted(RENDER.rglob("*.py")):
        yield str(path.relative_to(REPO)), ast.parse(path.read_text())


def _parts(index):
    return index.elts if isinstance(index, ast.Tuple) else [index]


def _is_region(index):
    return any(
        isinstance(part, ast.Slice)
        or (isinstance(part, ast.Constant) and part.value is Ellipsis)
        for part in _parts(index)
    )


def _is_broadcast_colour(value):
    if isinstance(value, (ast.Name, ast.Attribute, ast.Tuple, ast.List)):
        return True
    return isinstance(value, ast.Subscript) and any(
        isinstance(part, ast.Constant) and part.value is None
        for part in _parts(value.slice)
    )


def _definitions(name):
    return [
        (path, node)
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]


def test_only_the_fill_helper_broadcasts_a_colour_over_a_region():
    helper_lines = {
        (path, line)
        for path, node in _definitions(HELPER[1])
        for line in range(node.lineno, node.end_lineno + 1)
    }
    sightings = [
        f"{path}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Subscript)
        and _is_region(node.targets[0].slice)
        and _is_broadcast_colour(node.value)
        and (path, node.lineno) not in helper_lines
    ]
    assert sightings == []


def test_the_fill_helper_is_defined_once():
    assert [path for path, _ in _definitions(HELPER[1])] == [HELPER[0]]


def test_the_per_glyph_and_per_line_painters_are_gone():
    sightings = [
        f"{path}:{node.lineno} {name}"
        for name in sorted(GONE)
        for path, node in _definitions(name)
    ]
    assert sightings == []
