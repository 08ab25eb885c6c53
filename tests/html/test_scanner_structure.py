"""There stays one lexer.

A structural guard, read off the AST (nothing is imported): under
``src/repro`` only ``html/tokenizer.py`` finds its way through markup.
No other module searches a string for ``<``, the character-loop
tokenizer's ``_consume_*`` helpers do not come back — not as
definitions, not as imports — and the readers take only the lexer's
public names, so a second scanner cannot grow beside the first.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[2]
LEXER = pathlib.Path("src/repro/html/tokenizer.py")
SEARCHES = {"find", "rfind", "index", "rindex"}


def _trees():
    for path in sorted((REPO / "src/repro").rglob("*.py")):
        yield path.relative_to(REPO), ast.parse(path.read_text())


def _imported_names(node):
    return [
        part
        for alias in node.names
        for part in (alias.name, alias.asname or "")
    ]


def test_only_the_lexer_searches_for_a_tag_open():
    sightings = [
        f"{path}:{node.lineno}"
        for path, tree in _trees()
        if path != LEXER
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in SEARCHES
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
        and node.args[0].value.startswith("<")
    ]
    assert sightings == []


def test_the_character_loop_helpers_are_gone():
    sightings = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = _imported_names(node)
            else:
                continue
            sightings += [
                f"{path}:{node.lineno} {name}"
                for name in names
                if name.startswith("_consume_")
            ]
    assert sightings == []


def test_readers_import_only_the_lexers_public_names():
    sightings = [
        f"{path}:{node.lineno} {name}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module == "repro.html.tokenizer"
        for name in _imported_names(node)
        if name.startswith("_")
    ]
    assert sightings == []


def test_there_is_one_scan_and_the_lexer_defines_it():
    definitions = [
        str(path)
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "scan"
    ]
    assert definitions == [str(LEXER)]
