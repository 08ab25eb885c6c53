"""Generate docs/API.md from package and module docstrings.

Usage:  python tools/gen_api_docs.py           (rewrite docs/API.md)
        python tools/gen_api_docs.py --check   (exit 1 if it is stale)
"""

from __future__ import annotations

import argparse
import importlib
import os
import pkgutil
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

import repro  # noqa: E402

API_MD = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "docs", "API.md")
)


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    lines = []
    for line in doc.strip().splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def walk(package) -> list[tuple[str, str]]:
    entries = [(package.__name__, first_paragraph(package.__doc__))]
    for info in pkgutil.walk_packages(
        package.__path__, prefix=package.__name__ + "."
    ):
        try:
            module = importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - report, don't die
            entries.append((info.name, f"(import failed: {exc})"))
            continue
        entries.append((info.name, first_paragraph(module.__doc__)))
    return sorted(entries)


def render(entries: list[tuple[str, str]]) -> str:
    """The whole index, as docs/API.md holds it."""
    lines = [
        "# API index\n\n",
        "One line per module, taken from its docstring.  Regenerate "
        "with `python tools/gen_api_docs.py`.\n\n"
        "For the threading model, lock ordering, and single-flight "
        "rendering design behind `repro.runtime`, see "
        "[CONCURRENCY.md](CONCURRENCY.md).\n\n",
        "| Module | Purpose |\n|---|---|\n",
    ]
    for name, summary in entries:
        summary = summary.replace("|", "\\|")
        lines.append(f"| `{name}` | {summary} |\n")
    return "".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare with the committed index instead of writing it",
    )
    args = parser.parse_args(argv)
    entries = walk(repro)
    index = render(entries)
    if args.check:
        try:
            with open(API_MD, "r", encoding="utf-8") as handle:
                committed = handle.read()
        except FileNotFoundError:
            committed = ""
        if committed != index:
            print(
                f"{API_MD} is stale: run python tools/gen_api_docs.py",
                file=sys.stderr,
            )
            return 1
        print(f"{API_MD} is current ({len(entries)} modules)")
        return 0
    os.makedirs(os.path.dirname(API_MD), exist_ok=True)
    with open(API_MD, "w", encoding="utf-8") as handle:
        handle.write(index)
    print(f"wrote {API_MD} ({len(entries)} modules)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
