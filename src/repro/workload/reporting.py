"""Plain-text tables and series for harness and benchmark output."""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Fixed-width table with a header rule, ready for the console."""
    columns = len(headers)
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index in range(min(columns, len(row))):
            widths[index] = max(widths[index], len(row[index]))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(columns)),
    ]
    for row in rendered_rows:
        lines.append(
            "  ".join(
                row[i].ljust(widths[i]) if i < len(row) else ""
                for i in range(columns)
            ).rstrip()
        )
    return "\n".join(lines)


def format_series(
    name: str, points: Sequence[tuple[object, object]]
) -> str:
    """A labelled x → y series, one point per line."""
    lines = [f"{name}:"]
    for x, y in points:
        lines.append(f"  {_cell(x):>10s} -> {_cell(y)}")
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
