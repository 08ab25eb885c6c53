"""Exposition: Prometheus text format and JSON trace dumps.

The text format follows the Prometheus 0.0.4 exposition conventions
(``# HELP``/``# TYPE`` headers, cumulative ``le`` buckets with a
``+Inf`` terminator, ``_sum``/``_count`` series) with fully
deterministic ordering — families sorted by name, children by label
set — so golden-file tests can pin the output byte for byte.  No
timestamps are emitted.
"""

from __future__ import annotations

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INF = float("inf")


def _format_value(value: float) -> str:
    if value == _INF:
        return "+Inf"
    if value == -_INF:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in pairs
    )
    return "{" + body + "}"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry's current state as Prometheus exposition text."""
    lines: list[str] = []
    for family in registry.collect():
        children = family.sorted_children()
        if not children:
            continue
        if family.help_text:
            lines.append(
                f"# HELP {family.name} {_escape_help(family.help_text)}"
            )
        lines.append(f"# TYPE {family.name} {family.kind}")
        for metric in children:
            base_labels = sorted(metric.labels.items())
            if isinstance(metric, (Counter, Gauge)):
                lines.append(
                    f"{family.name}{_render_labels(base_labels)} "
                    f"{_format_value(metric.value)}"
                )
            elif isinstance(metric, Histogram):
                snap = metric.snapshot()
                cumulative = 0
                for bound, count in zip(
                    snap.buckets + (_INF,), snap.counts
                ):
                    cumulative += count
                    bucket_labels = base_labels + [
                        ("le", _format_value(bound))
                    ]
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_render_labels(bucket_labels)} {cumulative}"
                    )
                lines.append(
                    f"{family.name}_sum{_render_labels(base_labels)} "
                    f"{_format_value(snap.sum)}"
                )
                lines.append(
                    f"{family.name}_count{_render_labels(base_labels)} "
                    f"{snap.count}"
                )
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition text back into ``{series-with-labels: value}``.

    A deliberately small reader used by tests and the CLI to check the
    endpoint round-trips; it understands exactly what
    :func:`render_prometheus` emits.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, raw_value = line.rpartition(" ")
        if not series:
            raise ValueError(f"unparseable exposition line: {line!r}")
        if raw_value == "+Inf":
            value = _INF
        elif raw_value == "-Inf":
            value = -_INF
        else:
            value = float(raw_value)
        if series in samples:
            raise ValueError(f"duplicate series: {series!r}")
        samples[series] = value
    return samples
