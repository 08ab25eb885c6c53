"""Apply each end-to-end metric's bound to two sets of runs.

A result file (written by ``python -m perfbench run --out``) holds any
number of runs per workload.  For every (workload, end-to-end metric)
the verdict is

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's run-to-run spread (interquartile range
  over median) is wider than the bound, so the medians decide nothing —
  unless every run of B reads better than every run of A;
* ``ok``         — otherwise.
"""

from __future__ import annotations

import json
import statistics
from typing import NamedTuple


class Verdict(NamedTuple):
    workload: str
    metric: str
    median_a: float
    median_b: float
    worse_by: float  # share of A's median; negative = B is better
    spread: float  # the wider of the two sides
    bound: float
    verdict: str


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def load_runs(path: str) -> dict[str, list[dict]]:
    """Workload -> its untraced runs, from one result file."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    runs: dict[str, list[dict]] = {}
    for run in document["runs"]:
        if run["trace"] == 0:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def judge(
    values_a: list[float], values_b: list[float], better: str, bound: float
) -> tuple[float, float, str]:
    """(worse_by, spread, verdict) for one metric on one workload."""
    median_a = statistics.median(values_a)
    median_b = statistics.median(values_b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median_b - median_a) / median_a
    widest = max(spread(values_a), spread(values_b))
    if widest > bound:
        if better == "lower":
            b_always_better = max(values_b) < min(values_a)
        else:
            b_always_better = min(values_b) > max(values_a)
        return worse_by, widest, "ok" if b_always_better else "unresolved"
    return worse_by, widest, "regressed" if worse_by > bound else "ok"


def compare(
    path_a: str, path_b: str, end_to_end: list[dict]
) -> tuple[list[Verdict], list[str]]:
    """Verdicts per (workload, metric), and trace-identity problems."""
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    verdicts = []
    problems = []
    for workload in runs_a:
        if workload not in runs_b:
            problems.append(f"{workload}: no runs in {path_b}")
            continue
        hashes = {
            run["trace_sha256"] for run in runs_a[workload] + runs_b[workload]
        }
        if len(hashes) != 1:
            problems.append(
                f"{workload}: the runs replayed {len(hashes)} different traces"
            )
        for metric in end_to_end:
            name = metric["name"]
            values_a = [run["metrics"][name] for run in runs_a[workload]]
            values_b = [run["metrics"][name] for run in runs_b[workload]]
            worse_by, widest, verdict = judge(
                values_a, values_b, metric["better"], metric["bound"]
            )
            verdicts.append(
                Verdict(
                    workload, name,
                    statistics.median(values_a), statistics.median(values_b),
                    worse_by, widest, metric["bound"], verdict,
                )
            )
    return verdicts, problems
