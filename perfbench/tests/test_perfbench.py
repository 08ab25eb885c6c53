"""perfbench's own tests (not part of tier-1; run them with
``PYTHONPATH=src python -m pytest perfbench/tests``).

The end-to-end ones start real workloads in subprocesses, sized for one
second each; the whole file takes a couple of minutes.
"""

from __future__ import annotations

import ast
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as perfbench_run  # noqa: E402
from perfbench.compare import judge, spread  # noqa: E402
from perfbench.loadgen import SpeedReference, percentile  # noqa: E402
from perfbench.spans import (  # noqa: E402
    Span,
    covered_ns,
    invariant_failures,
    self_times_ns,
)
from perfbench.traces import (  # noqa: E402
    WARM_ARRIVALS_RPS,
    WORKLOADS,
    compile_trace,
    trace_hash,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- traces ------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_trace_and_other_seed_other_trace(workload):
    first = trace_hash(compile_trace(workload, 7, 3.0))
    assert first == trace_hash(compile_trace(workload, 7, 3.0))
    assert first != trace_hash(compile_trace(workload, 8, 3.0))


def test_poisson_schedule_offers_the_stated_rate():
    trace = compile_trace("warm-arrivals", 11, 12.0)
    due = [planned.due_s for planned in trace.requests]
    assert due == sorted(due)
    rate = len(due) / (due[-1] - due[0])
    assert abs(rate - WARM_ARRIVALS_RPS) / WARM_ARRIVALS_RPS < 0.02
    # Poisson, not a metronome: exponential gaps have CV 1.
    gaps = [later - sooner for sooner, later in zip(due, due[1:])]
    cv = statistics.pstdev(gaps) / statistics.mean(gaps)
    assert 0.9 < cv < 1.1


@pytest.mark.parametrize("workload", ["warm-arrivals", "browser-mix"])
def test_the_mix_is_a_quota_not_a_draw(workload):
    """Every seed replays the same number of each request kind, so
    bytes_per_request on a read-only workload does not depend on it."""
    mixes = [
        Counter(
            (planned.path, planned.first_visit)
            for planned in compile_trace(workload, seed, 12.0).requests
        )
        for seed in (1, 2, 3)
    ]
    assert mixes[0] == mixes[1] == mixes[2]


def test_a_returning_device_always_arrived_earlier():
    for workload in ("warm-arrivals", "content-churn", "browser-mix"):
        seen = set()
        for planned in compile_trace(workload, 5, 2.0).requests:
            if planned.first_visit:
                seen.add(planned.session)
            else:
                assert planned.session in seen


# -- statistics, spans, compare ------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 0.50) == 50
    assert percentile(samples, 0.99) == 99
    assert percentile([3], 0.99) == 3


def test_speed_reference_samples_its_own_cpu_clock_and_stops():
    with SpeedReference() as reference:
        time.sleep(0.3)
    assert len(reference.samples_ns) >= 3
    assert all(sample > 0 for sample in reference.samples_ns)
    assert not reference._thread.is_alive()


def test_self_time_subtracts_what_children_cover():
    assert covered_ns([(0, 10), (5, 12), (20, 25)]) == 17
    spans = [
        Span(1, 0, 0, "loadgen", "request", 0, 100),
        Span(2, 1, 0, "cluster", "cluster.handle", 10, 90),
        Span(3, 2, 0, "core.proxy", "core.proxy.handle", 20, 70),
    ]
    assert self_times_ns(spans) == {1: 20, 2: 30, 3: 50}
    assert invariant_failures(spans) == []


def test_a_child_outside_its_parent_fails_the_invariants():
    spans = [
        Span(1, 0, 0, "loadgen", "request", 0, 100),
        Span(2, 1, 0, "cluster", "cluster.handle", 10, 120),
    ]
    assert any("outside" in text for text in invariant_failures(spans))


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0]
    assert judge(steady, [104.0, 105.0, 103.0], "lower", 0.10)[2] == "ok"
    assert judge(steady, [120.0, 121.0, 119.0], "lower", 0.10)[2] == "regressed"
    assert judge(steady, [80.0, 81.0, 79.0], "higher", 0.10)[2] == "regressed"
    noisy = [100.0, 140.0, 70.0]
    assert spread(noisy) > 0.10
    assert judge(noisy, steady, "lower", 0.10)[2] == "unresolved"
    # ... unless every run of B beats every run of A.
    assert judge(noisy, [50.0, 51.0, 49.0], "lower", 0.10)[2] == "ok"


# -- the import graph -------------------------------------------------------------


def test_perfbench_never_imports_the_benches_it_replaces():
    for source in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            for name in names:
                assert not name.startswith(("repro.bench", "repro.workload")), (
                    f"{source.name} imports {name}"
                )
    loaded = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; sys.argv = ['run.py']\n"
            "import runpy; runpy.run_path('perfbench/run.py', run_name='perfbench_run')\n"
            "print([m for m in sys.modules"
            " if m.startswith(('repro.bench', 'repro.workload'))])",
        ],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert loaded.stdout.strip() == "[]"


# -- end to end -----------------------------------------------------------------------


def _run(workload: str, trace: int) -> tuple[int, list[str]]:
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    return completed.returncode, completed.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    status, lines = _run(workload, trace)
    assert status == 0, "\n".join(lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {
        metric["name"]: metric["unit"]
        for metric in BENCHMARK["per_layer" if trace else "end_to_end"]
    }
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == declared
    for name in declared:  # each printed by name with its sample count
        assert any(
            line.split()[:1] == [name] and "n=" in line for line in lines
        ), name


def test_a_corrupted_body_fails_the_request_and_the_run(capsys):
    def corrupt(response):
        response.body = response.body[:-1] + b"\x00"
        return response

    status = perfbench_run.main(
        ["--workload", "full-adapt", "--seed", "3", "--seconds", "1"],
        tamper=corrupt,
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
