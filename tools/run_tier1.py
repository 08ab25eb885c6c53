"""Run the tier-1 gate: the full test suite (concurrency included)
under a wall-clock budget.

Usage:  python tools/run_tier1.py [--budget-s 600] [--slowest-s 60]

Runs ``pytest tests/ --durations=15`` with ``src`` on the path, then
enforces two ceilings:

* the whole suite must finish inside ``--budget-s`` seconds,
* no single test may exceed ``--slowest-s`` seconds (parsed from the
  durations report).

After the suite it runs every row of ``SMOKES`` below — the
``benchmarks/`` smoke tests, the statement-coverage floors, and the
``msite`` chaos / fleet / region / workload / autoscale smoke gates — in
order, printing each step's wall time; the table says what a non-zero
exit of each step means.  A single run is authoritative: no step is
retried.  Speed is not gated here: every speed claim is a row of
``python3 perfbench/run.py`` (see ``perfbench/README.md``).

Exits non-zero when tests fail or a ceiling is breached, so CI and the
pre-merge checklist can gate on one command.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import time

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir)
)

# Lines like "12.34s call tests/x/test_y.py::test_z" from --durations.
_DURATION_RE = re.compile(
    r"^\s*(?P<seconds>\d+(?:\.\d+)?)s\s+(?P<stage>call|setup|teardown)\s+"
    r"(?P<test>\S+)"
)

_MSITE = ("-m", "repro.cli")

#: The steps after the suite: (label, argv after the interpreter, what a
#: non-zero exit means).  Run in this order.
SMOKES: tuple[tuple[str, tuple[str, ...], str], ...] = (
    (
        "benchmark smoke mode",
        ("-m", "pytest", "benchmarks/", "--smoke", "-q",
         "-p", "no:cacheprovider"),
        "the bench layer stopped compiling or a core invariant broke",
    ),
    (
        "observability coverage floor",
        ("tools/check_observability_coverage.py",),
        "a package's statement coverage fell below its floor",
    ),
    (
        "chaos smoke",
        (*_MSITE, "chaos", "--seed", "7", "--requests", "200"),
        "the seeded fault schedule leaked a 500",
    ),
    (
        "cluster smoke",
        (*_MSITE, "scalability", "--workers", "2", "--smoke"),
        "a 2-worker fleet failed to beat one worker or rendered a "
        "(path, device) pair twice",
    ),
    (
        "render farm burst smoke",
        (*_MSITE, "scalability", "--farm", "--smoke"),
        "the farm served a non-degraded 5xx under an open-loop crowd",
    ),
    (
        "region chaos smoke",
        (*_MSITE, "chaos", "--region-faults", "--smoke"),
        "killing one of two regions leaked a non-degraded 5xx or the "
        "healed region did not replay the log to the live offset",
    ),
    (
        "region failover bench smoke",
        (*_MSITE, "bench-regions", "--smoke"),
        "a full fleet restart warm-started under 90% of the working set",
    ),
    (
        "workload smoke (flash-crowd)",
        (*_MSITE, "workload", "--scenario", "flash-crowd", "--smoke"),
        "a non-degraded 5xx at warm cache or a busted p99 budget",
    ),
    (
        "workload smoke (zipf-news)",
        (*_MSITE, "workload", "--scenario", "zipf-news", "--smoke"),
        "a non-degraded 5xx at warm cache or a busted p99 budget",
    ),
    (
        "autoscale bench smoke",
        (*_MSITE, "bench-autoscale", "--smoke"),
        "the fleet never scaled, leaked a non-degraded 5xx, or busted "
        "the p99 budget",
    ),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget-s", type=float, default=600.0,
        help="wall-clock ceiling for the whole suite (default 600)",
    )
    parser.add_argument(
        "--slowest-s", type=float, default=60.0,
        help="ceiling for any single test's call time (default 60)",
    )
    parser.add_argument(
        "pytest_args", nargs="*",
        help="extra arguments forwarded to pytest",
    )
    args = parser.parse_args(argv)

    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    command = [
        sys.executable, "-m", "pytest", "tests/",
        "--durations=15", "-q", *args.pytest_args,
    ]
    print(f"$ {' '.join(command)}  (budget {args.budget_s:.0f}s)")
    started = time.monotonic()
    proc = subprocess.run(
        command,
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    elapsed = time.monotonic() - started
    sys.stdout.write(proc.stdout)

    failures = []
    if proc.returncode != 0:
        failures.append(f"pytest exited {proc.returncode}")
    if elapsed > args.budget_s:
        failures.append(
            f"suite took {elapsed:.1f}s, over the {args.budget_s:.0f}s budget"
        )
    for line in proc.stdout.splitlines():
        match = _DURATION_RE.match(line)
        if not match or match.group("stage") != "call":
            continue
        seconds = float(match.group("seconds"))
        if seconds > args.slowest_s:
            failures.append(
                f"{match.group('test')} took {seconds:.1f}s "
                f"(ceiling {args.slowest_s:.0f}s)"
            )

    for label, argv, meaning in SMOKES:
        command = [sys.executable, *argv]
        print(f"\n$ {' '.join(command)}  # fails when: {meaning}")
        step_started = time.monotonic()
        step = subprocess.run(
            command, cwd=REPO_ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        sys.stdout.write(step.stdout)
        print(f"  ({label}: {time.monotonic() - step_started:.1f}s)")
        if step.returncode != 0:
            failures.append(f"{label} exited {step.returncode}")

    print(f"\ntier-1 gate: suite finished in {elapsed:.1f}s")
    if failures:
        for failure in failures:
            print(f"  FAIL: {failure}")
        return 1
    print("  ok: all tests green, time ceilings respected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
