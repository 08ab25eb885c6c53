"""``python -m perfbench run | compare`` — the human entry points.

``run`` replays all four workloads, each in a fresh Python process
(``perfbench/run.py``, the same program the driver's ``BENCHMARK.json``
command names), with spans off; ``--traced`` then repeats the same
traces with the benchmark's own spans on and prints the per-layer
metrics.  ``compare`` applies each metric's bound to two result files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from perfbench.compare import compare
from perfbench.traces import WORKLOADS, compile_trace, trace_hash

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMOKE_SECONDS = 1.0


def _run_one(workload: str, seed: int, seconds: float, trace: int,
             trace_out: str | None) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    completed = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=False
    )
    lines = completed.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    run = {"workload": workload, "trace": trace, "exit": completed.returncode}
    if not lines or not lines[-1].startswith("{"):
        print(f"  FAILED: {workload} printed no result")
        return run
    result = json.loads(lines[-1])
    run.update(
        trace_sha256=trace_hash(compile_trace(workload, seed, seconds)),
        correct=result["correct"],
        attempted=result["attempted"],
        failed=result["failed"],
        metrics={
            name: metric["value"]
            for name, metric in result["metrics"].items()
        },
    )
    return run


def _run(args: argparse.Namespace) -> int:
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    runs = []
    for trace in (0, 1) if args.traced else (0,):
        for workload in args.workload or WORKLOADS:
            trace_out = None
            if trace and args.trace_out:
                os.makedirs(args.trace_out, exist_ok=True)
                trace_out = os.path.join(
                    args.trace_out, f"spans-{workload}.ndjson"
                )
            runs.append(
                _run_one(workload, args.seed, seconds, trace, trace_out)
            )
    if args.out:
        document = {"runs": []}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as handle:
                document = json.load(handle)
        for run in runs:
            run.update(seed=args.seed, seconds=seconds)
        document["runs"].extend(runs)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    return 0 if all(run["exit"] == 0 for run in runs) else 1


def _compare(args: argparse.Namespace) -> int:
    verdicts, problems = compare(args.a, args.b, BENCHMARK["end_to_end"])
    print(
        f"{'workload':<15}{'metric':<20}{'A median':>13}{'B median':>13}"
        f"{'worse by':>10}{'spread':>9}{'bound':>7}  verdict"
    )
    for v in verdicts:
        print(
            f"{v.workload:<15}{v.metric:<20}{v.median_a:>13.4f}"
            f"{v.median_b:>13.4f}{v.worse_by:>+10.3f}{v.spread:>9.3f}"
            f"{v.bound:>7.2f}  {v.verdict}"
        )
    for problem in problems:
        print(f"FAILED: {problem}")
    regressed = any(v.verdict == "regressed" for v in verdicts)
    return 1 if regressed or problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the workloads")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--seconds", type=float, default=float(BENCHMARK["run_seconds"])
    )
    run.add_argument(
        "--smoke", action="store_true",
        help=f"size every workload for {SMOKE_SECONDS:g} s",
    )
    run.add_argument("--traced", action="store_true")
    run.add_argument("--workload", action="append", choices=WORKLOADS)
    run.add_argument("--out", help="append the runs to this result file")
    run.add_argument(
        "--trace-out", help="directory for the traced runs' span files"
    )
    run.set_defaults(call=_run)
    cmp_ = commands.add_parser("compare", help="judge B against A")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(call=_compare)
    args = parser.parse_args(argv)
    return args.call(args)


if __name__ == "__main__":
    sys.exit(main())
