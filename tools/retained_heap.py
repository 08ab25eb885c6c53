"""Print what one perfbench replay leaves on the heap, and where it came from.

Usage:  python tools/retained_heap.py --workload NAME --seed N --seconds S
                                      [--top K]

Builds the workload's deployment and trace exactly as
``python3 perfbench/run.py`` does (``perfbench.workloads.deploy``,
``perfbench.traces.compile_trace``) and replays the trace once through
``perfbench.loadgen.replay``, with ``tracemalloc`` recording
``FRAMES`` frames per allocation from before the deployment is built.
It prints:

* the process's maximum RSS after the deployment and after the replay
  (``ru_maxrss``; ``tracemalloc``'s own bookkeeping is in both, so read
  them against each other, not against ``peak_rss_mb``);
* the cycle collector's work during the replay, per generation: how
  many passes ran and how many objects they collected (read through
  ``gc.callbacks``; counts only, since timings taken under
  ``tracemalloc`` would mislead);
* the heap still traced once the replay is done and a full collection
  has run, with the deployment still alive, and the ``K`` largest
  retainers grouped by allocation traceback: size, block count and the
  frames, innermost last;
* the ``K`` allocating lines whose retained heap grew most over the
  replay (a snapshot after the deployment is built, against one after
  the replay, compared by ``lineno``): growth in bytes and blocks.
  This is the view that says which layer holds the bytes a workload
  accumulates, where a traceback splits one line's growth many ways.

A retainer is where the memory was allocated, not who holds it; a large
one names the line to read next.  Nothing in ``perfbench/`` changes.
"""

from __future__ import annotations

import argparse
import gc
import linecache
import resource
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import loadgen  # noqa: E402
from perfbench.traces import WORKLOADS, compile_trace  # noqa: E402
from perfbench.workloads import TARGETS, deploy, oracle_hashes  # noqa: E402

#: Frames kept per allocation: enough to reach from a retaining line
#: back to the proxy's request handler.
FRAMES = 8
#: Allocations by the import machinery and by ``tracemalloc`` itself are
#: not what a replay retains.
_IGNORED = (
    tracemalloc.Filter(False, "<frozen importlib._bootstrap>"),
    tracemalloc.Filter(False, "<frozen importlib._bootstrap_external>"),
    tracemalloc.Filter(False, tracemalloc.__file__),
)


@dataclass
class Retainer:
    size_bytes: int
    blocks: int
    frames: list[str]  # "file:line  source", innermost last


@dataclass
class LineGrowth:
    """What one allocating line retained over the replay."""

    size_bytes: int
    blocks: int
    line: str  # "file:line  source"


@dataclass
class Collections:
    """The cycle collector's passes over one generation."""

    passes: int = 0
    collected: int = 0


@dataclass
class HeapReport:
    workload: str
    requests: int
    failed: int
    rss_after_deploy_mb: float
    rss_after_replay_mb: float
    #: Indexed by generation (0, 1, 2): the passes during the replay.
    collections: list[Collections]
    traced_bytes: int
    retainers: list[Retainer]
    growth: list[LineGrowth]


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _short(filename: str) -> str:
    path = Path(filename)
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return filename


def _where(frame) -> str:
    return (
        f"{_short(frame.filename)}:{frame.lineno}  "
        + linecache.getline(frame.filename, frame.lineno).strip()
    )


def _retainers(snapshot: tracemalloc.Snapshot, top: int) -> list[Retainer]:
    stats = snapshot.statistics("traceback")
    return [
        Retainer(stat.size, stat.count, [_where(f) for f in stat.traceback])
        for stat in stats[:top]
    ]


def _growth(
    after: tracemalloc.Snapshot, before: tracemalloc.Snapshot, top: int
) -> list[LineGrowth]:
    """The ``top`` lines by retained growth (``compare_to`` sorts by
    the absolute difference, so shrinking lines are skipped)."""
    grown = [
        stat for stat in after.compare_to(before, "lineno")
        if stat.size_diff > 0
    ]
    grown.sort(key=lambda stat: stat.size_diff, reverse=True)
    return [
        LineGrowth(stat.size_diff, stat.count_diff, _where(stat.traceback[0]))
        for stat in grown[:top]
    ]


def _count_into(collections: list[Collections]):
    """A ``gc.callbacks`` entry adding each finished pass to its
    generation's row."""

    def callback(phase: str, info: dict) -> None:
        if phase == "stop":
            row = collections[info["generation"]]
            row.passes += 1
            row.collected += info["collected"]

    return callback


def measure(workload: str, seed: int, seconds: float, top: int) -> HeapReport:
    """Deploy, replay once, and report what the heap retains."""
    target = TARGETS[workload]
    trace = compile_trace(workload, seed, seconds)
    tracemalloc.start(FRAMES)
    try:
        deployment = deploy(target)
        try:
            after_deploy = _max_rss_mb()
            oracle = None if target.mutates_origin else oracle_hashes(target)
            revise = (
                deployment.origin.newsroom.revise
                if target.mutates_origin
                else None
            )
            gc.collect()
            before = tracemalloc.take_snapshot().filter_traces(_IGNORED)
            collections = [Collections() for _ in range(3)]
            counting = _count_into(collections)
            gc.callbacks.append(counting)
            try:
                replay = loadgen.replay(
                    trace, deployment.cluster, oracle, revise=revise
                )
            finally:
                gc.callbacks.remove(counting)
            after_replay = _max_rss_mb()
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(_IGNORED)
        finally:
            deployment.close()
    finally:
        tracemalloc.stop()
    return HeapReport(
        workload=workload,
        requests=len(replay.outcomes),
        failed=replay.failed,
        rss_after_deploy_mb=after_deploy,
        rss_after_replay_mb=after_replay,
        collections=collections,
        traced_bytes=sum(trace.size for trace in snapshot.traces),
        retainers=_retainers(snapshot, top),
        growth=_growth(snapshot, before, top),
    )


def format_report(report: HeapReport) -> str:
    lines = [
        f"retained heap: {report.workload}, {report.requests} requests, "
        f"{report.failed} failed",
        f"  max RSS after deploy  {report.rss_after_deploy_mb:10.1f} MB",
        f"  max RSS after replay  {report.rss_after_replay_mb:10.1f} MB",
        *(
            f"  gc gen{generation} during replay {row.passes:6d} passes "
            f"{row.collected:10d} collected"
            for generation, row in enumerate(report.collections)
        ),
        f"  traced after replay   {report.traced_bytes / 1e6:10.1f} MB",
        f"  top {len(report.retainers)} retainers by allocation traceback:",
    ]
    for rank, retainer in enumerate(report.retainers, 1):
        lines.append(
            f"  #{rank}  {retainer.size_bytes / 1e6:.1f} MB in "
            f"{retainer.blocks} blocks"
        )
        lines.extend(f"        {frame}" for frame in retainer.frames)
    lines.append(
        f"  top {len(report.growth)} lines by retained growth over the "
        f"replay:"
    )
    lines.extend(
        f"  {line.size_bytes / 1e6:8.1f} MB {line.blocks:8d} blocks  "
        f"{line.line}"
        for line in report.growth
    )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args(argv)
    report = measure(args.workload, args.seed, args.seconds, args.top)
    print(format_report(report))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
