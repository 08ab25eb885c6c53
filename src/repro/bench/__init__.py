"""Benchmark harness helpers: workloads and experiments."""

from repro.bench.scalability import (
    ScalabilityConfig,
    ScalabilityResult,
    run_scalability_experiment,
    run_browser_percentage_sweep,
)
from repro.bench.wallclock import table1_rows, Table1Row
from repro.bench.workload import (
    WorkloadConfig,
    WorkloadReport,
    run_workload,
)

__all__ = [
    "WorkloadConfig",
    "WorkloadReport",
    "run_workload",
    "ScalabilityConfig",
    "ScalabilityResult",
    "run_scalability_experiment",
    "run_browser_percentage_sweep",
    "table1_rows",
    "Table1Row",
]
