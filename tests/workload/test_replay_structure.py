"""There stays one replay driver.

A structural guard, read off the AST (nothing is imported): pacing a
schedule, fanning requests over client threads, the stand-in
``Application`` and the sample percentile live in
``repro/workload/replay.py`` and nowhere else under ``repro.bench`` /
``repro.workload``, and the names that module replaced do not come back
— not as definitions, not as imports, not as aliases.  What a harness
measures is gated by a test or printed, never written to a report file.
The dependency runs one way: ``repro.bench`` builds on
``repro.workload``, never the reverse, and a counter family is summed by
``MetricsRegistry.total``, not by a private walk over ``collect()``.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[2]
DRIVER = pathlib.Path("src/repro/workload/replay.py")
HARNESS_DIRS = ("src/repro/bench", "src/repro/workload")
#: The retired bench report's writer, its merge and the row builders
#: that fed it.
REPORT_WRITERS = {
    "merge_report",
    "upsert_row",
    "deep_merge",
    "bench_row",
    "bench_record",
    "_write_bench",
}
RETIRED = {
    "_InlineRenderApplication",
    "_FarmRenderApplication",
    "_ElasticApplication",
    "_ServiceTimeApplication",
    "_ClusterServiceApplication",
    "BurstComparison",
    "AutoscaleComparison",
    # Folded into repro.bench.crowd (one flash-crowd comparison) and
    # repro.bench.scalability's one closed-loop sweep.
    "BurstConfig",
    "AutoscaleBenchConfig",
    "BurstResult",
    "AutoscaleResult",
    "run_burst_comparison",
    "run_autoscale_comparison",
    "RealThreadPoolConfig",
    "RealThreadPoolResult",
    "ClusterScalabilityConfig",
    "ClusterScalabilityResult",
    "run_real_threadpool_experiment",
    "run_real_threadpool_sweep",
    "run_cluster_experiment",
    "run_cluster_sweep",
    "id_hash_cluster",
    "_closed_loop_fields",
    "_registry_total",
    # Replaced by MetricsRegistry.total.
    "_family_sum",
    "_sum_counter",
}


def _trees(*roots):
    for root in roots:
        for path in sorted((REPO / root).rglob("*.py")):
            yield path.relative_to(REPO), ast.parse(path.read_text())


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _functions(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_no_harness_keeps_a_private_percentile_or_replay():
    sightings = [
        f"{path}:{node.lineno} {node.name}"
        for path, tree in _trees(*HARNESS_DIRS)
        for node in _functions(tree)
        if node.name in {"_percentile", "_replay"}
    ]
    assert sightings == []


def test_there_is_exactly_one_percentile_under_src():
    definitions = [
        str(path)
        for path, tree in _trees("src/repro")
        for node in _functions(tree)
        if node.name.lstrip("_") == "percentile"
    ]
    assert definitions == [str(DRIVER)]


def test_application_is_subclassed_only_by_the_driver():
    subclasses = [
        f"{path}:{node.lineno} {node.name}"
        for path, tree in _trees(*HARNESS_DIRS)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            (_dotted(base) or "").split(".")[-1] == "Application"
            for base in node.bases
        )
    ]
    assert subclasses == [
        f"{DRIVER}:{node.lineno} SyntheticRenderApp"
        for node in ast.walk(ast.parse((REPO / DRIVER).read_text()))
        if isinstance(node, ast.ClassDef)
        and node.name == "SyntheticRenderApp"
    ]


def test_only_the_driver_paces_a_schedule_or_starts_client_threads():
    """Outside the driver a harness may sleep a configured interval
    (``config.interval_s``, a module constant) but never a delay it
    computed from the clock, and it starts no thread of its own."""
    sightings = []
    for path, tree in _trees(*HARNESS_DIRS):
        if path == DRIVER:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = _dotted(node.func) or ""
            if called == "time.sleep":
                (duration,) = node.args
                configured = isinstance(duration, ast.Attribute) or (
                    isinstance(duration, ast.Name) and duration.id.isupper()
                )
                if not configured:
                    sightings.append(f"{path}:{node.lineno} paced sleep")
            if called.split(".")[-1] in {"Thread", "ThreadPoolExecutor"}:
                sightings.append(f"{path}:{node.lineno} {called}")
    assert sightings == []


def test_retired_harness_names_are_gone():
    sightings = []
    for path, tree in _trees("src", "examples", "benchmarks"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [
                    part
                    for alias in node.names
                    for part in (alias.name, alias.asname or "")
                ]
            elif isinstance(node, ast.Assign):
                names = [getattr(t, "id", None) for t in node.targets]
            else:
                continue
            sightings += [
                f"{path}:{node.lineno} {name}"
                for name in names
                if name in RETIRED or name == "DEGRADED_HEADER"
            ]
    assert sightings == []


def test_no_harness_writes_a_bench_report():
    """What a ``BENCH_pipeline.json`` row recorded is a test now: the
    file is gone, no harness dumps JSON or replaces a file, no writer is
    defined again, and nothing under ``src`` or ``tools`` names it."""
    assert not (REPO / "BENCH_pipeline.json").exists()
    sightings = []
    for path, tree in _trees("src", "tools"):
        in_harness = str(path).startswith(HARNESS_DIRS)
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                if node.name in REPORT_WRITERS:
                    sightings.append(f"{path}:{node.lineno} {node.name}")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "BENCH_pipeline" in node.value:
                    sightings.append(f"{path}:{node.lineno} names the file")
            elif isinstance(node, ast.Call) and in_harness:
                called = _dotted(node.func) or ""
                if called in {"json.dump", "os.replace"}:
                    sightings.append(f"{path}:{node.lineno} {called}")
    assert sightings == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, [node.module]


def test_the_workload_package_never_imports_the_bench_package():
    sightings = [
        f"{path}:{lineno} {module}"
        for path, tree in _trees("src/repro/workload")
        for lineno, modules in _imported_modules(tree)
        for module in modules
        if module == "repro.bench" or module.startswith("repro.bench.")
    ]
    assert sightings == []


def _filters_by_family_name(node):
    """``family.name == ...`` (or ``!=``, either side)."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
        and any(
            isinstance(side, ast.Attribute) and side.attr == "name"
            for side in (node.left, *node.comparators)
        )
    )


def test_only_the_registry_looks_up_a_family_by_walking_collect():
    """Outside ``repro/observability/`` a loop over ``collect()`` may
    fold every family (a rollup, an exposition) but never picks one out
    by name: that is ``MetricsRegistry.children`` / ``total``."""
    sightings = []
    for path, tree in _trees("src/repro"):
        if path.parts[:3] == ("src", "repro", "observability"):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.For, ast.comprehension)):
                continue
            called = node.iter
            if not (
                isinstance(called, ast.Call)
                and isinstance(called.func, ast.Attribute)
                and called.func.attr == "collect"
            ):
                continue
            scope = node.ifs if isinstance(node, ast.comprehension) else [
                node
            ]
            sightings += [
                f"{path}:{inner.lineno}"
                for part in scope
                for inner in ast.walk(part)
                if _filters_by_family_name(inner)
            ]
    assert sightings == []
