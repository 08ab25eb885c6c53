"""Merge-write safety for the shared bench report."""

import json
import os
import threading

from repro.bench.store import deep_merge, merge_report, upsert_row

COMMITTED_REPORT = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCH_pipeline.json"
)


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_committed_report_holds_sections_only():
    # A top-level scalar or list would be replaced, not merged, and a
    # writer merging one over a section's name would wipe its rows.
    report = _read(COMMITTED_REPORT)
    assert report
    stray = {
        key: type(value).__name__
        for key, value in report.items()
        if not isinstance(value, dict)
    }
    assert stray == {}, f"top-level keys that are not sections: {stray}"


def test_deep_merge_merges_dicts_and_replaces_scalars():
    base = {"a": {"x": 1, "y": 2}, "b": 3, "c": [1, 2]}
    updates = {"a": {"y": 20, "z": 30}, "b": 4, "c": [9]}
    merged = deep_merge(base, updates)
    assert merged == {"a": {"x": 1, "y": 20, "z": 30}, "b": 4, "c": [9]}
    assert base == {"a": {"x": 1, "y": 2}, "b": 3, "c": [1, 2]}  # unchanged


def test_upsert_replaces_own_row_without_duplicates(tmp_path):
    path = str(tmp_path / "BENCH.json")
    upsert_row(path, "workload", "zipf-news@abc", {"p99_ms": 10.0})
    upsert_row(path, "workload", "zipf-news@abc", {"p99_ms": 12.5})
    report = _read(path)
    assert list(report["workload"]) == ["zipf-news@abc"]
    assert report["workload"]["zipf-news@abc"]["p99_ms"] == 12.5


def test_upsert_preserves_siblings_and_other_sections(tmp_path):
    path = str(tmp_path / "BENCH.json")
    merge_report(path, {"adapt": {"p50_ms": 1.0}})
    upsert_row(path, "workload", "a@1", {"p99_ms": 1.0})
    upsert_row(path, "workload", "b@2", {"p99_ms": 2.0})
    report = _read(path)
    assert report["adapt"] == {"p50_ms": 1.0}
    assert sorted(report["workload"]) == ["a@1", "b@2"]


def test_corrupt_or_non_dict_report_is_replaced_not_fatal(tmp_path):
    path = str(tmp_path / "BENCH.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{not json")
    merged = merge_report(path, {"workload": {"k": {"v": 1}}})
    assert merged == {"workload": {"k": {"v": 1}}}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[1, 2, 3]")
    merged = merge_report(path, {"workload": {"k": {"v": 2}}})
    assert merged["workload"]["k"]["v"] == 2


def test_missing_file_starts_empty(tmp_path):
    path = str(tmp_path / "fresh" / "BENCH.json")
    os.makedirs(os.path.dirname(path))
    merged = merge_report(path, {"only": 1})
    assert merged == {"only": 1}
    assert _read(path) == {"only": 1}


def test_concurrent_writers_all_land(tmp_path):
    path = str(tmp_path / "BENCH.json")
    writers = 16

    def _write(n):
        upsert_row(path, "workload", f"scenario-{n:02d}@f", {"row": n})

    threads = [
        threading.Thread(target=_write, args=(n,)) for n in range(writers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report = _read(path)
    assert len(report["workload"]) == writers
    for n in range(writers):
        assert report["workload"][f"scenario-{n:02d}@f"] == {"row": n}
    # Atomic replace leaves no temp droppings behind.
    leftovers = [
        name for name in os.listdir(tmp_path) if name.endswith(".tmp")
    ]
    assert leftovers == []
    # The self-cleaning lock leaves no .lock file either.
    assert not os.path.exists(path + ".lock")


def test_lock_file_is_unlinked_after_write(tmp_path):
    path = str(tmp_path / "BENCH.json")
    upsert_row(path, "workload", "k@1", {"v": 1})
    assert os.path.exists(path)
    assert sorted(os.listdir(tmp_path)) == ["BENCH.json"]


def test_lock_unlink_preserves_mutual_exclusion(tmp_path):
    """Writers that race the unlink must not both think they hold the
    lock: the inode revalidation forces late wakers onto the fresh lock
    file, so increments on a shared counter never interleave lost."""
    path = str(tmp_path / "BENCH.json")
    rounds = 25

    def _locked_bump():
        from repro.bench.store import _FileLock, _read_report, deep_merge

        for _ in range(rounds):
            with _FileLock(path):
                current = _read_report(path)
                merged = deep_merge(
                    current, {"counter": current.get("counter", 0) + 1}
                )
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(merged, handle)

    threads = [threading.Thread(target=_locked_bump) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert _read(path)["counter"] == 6 * rounds
    assert not os.path.exists(path + ".lock")
