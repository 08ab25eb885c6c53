"""Smoke test of ``tools/retained_heap.py`` on a short ``content-churn``
trace: the replay is correct, both RSS readings, the cycle collector's
passes per generation and the traced total are printed, each retainer
names a traceback into the program, and the retained growth over the
replay is grouped by allocating line."""

import importlib.util
import pathlib
import sys

TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools/retained_heap.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("retained_heap", TOOL)
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their own module up by name.
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules[spec.name]


def test_retained_heap_reports_a_short_replay(capsys, monkeypatch):
    tool = _load_tool()
    report = tool.measure("content-churn", 1, 0.2, top=3)
    assert report.requests > 0 and report.failed == 0
    assert report.rss_after_replay_mb >= report.rss_after_deploy_mb > 0
    assert len(report.collections) == 3  # one row per generation
    assert report.collections[0].passes > 0  # a replay allocates
    assert report.traced_bytes > 0
    assert len(report.retainers) == 3
    sizes = [retainer.size_bytes for retainer in report.retainers]
    assert sizes == sorted(sizes, reverse=True)
    assert all(
        retainer.blocks > 0 and 0 < len(retainer.frames) <= tool.FRAMES
        for retainer in report.retainers
    )
    assert any(
        frame.startswith("src/repro/")
        for retainer in report.retainers
        for frame in retainer.frames
    )
    assert len(report.growth) == 3
    growth = [line.size_bytes for line in report.growth]
    assert growth == sorted(growth, reverse=True) and growth[-1] > 0
    assert all(line.line.count(":") >= 1 for line in report.growth)
    assert any(line.line.startswith("src/repro/") for line in report.growth)
    # The command line prints that report (measured once, above).
    measured = []
    monkeypatch.setattr(
        tool, "measure", lambda *args: measured.append(args) or report
    )
    assert tool.main(
        ["--workload", "content-churn", "--seed", "1", "--seconds", "0.2",
         "--top", "3"]
    ) == 0
    assert measured == [("content-churn", 1, 0.2, 3)]
    out = capsys.readouterr().out
    assert out == tool.format_report(report) + "\n"
    for label in ("0 failed", "max RSS after deploy", "max RSS after replay",
                  "traced after replay", "top 3 retainers",
                  "top 3 lines by retained growth over the replay"):
        assert label in out
    for generation, row in enumerate(report.collections):
        assert (
            f"gc gen{generation} during replay {row.passes:6d} passes "
            f"{row.collected:10d} collected"
        ) in out
    for line in report.growth:
        assert line.line in out
