"""The msite command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.spec import AdaptationSpec, ObjectSelector


@pytest.fixture()
def spec_file(tmp_path):
    spec = AdaptationSpec(site="S", origin_host="www.sawmillcreek.org")
    spec.add("prerender")
    spec.add("subpage", ObjectSelector.css("#loginform"),
             subpage_id="login")
    path = tmp_path / "spec.json"
    path.write_text(spec.to_json())
    return str(path)


def test_attributes_lists_menu(capsys):
    assert main(["attributes"]) == 0
    out = capsys.readouterr().out
    assert "prerender" in out
    assert "subpage" in out
    assert "ajax_rewrite" in out


def test_validate_good_spec(spec_file, capsys):
    assert main(["validate", spec_file]) == 0
    assert "ok: S (2 bindings" in capsys.readouterr().out


def test_validate_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "site": "S", "origin_host": "h",
        "bindings": [{"attribute": "teleport", "params": {}}],
    }))
    assert main(["validate", str(bad)]) == 1
    assert "invalid spec" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent.json"]) == 1


def test_generate_to_stdout(spec_file, capsys):
    assert main(["generate", spec_file]) == 0
    out = capsys.readouterr().out
    assert "SPEC_JSON" in out
    assert "def create_proxy" in out


def test_generate_to_file_and_load(spec_file, tmp_path, capsys):
    output = tmp_path / "proxy_shell.py"
    assert main(["generate", spec_file, "-o", str(output)]) == 0
    source = output.read_text()
    from repro.core.codegen import load_generated_proxy

    module = load_generated_proxy(source)
    assert module.create_spec().site == "S"


def test_generate_custom_proxy_base(spec_file, capsys):
    assert main(
        ["generate", spec_file, "--proxy-base", "mobile.php"]
    ) == 0
    assert "PROXY_BASE = 'mobile.php'" in capsys.readouterr().out


def test_demo_runs_end_to_end(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "entry page:" in out
    assert "snapshot image:" in out


def _hotpath_results(hit_ratio, not_modified):
    row = {"p50_ms": 1.0, "p99_ms": 2.0, "adapts_per_sec": 100.0}
    warm = dict(
        row, fastpath_hit_ratio=hit_ratio, fastpath_hits=19.0,
        fastpath_misses=1.0, origin_not_modified=not_modified,
    )
    stream = {"stream_on": row, "stream_off": row, "speedup": 1.0}
    return {"warm": warm, "baseline": row, "speedup": 2.0, "stream": stream}


@pytest.mark.parametrize(
    "hit_ratio, not_modified, exit_code, complaint",
    [
        (0.95, 19.0, 0, ""),
        (0.0, 19.0, 1, "never hit the fast path"),
        (0.95, 0.0, 1, "never revalidated with a 304"),
    ],
)
def test_bench_adapt_require_hits_gates_on_hits_and_origin_304s(
    monkeypatch, capsys, hit_ratio, not_modified, exit_code, complaint
):
    import repro.bench.hotpath as hotpath

    monkeypatch.setattr(
        hotpath, "run_hotpath_bench",
        lambda requests: _hotpath_results(hit_ratio, not_modified),
    )
    argv = ["bench-adapt", "--requests", "1", "--output", ""]
    assert main(argv) == 0  # without the flag nothing is gated
    assert main([*argv, "--require-hits"]) == exit_code
    assert complaint in capsys.readouterr().err
