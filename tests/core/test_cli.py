"""The msite command-line interface."""

import ast
import json
import pathlib

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


def _imports_the_cli(node) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module == "repro":
        names = [f"repro.{alias.name}" for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(
        name == "repro.cli" or name.startswith("repro.cli.")
        for name in names
    )


def test_only_the_cli_imports_the_cli():
    # The CLI sits on top of the library: a builder two commands share
    # with a library module lives beside what it builds (the forum's
    # specs in repro.sites.forum.spec), not among the CLI's privates.
    package = pathlib.Path(__file__).resolve().parents[2] / "src/repro"
    importers = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        if path != package / "cli.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if _imports_the_cli(node)
    ]
    assert importers == []


def test_no_subcommand_records_a_bench_row():
    # A bench gate is a test now, not a row a subcommand writes: no
    # `bench-*` command is left, and only `generate` writes a file.
    from repro.cli import build_parser

    (commands,) = [
        action
        for action in build_parser()._actions
        if action.dest == "command"
    ]
    assert not [name for name in commands.choices if name.startswith("bench")]
    writers = sorted(
        name
        for name, sub in commands.choices.items()
        for action in sub._actions
        if "--output" in action.option_strings
    )
    assert writers == ["generate"]


def test_workload_smoke_prints_its_report_and_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["workload", "--scenario", "zipf-news", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "zipf-news" in out and "fingerprint" in out
    assert list(tmp_path.iterdir()) == []


def test_cluster_sweep_smoke_prints_the_speedup_and_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["scalability", "--workers", "2", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "-- 2 workers" in out and "speedup at 0% browser" in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, clients",
    [
        (["--workers", "1", "--clients", "8"], 8),
        (["--workers", "1"], 16),
        (["--workers", "1", "--clients", "3"], 3),
        (["--real"], 8),
        (["--real", "--clients", "16"], 16),
    ],
)
def test_scalability_clients_resolve_per_mode(monkeypatch, argv, clients):
    from repro.bench import scalability

    shapes = []

    def sweep(shape, percentages=None, fleet_sizes=None):
        shapes.append(shape)
        return []

    monkeypatch.setattr(scalability, "run_closed_loop_sweep", sweep)
    assert main(["scalability", "--smoke", *argv]) == 0
    assert [shape.client_threads for shape in shapes] == [clients]


@pytest.mark.parametrize(
    "argv, inline_5xx, farm_5xx, status, failure",
    [
        (["--smoke"], 0, 0, 0, None),
        (["--smoke"], 3, 1, 1, "farm served 1 non-degraded 5xx"),
        ([], 0, 0, 1, "inline baseline absorbed the burst"),
        ([], 3, 0, 0, None),
    ],
)
def test_farm_burst_exit_status_follows_its_gates(
    monkeypatch, capsys, argv, inline_5xx, farm_5xx, status, failure
):
    from repro.bench import crowd

    def side(mode, non_degraded_5xx):
        return crowd.CrowdRow(
            mode=mode, offered=9, completed_200=9, degraded_200=0,
            non_degraded_5xx=non_degraded_5xx,
            renders=1, p50_ms=1.0, p99_ms=2.0,
            queue_depth_peak=0,
        )

    monkeypatch.setattr(
        crowd,
        "run_crowd_comparison",
        lambda config: crowd.Comparison(
            config,
            side("inline", inline_5xx),
            side("farm", farm_5xx),
        ),
    )
    assert main(["scalability", "--farm", *argv]) == status
    err = capsys.readouterr().err
    assert (failure in err) if failure else err == ""
