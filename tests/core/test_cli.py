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
