"""docs/API.md is generated: the committed index must match a fresh one."""

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_the_committed_api_index_is_current():
    checked = subprocess.run(
        [sys.executable, str(REPO / "tools/gen_api_docs.py"), "--check"],
        capture_output=True, text=True, timeout=120,
    )
    assert checked.returncode == 0, checked.stderr
