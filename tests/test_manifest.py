"""Every run of ``tests/output_manifest.py`` ends in a documented exit code.

The manifest runs every subcommand on every input that the repository
holds, and records an uncaught exception under its type name, so one
pass shows that no input ends in a Python traceback, and keeps the tool
that diffs two checkouts working.
"""

import sys
from pathlib import Path

import output_manifest

ROOT = Path(__file__).resolve().parent.parent


def test_every_run_exits_with_a_documented_code(monkeypatch, tmp_path):
    # the manifest changes the working directory, sys.path and HV_SEED
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.delenv("HV_SEED", raising=False)
    runs = output_manifest.manifest(ROOT, tmp_path)
    assert len(runs) >= 184  # every input of this checkout, as of this test
    codes = {name: run["exit"] for name, run in runs.items()}
    assert {name: code for name, code in codes.items()
            if type(code) is not int or code not in range(5)} == {}
