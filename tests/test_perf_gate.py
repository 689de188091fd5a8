"""scripts/perf_gate.py against a committed-JSON baseline.

Each test runs the script as CI does, in a subprocess, against a baseline
that pins one ok cell at 0.1 s.  The ``REPRO_PERF_GATE*`` variables a
runner may export are cleared, so the defaults are what is tested.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GATE = Path(__file__).resolve().parents[1] / "scripts" / "perf_gate.py"


def _cell(wall=0.1, status="ok", size=3):
    return {
        "workload": "qft", "approach": "sabre", "kind": "grid", "size": size,
        "status": status, "compile_time_s": wall,
    }


def _gate(tmp_path, current, suite="smoke", **env):
    """Gate one ``current`` cell of ``suite`` against ``base.json``."""

    for name, cell, cell_suite in (
        ("base.json", _cell(), "smoke"), ("cur.json", current, suite),
    ):
        payload = {"suite": cell_suite, "groups": [{"name": "g", "cells": [cell]}]}
        (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")
    clean = {
        k: v for k, v in os.environ.items() if not k.startswith("REPRO_PERF_GATE")
    }
    return subprocess.run(
        [sys.executable, str(GATE), "cur.json", "--baseline", "base.json"],
        capture_output=True, text=True, cwd=tmp_path, env={**clean, **env},
    )


def test_pass_names_the_baseline_once(tmp_path):
    proc = _gate(tmp_path, _cell(0.1))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("baseline source:") == 1
    assert "perf gate: baseline source: committed JSON base.json\n" in proc.stdout
    assert "ok — 1 pinned cells within 1.5x" in proc.stdout


def test_regression_names_the_cell_and_the_source(tmp_path):
    proc = _gate(tmp_path, _cell(10.0))
    assert proc.returncode == 1
    assert proc.stdout.count("baseline source: committed JSON base.json") == 1
    assert "g: qft/sabre on grid-3: 10.000s vs baseline 0.100s" in proc.stderr
    assert "of committed JSON base.json" in proc.stderr


@pytest.mark.parametrize(
    "current, why",
    [
        (_cell(size=4), "pinned cell missing from current run"),
        (_cell(status="timeout"), "pinned cell now status='timeout'"),
    ],
    ids=["missing", "not-ok"],
)
def test_pinned_cell_missing_or_not_ok_fails(tmp_path, current, why):
    proc = _gate(tmp_path, current)
    assert proc.returncode == 1
    assert f"g: qft/sabre on grid-3: {why}" in proc.stderr


def test_suite_mismatch_is_a_usage_error(tmp_path):
    proc = _gate(tmp_path, _cell(), suite="full")
    assert proc.returncode == 2
    assert "suite mismatch" in proc.stderr


def test_off_skips_the_gate(tmp_path):
    proc = _gate(tmp_path, _cell(10.0), REPRO_PERF_GATE="off")
    assert proc.returncode == 0
    assert proc.stdout == "perf gate: skipped (REPRO_PERF_GATE=off)\n"
