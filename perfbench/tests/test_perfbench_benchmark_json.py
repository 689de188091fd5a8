"""BENCHMARK.json agrees with what run.py prints, and run.py refuses to run
without the repository next to it."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from benchlib import draws  # noqa: E402
from benchlib.tracing import PER_LAYER_UNITS  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_the_draws():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(draws.WORKLOADS)
    assert all(w["why"] == draws.WHY[w["name"]] for w in spec["workloads"])


def test_metric_names_and_units_match_what_run_prints():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-qft", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
    assert "not found" in done.stderr
