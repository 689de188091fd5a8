"""The curated top-level surface stays in lockstep with its docs.

``repro.__all__`` is the contract: every name in it must resolve, and
every name must appear in README.md's "Public API" table.  README.md names
numpy as the only runtime dependency, so using the package loads no other
package from outside the standard library.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro
import repro.serve

REPO_ROOT = Path(__file__).resolve().parents[1]
README = REPO_ROOT / "README.md"


def _public_api_section() -> str:
    text = README.read_text()
    match = re.search(r"## Public API\n(.*?)\n## ", text, flags=re.S)
    assert match, "README.md lost its '## Public API' section"
    return match.group(1)


class TestAllIsReal:
    def test_every_name_resolves(self):
        missing = [n for n in repro.__all__ if not hasattr(repro, n)]
        assert missing == []

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_star_import_is_exactly_all(self):
        namespace = {}
        exec("from repro import *", namespace)  # noqa: S102 -- the contract
        exported = {n for n in namespace if not n.startswith("__")}
        assert exported == set(repro.__all__) - {"__version__"}


class TestReadmeTable:
    def test_every_exported_name_is_documented(self):
        section = _public_api_section()
        documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))
        undocumented = [n for n in repro.__all__ if n not in documented]
        assert undocumented == [], (
            "exported but missing from README's Public API table"
        )

    def test_table_names_nothing_private(self):
        # the table's backticked identifiers that *look like* exports must
        # actually be exports -- a renamed symbol must not leave its old
        # name advertised (generic words like `status` in prose are fine;
        # only rows' first column is checked)
        section = _public_api_section()
        rows = [
            line
            for line in section.splitlines()
            if line.startswith("|") and "`" in line.split("|")[2]
        ]
        advertised = set()
        for line in rows[1:]:  # skip the header row
            advertised.update(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", line.split("|")[2]))
        stale = sorted(advertised - set(repro.__all__))
        assert stale == [], "README advertises names repro does not export"


class TestServeReexports:
    def test_wire_schema_objects_are_identical(self):
        # repro.CompileRequest IS repro.serve.CompileRequest -- one class,
        # two addresses; isinstance checks work across both spellings
        assert repro.CompileRequest is repro.serve.CompileRequest
        assert repro.CompileResponse is repro.serve.CompileResponse
        assert repro.ApiError is repro.serve.ApiError

    def test_versions_are_wellformed(self):
        # package version is semver; the wire version is its own integer
        # counter (bumped only on wire-incompatible schema changes)
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
        assert re.fullmatch(r"\d+", repro.serve.API_VERSION)


#: run in a fresh interpreter: import every subpackage with an entry point,
#: compile a SABRE cell (it builds the distance matrix) and an ``ours`` cell,
#: run a plan, then name the installed packages other than numpy that got
#: loaded
_USE_THE_PACKAGE = """
import site
import sys

installed = tuple(site.getsitepackages() + [site.getusersitepackages()])
before = set(sys.modules)
import repro
import repro.eval
import repro.lint
import repro.serve
import repro.store
from repro.eval import CellSpec, adhoc_plan, execute

for approach in ("sabre", "ours"):
    result = repro.compile(architecture="grid", size=4, approach=approach)
    assert result.status == "ok", (approach, result.status)
report = execute(adhoc_plan("deps", [CellSpec.make("sabre", "lnn", 5)]))
assert report.status_counts == {"ok": 1}, report.status_counts
print(sorted({
    name.partition(".")[0]
    for name, module in list(sys.modules.items())
    if name not in before
    and (getattr(module, "__file__", None) or "").startswith(installed)
} - {"numpy", "repro"}))
"""


def test_numpy_is_the_only_dependency_the_package_loads():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _USE_THE_PACKAGE],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
