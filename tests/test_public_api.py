"""The curated top-level surface stays in lockstep with its docs.

``repro.__all__`` is the contract: every name in it must resolve, and
every name must appear in README.md's "Public API" table.
"""

import re
from pathlib import Path

import repro
import repro.serve

README = Path(__file__).resolve().parents[1] / "README.md"


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
