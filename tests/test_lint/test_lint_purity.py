"""The ``cache-purity`` checker against its mini-project fixtures.

``fixtures/purity/`` is a self-contained project whose
``src/repro/approaches.py`` defines ``ENGINE_KWARGS = frozenset({"kernel"})``
-- the checker reads that literal from the AST, exactly as it does in the
real tree.  ``bad_snippets.py`` exercises every rule: an unguarded known
sink, an autodetected hashlib sink, a direct engine-literal injection, a
transitive injection through a forwarding wrapper (the call-graph walk),
and a second ENGINE_KWARGS definition.  ``identity_snippets.py`` covers
the shared ``cell_identity`` function the real sinks delegate to.
"""

from repro.lint import run_lint


def test_bad_fixture_flags_every_marked_line(
    lint_purity_fixture, marked_lines
):
    findings = lint_purity_fixture("bad_snippets.py")
    assert [f.line for f in findings] == marked_lines(
        "purity/src/repro/bad_snippets.py"
    )
    assert all(f.checker == "cache-purity" for f in findings)
    assert all(f.path == "src/repro/bad_snippets.py" for f in findings)


def test_good_fixture_is_clean(lint_purity_fixture):
    assert lint_purity_fixture("good_snippets.py") == []


def test_each_rule_fires(lint_purity_fixture):
    findings = lint_purity_fixture("bad_snippets.py")
    blob = "\n".join(f.message for f in findings)
    # unguarded known sinks (ResultCache.key, the store's identity_columns)
    # + autodetected hashlib sink
    assert "identity sink ResultCache.key()" in blob
    assert "identity sink identity_columns()" in blob
    assert "identity sink hash_options()" in blob
    # engine literal caught at the call site: direct into the cache sink,
    # through a forwarding wrapper, and direct into the store sink
    assert blob.count("engine kwarg ['kernel']") == 3
    # single-source-of-truth rule
    assert "redefined outside approaches.py" in blob


def test_transitive_injection_flagged_at_originating_call(
    lint_purity_fixture, fixtures_dir
):
    """The taint walk must attribute the finding to the call that
    introduced the literal: the wrapper becomes a *derived* sink and the
    caller passing "kernel" into it is what gets flagged."""

    findings = lint_purity_fixture("bad_snippets.py")
    source = (
        fixtures_dir / "purity" / "src" / "repro" / "bad_snippets.py"
    ).read_text().splitlines()
    transitive = [
        f for f in findings
        if "identity sink forwarding_wrapper()" in f.message
    ]
    assert len(transitive) == 1
    assert "forwarding_wrapper(" in source[transitive[0].line - 1]


def test_engine_kwarg_reaching_cell_identity_is_flagged(
    lint_purity_fixture, marked_lines
):
    """The shared identity function is a sink: an engine kwarg passed into
    it (directly, or through a sink delegating to it) is flagged, and a
    delegating sink is clean only while it hands its kwargs over whole."""

    findings = lint_purity_fixture("identity_snippets.py")
    assert [f.line for f in findings] == marked_lines(
        "purity/src/repro/identity_snippets.py"
    )
    blob = "\n".join(f.message for f in findings)
    assert "passed into identity sink cell_identity()" in blob
    assert "passed into identity sink cell_cache_key()" in blob
    assert "identity sink identity_columns() serializes 'kwargs'" in blob
    # delegation counts only into the callee's own kwargs slot
    assert "identity sink sample_verifies() serializes 'params'" in blob


def test_checker_is_silent_outside_a_repro_tree(tmp_path):
    """No src/repro/approaches.py means nothing to enforce (the purity
    rule is about THIS repo's engine-kwarg list, not arbitrary code)."""

    src = tmp_path / "mod.py"
    src.write_text(
        "import hashlib\n"
        "def hash_options(options):\n"
        "    return hashlib.sha256(repr(options).encode()).hexdigest()\n"
    )
    assert run_lint([src], root=tmp_path, only=["cache-purity"]) == []


def test_real_sinks_pass_by_guard_not_by_accident(repo_root):
    """Lint only the three real sink modules: the engine-kwarg filter in
    ``cell_identity`` (which the other identity sinks delegate to) and in
    the verify-policy hash must satisfy the checker (0 findings), proving
    the production guards are the thing keeping the tree clean."""

    findings = run_lint(
        [
            repo_root / "src" / "repro" / "eval" / "cache.py",
            repo_root / "src" / "repro" / "eval" / "runners.py",
            repo_root / "src" / "repro" / "store" / "store.py",
        ],
        root=repo_root,
        only=["cache-purity"],
    )
    assert findings == []
