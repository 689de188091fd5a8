"""``repro.lint``: AST-based invariant checking for the reproduction.

The dynamic guarantees this repo sells -- bit-identical circuits from the
compiled SABRE kernel and its reference loop, cache keys that never fork
on engine options, recorded runs that resume bit-equal -- are enforced
here as *static* properties of the source tree, checked on every CI run
over every file (not just the (workload, architecture, seed) points the
equivalence suites happen to sample).

Only properties a test run cannot observe are checked here.  Store SQL,
store transactions and the registries are checked where they run: tier-1
executes every store statement against the real schema (SQLite rejects an
unknown table, column or arity the moment it runs), ``tests/conftest.py``
traces every store connection for writes outside a transaction, and
``tests/test_registries.py`` audits the live registries.

Four checkers ship built-in, registered through the same
:class:`~repro.registry.Registry` mechanism as workloads, approaches and
architectures (:func:`register_checker` to plug in more).  They share a
single whole-program index (:mod:`repro.lint.graph`): each file is
parsed once per run, and import-aware symbol resolution plus a call
graph with forward/backward reachability are built on demand and reused
by every checker.

``determinism``
    Set iteration feeding ordered output, global-RNG calls, unsorted
    directory listings, wall-clock flowing outside timing fields.
``cache-purity``
    A call-graph walk proving no :data:`~repro.approaches.ENGINE_KWARGS`
    option name reaches the shared cell identity (cache keys, run-record
    cell keys, store columns) or verify-policy hashing (the no-fork rule
    as a lint).
``error-discipline``
    No bare ``except``, no silently-swallowed broad excepts, no
    ``assert`` as control flow in library code.
``concurrency``
    Fork-unsafe resources (sqlite3 connections, open handles, RNG
    instances, locks) must not cross a fork/submit boundary into worker
    code, and nothing async-signal-unsafe may be reachable from the
    ``cell_budget`` SIGALRM handler (call-graph reachability).

Run it as ``python -m repro.lint [paths] [--fix-hints]``; findings render
``file:line:checker:message`` and are suppressible per line with
``# repro-lint: ignore[checker]``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .framework import (
    CHECKERS,
    Checker,
    Finding,
    Module,
    Project,
    register_checker,
    run_checkers,
)

# importing the package registers the built-in checkers
from . import determinism as _determinism  # noqa: F401,E402
from . import purity as _purity  # noqa: F401,E402
from . import discipline as _discipline  # noqa: F401,E402
from . import concurrency as _concurrency  # noqa: F401,E402

__all__ = [
    "Finding",
    "Module",
    "Project",
    "Checker",
    "CHECKERS",
    "register_checker",
    "run_checkers",
    "run_lint",
]


def run_lint(
    paths: Iterable,
    *,
    root=None,
    only: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint ``paths`` (files/directories) and return sorted findings.

    The convenience entry point for tests and tooling; the CLI in
    ``__main__`` adds presets and output formats on top.
    """

    project = Project.load(paths, root=root)
    return run_checkers(project, only=only)
