"""``repro.lint``: AST-based invariant checking for the reproduction.

The dynamic guarantees this repo sells -- bit-identical circuits across
the vectorized/reference/compiled engines, cache keys that never fork on
engine options, recorded runs that resume bit-equal -- are enforced here as
*static* properties of the source tree, checked on every CI run over
every file (not just the (workload, architecture, seed) points the
equivalence suites happen to sample).

Seven checkers ship built-in, registered through the same
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
``registry-hygiene``
    Every ``@register_*`` entry has a docstring, collision-free
    synonyms, and a test referencing its canonical name.
``error-discipline``
    No bare ``except``, no silently-swallowed broad excepts, no
    ``assert`` as control flow in library code.
``concurrency``
    Fork-unsafe resources (sqlite3 connections, open handles, RNG
    instances, locks) must not cross a fork/submit boundary into worker
    code, and nothing async-signal-unsafe may be reachable from the
    ``cell_budget`` SIGALRM handler (call-graph reachability).
``transaction-discipline``
    Every ``BEGIN IMMEDIATE`` reaches ``commit()``/``rollback()`` on
    both the non-raising and raising paths (CFG walk over
    try/except/finally/with), and no raw write runs outside a
    transaction helper.
``sql-schema``
    Every SQL string executed in ``store/`` references only tables and
    columns declared in ``store/schema.py``, with matching placeholder
    arity (stdlib-only SQL tokenizer).

Run it as ``python -m repro.lint [paths] [--baseline FILE] [--fix-hints]``;
findings render ``file:line:checker:message``, are suppressible per line
with ``# repro-lint: ignore[checker]``, and may be grandfathered in a
shrink-only baseline file (:mod:`repro.lint.baseline`).
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
from . import hygiene as _hygiene  # noqa: F401,E402
from . import discipline as _discipline  # noqa: F401,E402
from . import concurrency as _concurrency  # noqa: F401,E402
from . import transactions as _transactions  # noqa: F401,E402
from . import sql as _sql  # noqa: F401,E402

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
    tests_root=None,
    only: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint ``paths`` (files/directories) and return sorted findings.

    The convenience entry point for tests and tooling; the CLI in
    ``__main__`` adds baseline handling on top.
    """

    project = Project.load(paths, root=root, tests_root=tests_root)
    return run_checkers(project, only=only)
