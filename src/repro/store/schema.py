"""DDL for the SQLite experiment store.

One database holds every persisted result: the result cache and run
records:

``cells``
    The cache: one row per (spec, code version), keyed by the 24-hex
    content hash :meth:`ResultCache.key` computes, with the spec fields
    denormalized into indexed columns so "all sabre cells >= 576q across
    commits" is one ``SELECT``.  The full result payload is kept verbatim
    as JSON (``result``) so cache hits are bit-equal to what was put;
    ``fingerprint`` hashes the *deterministic* fields (wall-clock and
    engine provenance excluded).  ``UNIQUE (cell_key)`` keeps one row per
    key: a put of a present key updates that row in place.

``metrics``
    Numeric metrics per cell, long-form ``(cell_id, name, value)``, so new
    metric columns (e.g. a future fidelity score) need no schema change.

``runs`` / ``run_cells``
    Run records: one ``runs`` row per execution (experiment, profile, plan
    fingerprint, code version), and one ``run_cells`` row per finished
    cell, in append order (``seq``).  A cell may appear more than once
    (straggler retries); last-per-key wins at query time.  A resumed run
    appends to its original row.  The ``shard`` column is no longer
    written; it stays so files that hold it open under this version.

``code_versions``
    Every code version that ever wrote a cell or a run, with first-seen
    timestamps (``python -m repro.store info`` lists them).

All timestamps are ISO-8601 UTC strings; they are provenance, never part
of any key or fingerprint.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, ContextManager

__all__ = ["SCHEMA_VERSION", "ensure_schema"]

#: Bump when the DDL changes incompatibly; ``ensure_schema`` refuses to
#: open a database written by a different schema version rather than
#: guessing at a migration.  Tables an older file holds beyond this DDL are
#: left in place, unread, so dropping a table needs no bump.
SCHEMA_VERSION = 1

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS code_versions (
    version    TEXT PRIMARY KEY,
    first_seen TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS cells (
    id              INTEGER PRIMARY KEY,
    cell_key        TEXT NOT NULL,
    code            TEXT,
    workload        TEXT,
    approach        TEXT,
    kind            TEXT,
    size            INTEGER,
    kwargs          TEXT,
    rename          TEXT,
    timeout_s       REAL,
    workload_params TEXT,
    verify          TEXT,
    architecture    TEXT,
    num_qubits      INTEGER,
    status          TEXT NOT NULL,
    verified        INTEGER,
    fingerprint     TEXT NOT NULL,
    result          TEXT NOT NULL,
    created_at      TEXT NOT NULL,
    UNIQUE (cell_key)
);
CREATE INDEX IF NOT EXISTS cells_by_spec   ON cells (approach, kind, size);
CREATE INDEX IF NOT EXISTS cells_by_qubits ON cells (num_qubits);
CREATE INDEX IF NOT EXISTS cells_by_code   ON cells (code);

CREATE TABLE IF NOT EXISTS metrics (
    cell_id INTEGER NOT NULL REFERENCES cells (id) ON DELETE CASCADE,
    name    TEXT NOT NULL,
    value   REAL NOT NULL,
    PRIMARY KEY (cell_id, name)
);
CREATE INDEX IF NOT EXISTS metrics_by_name ON metrics (name, value);

CREATE TABLE IF NOT EXISTS runs (
    id            INTEGER PRIMARY KEY,
    run_uid       TEXT NOT NULL UNIQUE,
    experiment    TEXT,
    profile       TEXT,
    verify        TEXT,
    shard         TEXT,
    executor      TEXT,
    jobs          INTEGER,
    code          TEXT,
    plan          TEXT,
    wall_s        REAL,
    status_counts TEXT,
    source        TEXT,
    started_at    TEXT NOT NULL,
    finished_at   TEXT
);
CREATE INDEX IF NOT EXISTS runs_by_experiment ON runs (experiment);

CREATE TABLE IF NOT EXISTS run_cells (
    run_id     INTEGER NOT NULL REFERENCES runs (id) ON DELETE CASCADE,
    seq        INTEGER NOT NULL,
    cell_key   TEXT NOT NULL,
    status     TEXT,
    result     TEXT NOT NULL,
    created_at TEXT NOT NULL,
    PRIMARY KEY (run_id, seq)
);
CREATE INDEX IF NOT EXISTS run_cells_by_key ON run_cells (cell_key);
"""


def ensure_schema(
    conn: sqlite3.Connection,
    transaction: Callable[[], ContextManager[sqlite3.Connection]],
) -> None:
    """Create the schema if absent; refuse a mismatched schema version.

    ``transaction`` is the store's write-transaction factory
    (``ExperimentStore._tx``), so the check-then-stamp below is one
    ``BEGIN IMMEDIATE`` unit: two processes opening the same fresh database
    serialize there instead of racing between the SELECT and the INSERT.
    """

    conn.executescript(_DDL)
    with transaction() as tx:
        row = tx.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            tx.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
        elif str(row[0]) != str(SCHEMA_VERSION):
            raise ValueError(
                f"store schema version {row[0]} != supported {SCHEMA_VERSION}; "
                "this database was written by an incompatible repro version -- "
                "export with its own tooling, or start a fresh store"
            )
