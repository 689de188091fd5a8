"""`ExperimentStore`: one SQLite database for the result cache and run
records.

The store is the single place results persist: cells (cache entries) and
run records land in one WAL-mode SQLite file with indexed spec columns, so
cross-run questions ("all sabre cells >= 576q across commits") are single
queries.

Design rules:

* **One identity.**  Cells are stored under the 24-hex content hash
  :meth:`ResultCache.key` computes; :func:`identity_columns` denormalizes
  the same :func:`~repro.eval.cache.cell_identity` into indexed columns,
  so engine-selection options (``ENGINE_KWARGS``) never fork a cell's
  identity, in columns any more than in keys.
* **Same bytes.**  The full result payload is stored verbatim as JSON, so
  a cache hit deserializes into a :class:`CompilationResult` bit-equal to
  the one that was put.
* **One row per key.**  ``cells`` has ``UNIQUE (cell_key)`` and
  :meth:`ExperimentStore.put_cell` is an ``ON CONFLICT`` upsert, so
  processes writing one key at once leave exactly one row (the last
  commit wins) with its ``metrics`` rows refreshed in the same
  transaction.
* **Durable runs.**  ``synchronous=FULL`` by default, so a committed cell
  or run append survives power loss; a run killed mid-way leaves a run row
  whose ``run_cells`` are exactly the durably finished cells, which
  ``execute(..., resume=True)`` continues.  WAL mode keeps concurrent
  writers and mid-run readers from blocking each other.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..eval.cache import cell_identity
from .schema import SCHEMA_VERSION, ensure_schema

__all__ = [
    "ExperimentStore",
    "RunRecorder",
    "identity_columns",
    "comparable_result",
    "result_fingerprint",
]

#: result fields excluded from fingerprints: wall-clock is a property of
#: the machine, not the spec.
VOLATILE_FIELDS = ("compile_time_s",)
#: ``extra`` keys likewise excluded: which routing engine ran (``kernel``)
#: and the cache-hit marker (``cache``) are provenance, not results.
VOLATILE_EXTRA = ("kernel", "cache")

#: numeric result fields mirrored into the long-form ``metrics`` table
METRIC_FIELDS = (
    "depth",
    "unit_depth",
    "swap_count",
    "cphase_count",
    "total_ops",
    "compile_time_s",
)


def _utc_now() -> str:
    """ISO-8601 UTC timestamp for provenance columns (never identity)."""

    from datetime import datetime, timezone

    now = datetime.now(timezone.utc)
    return now.isoformat(timespec="seconds")


def identity_columns(
    approach: str,
    kind: str,
    size: int,
    kwargs: Iterable[Tuple[str, object]] = (),
    rename: Optional[str] = None,
    timeout_s: Optional[float] = None,
    workload: str = "qft",
    workload_params: Iterable[Tuple[str, object]] = (),
    verify: str = "full",
) -> Dict[str, object]:
    """Denormalized spec columns for one cell, mirroring ``ResultCache.key``.

    These columns are what the store indexes queries on; they are the
    cell's :func:`~repro.eval.cache.cell_identity` (engine-selection
    options already filtered out), with the option lists JSON-encoded.
    """

    return columns_of(
        cell_identity(
            approach, kind, size, kwargs, rename, timeout_s, workload,
            workload_params, verify,
        )
    )


def columns_of(identity: Dict[str, object]) -> Dict[str, object]:
    """Column form of a :func:`~repro.eval.cache.cell_identity` dict."""

    return {
        "approach": identity["approach"],
        "kind": identity["kind"],
        "size": int(identity["size"]),  # type: ignore[call-overload]
        "kwargs": json.dumps(identity["kwargs"]),
        "rename": identity["rename"],
        "timeout_s": identity["timeout_s"],
        "workload": identity["workload"],
        "workload_params": json.dumps(identity["workload_params"]),
        "verify": identity["verify"],
    }


def comparable_result(data: Dict[str, object]) -> Dict[str, object]:
    """The deterministic view of a result dict (volatile fields dropped)."""

    out = {k: v for k, v in data.items() if k not in VOLATILE_FIELDS}
    extra = out.get("extra")
    if isinstance(extra, dict):
        out["extra"] = {k: v for k, v in extra.items() if k not in VOLATILE_EXTRA}
    return out


def result_fingerprint(data: Dict[str, object]) -> str:
    """Content hash of the deterministic result fields (16 hex chars)."""

    payload = json.dumps(comparable_result(data), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _enable_wal(conn: sqlite3.Connection, timeout_s: float) -> None:
    """``PRAGMA journal_mode = WAL``, retried for ``timeout_s`` while locked.

    Processes that convert the same fresh file at once deadlock on the lock
    upgrade, and SQLite answers one of them "database is locked" at once
    instead of calling the busy handler.  A retry finds the file already
    converted by the other.
    """

    deadline = time.monotonic() + timeout_s
    while True:
        try:
            conn.execute("PRAGMA journal_mode = WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                raise
        time.sleep(0.01)


class ExperimentStore:
    """SQLite-backed experiment store (WAL mode, safe for concurrent use).

    Parameters
    ----------
    path:
        Database file.  Created (with parents) on first open.
    timeout_s:
        Lock-wait budget (``busy_timeout``): how long a writer blocks on a
        concurrent transaction before giving up.
    page_size:
        Page size for *freshly created* databases (ignored on existing
        files -- SQLite fixes it at creation).  The torn-write tests use a
        small page so a single cell spans several pages.
    synchronous:
        ``"FULL"`` (default: a committed cell or run append survives power
        loss) or ``"NORMAL"`` (WAL-safe but a late commit may roll back
        after power loss) for throwaway runs.
    """

    def __init__(
        self,
        path,
        *,
        timeout_s: float = 30.0,
        page_size: Optional[int] = None,
        synchronous: str = "FULL",
    ) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        # isolation_level=None: autocommit with explicit BEGIN IMMEDIATE in
        # _tx(), so transaction boundaries are ours, not the driver's.
        self._conn = sqlite3.connect(
            str(self.path),
            timeout=timeout_s,
            isolation_level=None,
            check_same_thread=False,
        )
        self._conn.row_factory = sqlite3.Row
        cur = self._conn
        cur.execute(f"PRAGMA busy_timeout = {int(timeout_s * 1000)}")
        if page_size is not None:
            cur.execute(f"PRAGMA page_size = {int(page_size)}")
        _enable_wal(cur, timeout_s)
        if synchronous.upper() not in ("FULL", "NORMAL"):
            raise ValueError(f"synchronous must be FULL or NORMAL, not {synchronous!r}")
        cur.execute(f"PRAGMA synchronous = {synchronous.upper()}")
        cur.execute("PRAGMA foreign_keys = ON")
        with self._lock:
            ensure_schema(self._conn, self._tx)

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _tx(self):
        """Serialized write transaction (``BEGIN IMMEDIATE`` ... commit)."""

        return _Transaction(self._conn, self._lock)

    # -- cells (the cache) ---------------------------------------------
    def _cell_row(
        self,
        key: str,
        data: Dict[str, object],
        *,
        code: Optional[str],
        identity: Optional[Dict[str, object]],
    ) -> Dict[str, object]:
        identity = dict(identity or {})
        row = {
            "cell_key": key,
            "code": code,
            "workload": identity.get("workload", data.get("workload")),
            "approach": identity.get("approach", data.get("approach")),
            "kind": identity.get("kind"),
            "size": identity.get("size"),
            "kwargs": identity.get("kwargs"),
            "rename": identity.get("rename"),
            "timeout_s": identity.get("timeout_s"),
            "workload_params": identity.get("workload_params"),
            "verify": identity.get("verify"),
            "architecture": data.get("architecture"),
            "num_qubits": data.get("num_qubits"),
            "status": data.get("status", "ok"),
            "verified": (
                None if data.get("verified") is None else int(bool(data["verified"]))
            ),
            "fingerprint": result_fingerprint(data),
            "result": json.dumps(data, sort_keys=True),
            "created_at": _utc_now(),
        }
        return row

    @staticmethod
    def _clean(result) -> Dict[str, object]:
        """Result as a plain dict with the cache-hit marker stripped."""

        data = result if isinstance(result, dict) else result.to_dict()
        data = dict(data)
        extra = data.get("extra")
        if isinstance(extra, dict) and "cache" in extra:
            data["extra"] = {k: v for k, v in extra.items() if k != "cache"}
        return data

    def put_cell(
        self,
        key: str,
        result,
        *,
        code: Optional[str] = None,
        identity: Optional[Dict[str, object]] = None,
    ) -> None:
        """Insert-or-overwrite one cell (the cache's ``put``)."""

        data = self._clean(result)
        row = self._cell_row(key, data, code=code, identity=identity)
        cols = ", ".join(row)
        marks = ", ".join("?" for _ in row)
        sets = ", ".join(f"{c} = excluded.{c}" for c in row if c != "cell_key")
        with self._tx() as conn:
            if code:
                conn.execute(
                    "INSERT OR IGNORE INTO code_versions (version, first_seen) "
                    "VALUES (?, ?)",
                    (code, _utc_now()),
                )
            conn.execute(
                f"INSERT INTO cells ({cols}) VALUES ({marks}) "
                f"ON CONFLICT (cell_key) DO UPDATE SET {sets}",
                tuple(row.values()),
            )
            self._refresh_metrics(conn, key, data)

    def _refresh_metrics(self, conn, key: str, data: Dict[str, object]) -> None:
        cell_id = conn.execute(
            "SELECT id FROM cells WHERE cell_key = ?", (key,)
        ).fetchone()[0]
        conn.execute("DELETE FROM metrics WHERE cell_id = ?", (cell_id,))
        rows = [
            (cell_id, name, float(data[name]))
            for name in METRIC_FIELDS
            if isinstance(data.get(name), (int, float))
            and not isinstance(data.get(name), bool)
        ]
        conn.executemany(
            "INSERT INTO metrics (cell_id, name, value) VALUES (?, ?, ?)", rows
        )

    def get_cell(self, key: str) -> Optional[Dict[str, object]]:
        """The stored result dict for ``key``, or ``None``."""

        with self._lock:
            row = self._conn.execute(
                "SELECT result FROM cells WHERE cell_key = ?", (key,)
            ).fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError:
            return None

    def query_cells(
        self,
        *,
        workload: Optional[str] = None,
        approach: Optional[str] = None,
        kind: Optional[str] = None,
        size: Optional[int] = None,
        min_qubits: Optional[int] = None,
        status: Optional[str] = None,
        code: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """Indexed cell query; each row is identity columns + result fields."""

        clauses, params = [], []
        for col, val in (
            ("workload", workload),
            ("approach", approach),
            ("kind", kind),
            ("size", size),
            ("status", status),
            ("code", code),
        ):
            if val is not None:
                clauses.append(f"{col} = ?")
                params.append(val)
        if min_qubits is not None:
            clauses.append("num_qubits >= ?")
            params.append(min_qubits)
        sql = "SELECT * FROM cells"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY workload, approach, kind, size, cell_key"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        out = []
        for row in rows:
            rec = dict(row)
            result = json.loads(rec.pop("result"))
            for field_name in METRIC_FIELDS:
                rec[field_name] = result.get(field_name)
            rec["message"] = result.get("message")
            out.append(rec)
        return out

    # -- runs (the run record) ------------------------------------------
    def begin_run(
        self,
        meta: Dict[str, object],
        *,
        executor: Optional[str] = None,
        jobs: Optional[int] = None,
        source: Optional[str] = None,
    ) -> int:
        """Open a run row (experiment, profile, plan fingerprint, code, ...)."""

        with self._tx() as conn:
            if meta.get("code"):
                conn.execute(
                    "INSERT OR IGNORE INTO code_versions (version, first_seen) "
                    "VALUES (?, ?)",
                    (meta["code"], _utc_now()),
                )
            cur = conn.execute(
                "INSERT INTO runs (run_uid, experiment, profile, verify, "
                "executor, jobs, code, plan, source, started_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    uuid.uuid4().hex[:16],
                    meta.get("experiment"),
                    meta.get("profile"),
                    meta.get("verify"),
                    executor,
                    jobs,
                    meta.get("code"),
                    meta.get("plan"),
                    source,
                    _utc_now(),
                ),
            )
            return int(cur.lastrowid)

    def append_run_cell(self, run_id: int, key: str, result) -> None:
        """Record one finished cell of a run (append order preserved)."""

        data = self._clean(result)
        with self._tx() as conn:
            seq = conn.execute(
                "SELECT COALESCE(MAX(seq), -1) + 1 FROM run_cells "
                "WHERE run_id = ?",
                (run_id,),
            ).fetchone()[0]
            conn.execute(
                "INSERT INTO run_cells (run_id, seq, cell_key, status, "
                "result, created_at) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    seq,
                    key,
                    data.get("status"),
                    json.dumps(data, sort_keys=True),
                    _utc_now(),
                ),
            )

    def finish_run(self, run_id: int, *, wall_s: Optional[float] = None) -> None:
        """Close a run row; status counts come from its own appended cells."""

        with self._tx() as conn:
            counts = dict(
                conn.execute(
                    "SELECT status, COUNT(*) FROM ("
                    "  SELECT cell_key, status, MAX(seq) FROM run_cells "
                    "  WHERE run_id = ? GROUP BY cell_key"
                    ") GROUP BY status ORDER BY status",
                    (run_id,),
                ).fetchall()
            )
            conn.execute(
                "UPDATE runs SET finished_at = ?, wall_s = ?, "
                "status_counts = ? WHERE id = ?",
                (_utc_now(), wall_s, json.dumps(counts, sort_keys=True), run_id),
            )

    def run_results(self, run_id: int) -> Dict[str, Dict[str, object]]:
        """Recorded results by cell key (the last append per key wins)."""

        with self._lock:
            rows = self._conn.execute(
                "SELECT cell_key, result FROM run_cells WHERE run_id = ? "
                "ORDER BY seq",
                (run_id,),
            ).fetchall()
        out: Dict[str, Dict[str, object]] = {}
        for key, payload in rows:
            out[key] = json.loads(payload)
        return out

    def latest_run(self, plan: str) -> Optional[Dict[str, object]]:
        """The newest run recorded for plan fingerprint ``plan``, or None."""

        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE plan = ? ORDER BY id DESC LIMIT 1",
                (plan,),
            ).fetchone()
        return None if row is None else dict(row)

    def list_runs(self, *, limit: Optional[int] = None) -> List[Dict[str, object]]:
        sql = (
            "SELECT r.*, COUNT(rc.cell_key) AS appended FROM runs r "
            "LEFT JOIN run_cells rc ON rc.run_id = r.id "
            "GROUP BY r.id ORDER BY r.id DESC"
        )
        params: List[object] = []
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        with self._lock:
            return [dict(r) for r in self._conn.execute(sql, params).fetchall()]

    # -- maintenance -----------------------------------------------------
    def counts(self) -> Dict[str, int]:
        out = {}
        with self._lock:
            for table in ("cells", "metrics", "runs", "run_cells",
                          "code_versions"):
                out[table] = self._conn.execute(
                    f"SELECT COUNT(*) FROM {table}"
                ).fetchone()[0]
        return out

    def code_versions(self) -> List[Dict[str, object]]:
        """Known code versions, newest first, with their cell counts."""

        with self._lock:
            rows = self._conn.execute(
                "SELECT v.version, v.first_seen, COUNT(c.id) AS cells "
                "FROM code_versions v LEFT JOIN cells c ON c.code = v.version "
                "GROUP BY v.version "
                "ORDER BY v.first_seen DESC, v.version DESC"
            ).fetchall()
        return [dict(r) for r in rows]


class _Transaction:
    """``BEGIN IMMEDIATE`` ... ``COMMIT``/``ROLLBACK``, under the store lock."""

    def __init__(self, conn: sqlite3.Connection, lock: threading.RLock) -> None:
        self._conn = conn
        self._lock = lock

    def __enter__(self) -> sqlite3.Connection:
        self._lock.acquire()
        try:
            self._conn.execute("BEGIN IMMEDIATE")
        except BaseException:
            self._lock.release()
            raise
        return self._conn

    def __exit__(self, exc_type, *exc) -> None:
        try:
            if exc_type is None:
                self._conn.execute("COMMIT")
            else:
                self._conn.execute("ROLLBACK")
        finally:
            self._lock.release()


class RunRecorder:
    """The run record: one ``runs`` row plus one append per finished cell.

    :func:`repro.eval.execute` opens it before the first cell, appends
    every cell the moment it lands (cache hits included, so a resume sees
    them), and finishes it in its ``finally`` -- so a crashed run leaves a
    run row whose ``run_cells`` are exactly the durably finished cells.
    ``run_id`` continues an existing run (a resume) instead of opening a
    new row.  The recorder owns ``store`` and closes it in :meth:`finish`.
    """

    def __init__(
        self,
        store: ExperimentStore,
        meta: Dict[str, object],
        *,
        executor: Optional[str] = None,
        jobs: Optional[int] = None,
        run_id: Optional[int] = None,
    ) -> None:
        self.store = store
        if run_id is None:
            run_id = store.begin_run(meta, executor=executor, jobs=jobs)
        self.run_id = run_id
        self._wall_t0 = time.monotonic()
        self._finished = False

    def append(self, key: str, result) -> None:
        self.store.append_run_cell(self.run_id, key, result)

    def finish(self) -> None:
        """Close the run row (idempotent; safe in ``finally`` blocks)."""

        if self._finished:
            return
        self._finished = True
        wall = time.monotonic() - self._wall_t0
        try:
            self.store.finish_run(self.run_id, wall_s=round(wall, 3))
        finally:
            self.store.close()
