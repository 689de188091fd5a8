"""Concurrency and durability drills for the SQLite experiment store.

Two properties carry over from the formats the store replaces:

* **Concurrent writers are safe** (the directory cache got this from
  atomic renames; the store gets it from WAL + ``BEGIN IMMEDIATE``): N
  processes hammering one database must lose nothing, leave one row per
  key however many of them write it, and never block a concurrent reader.
* **A crash mid-write loses at most the uncommitted tail** (the JSONL
  journal got this from fsync-per-append + torn-tail repair; the store
  gets it from ``synchronous=FULL`` WAL commits).  The drill mirrors
  ``test_journal_durability.py``: tear the WAL at swept byte offsets and
  hold recovery to "exactly a committed prefix, still appendable".
"""

import json
import multiprocessing

from repro.eval import CompilationResult
from repro.store import ExperimentStore, identity_columns

WRITERS = 4
CELLS_PER_WRITER = 12

#: every writer also puts this key, each with its own depth: the upsert
#: must leave one row, written whole by one of them
SHARED_KEY = "beef" * 6


def _result(depth=40, **kwargs):
    return CompilationResult(
        "sabre", "Grid 3*3", 9, depth=depth, swap_count=22,
        compile_time_s=0.1, verified=True, **kwargs,
    )


def _writer(args):
    """One writer process: distinct puts + a contended put on a shared DB."""

    path, writer_id = args
    with ExperimentStore(path) as store:
        for i in range(CELLS_PER_WRITER):
            key = f"{writer_id:04x}{i:020x}"
            store.put_cell(
                key,
                _result(depth=100 * writer_id + i),
                code="v1",
                identity=identity_columns("sabre", "grid", 3, (("seed", i),)),
            )
        store.put_cell(SHARED_KEY, _result(depth=writer_id), code="v1")
    return writer_id


def _assert_all_landed(db):
    """Every writer's every cell, plus one row for the shared key."""

    with ExperimentStore(db) as store:
        assert store.counts()["cells"] == CELLS_PER_WRITER * WRITERS + 1
        for wid in range(WRITERS):
            for i in range(CELLS_PER_WRITER):
                cell = store.get_cell(f"{wid:04x}{i:020x}")
                assert cell is not None and cell["depth"] == 100 * wid + i
        rows = store._conn.execute(
            "SELECT c.result, m.value FROM cells c JOIN metrics m "
            "ON m.cell_id = c.id AND m.name = 'depth' WHERE c.cell_key = ?",
            (SHARED_KEY,),
        ).fetchall()
    # one row, its metrics refreshed with it: both say the same writer's depth
    assert len(rows) == 1
    depth = json.loads(rows[0][0])["depth"]
    assert depth in range(WRITERS) and rows[0][1] == depth


class TestMultiprocessStress:
    def test_n_writers_and_a_live_reader_under_wal(self, tmp_path):
        db = tmp_path / "s.db"
        ExperimentStore(db).close()  # create before forking (no create race)
        with multiprocessing.Pool(WRITERS) as pool:
            async_result = pool.map_async(
                _writer, [(str(db), wid) for wid in range(WRITERS)]
            )
            # Live reader: WAL must serve consistent snapshots while the
            # writers commit; observed cell counts only ever grow.
            observed = []
            with ExperimentStore(db) as reader:
                while not async_result.ready():
                    observed.append(reader.counts()["cells"])
                    async_result.wait(0.005)
            finished = async_result.get(60.0)  # re-raises a writer's exception
        assert observed == sorted(observed)
        assert sorted(finished) == list(range(WRITERS))
        _assert_all_landed(db)

    def test_concurrent_fresh_creation_is_race_free(self, tmp_path):
        # No pre-created DB: every process races through schema creation.
        db = tmp_path / "fresh.db"
        with multiprocessing.Pool(WRITERS) as pool:
            finished = pool.map(
                _writer, [(str(db), wid) for wid in range(WRITERS)]
            )
        assert sorted(finished) == list(range(WRITERS))
        _assert_all_landed(db)


class TestTornWal:
    """Crash-consistency sweep: the WAL torn at arbitrary byte offsets."""

    def _filled_store_bytes(self, root, n=8):
        """(db bytes, wal bytes, keys) captured mid-flight, before close.

        ``close()`` checkpoints the WAL into the main file; a crash does
        not.  Copying the file bytes while the writer is still open is
        exactly the on-disk state a power cut would leave.
        """

        root.mkdir()
        db = root / "s.db"
        keys = [f"{i:024x}" for i in range(n)]
        store = ExperimentStore(db, page_size=512)
        for i, key in enumerate(keys):
            store.put_cell(key, _result(depth=i), code="v1")
        db_bytes = db.read_bytes()
        wal_bytes = (root / "s.db-wal").read_bytes()
        store.close()
        return db_bytes, wal_bytes, keys

    def test_torn_wal_recovers_exactly_a_committed_prefix(self, tmp_path):
        """Property: for every tear offset, recovery yields an intact,
        appendable store holding a prefix of the committed cells.

        Commits are sequential in the WAL, so SQLite's recovery (replay
        valid frames up to the last complete commit record) must surface
        a prefix -- never a cell with a torn result, never cell k+1
        without cell k, and more surviving bytes never mean fewer cells.
        """

        db_bytes, wal_bytes, keys = self._filled_store_bytes(
            tmp_path / "master"
        )
        assert len(wal_bytes) > 4096  # the sweep has real frames to tear

        recovered = []
        # Stride keeps the sweep seconds-scale while still cutting inside
        # headers, mid-frame, and on frame boundaries (frame = 24 + 512).
        cuts = sorted(set(range(0, len(wal_bytes), 97)) | {len(wal_bytes)})
        for cut in cuts:
            root = tmp_path / f"cut{cut}"
            root.mkdir()
            (root / "s.db").write_bytes(db_bytes)
            (root / "s.db-wal").write_bytes(wal_bytes[:cut])
            with ExperimentStore(root / "s.db") as crashed:
                check = crashed._conn.execute(
                    "PRAGMA integrity_check"
                ).fetchone()[0]
                assert check == "ok", f"cut at byte {cut}"
                present = [k for k in keys if crashed.get_cell(k) is not None]
                assert present == keys[: len(present)], f"cut at byte {cut}"
                # still appendable after recovery
                crashed.put_cell("f" * 24, _result(depth=999))
                assert crashed.get_cell("f" * 24)["depth"] == 999
            recovered.append(len(present))

        assert recovered == sorted(recovered)  # monotone in surviving bytes
        assert recovered[0] == 0  # empty WAL: only the (re-created) schema
        assert recovered[-1] == len(keys)  # untruncated WAL replays fully

    def test_torn_wal_mid_run_resume_equivalent(self, tmp_path):
        """End-to-end flavor: tear the WAL, reopen, re-put the lost cells;
        the store converges to the uninterrupted state (the journal's
        resume contract, in store form)."""

        db_bytes, wal_bytes, keys = self._filled_store_bytes(
            tmp_path / "master", n=6
        )
        root = tmp_path / "crashed"
        root.mkdir()
        (root / "s.db").write_bytes(db_bytes)
        (root / "s.db-wal").write_bytes(wal_bytes[: len(wal_bytes) // 2])
        with ExperimentStore(root / "s.db") as store:
            survivors = [k for k in keys if store.get_cell(k) is not None]
            for i, key in enumerate(keys):
                store.put_cell(key, _result(depth=i), code="v1")
            final = {k: store.get_cell(k) for k in keys}
        assert len(survivors) < len(keys)
        assert [final[k]["depth"] for k in keys] == list(range(len(keys)))

    def test_torn_shm_is_ignored(self, tmp_path):
        # The -shm file is rebuilt on open; garbage there must not matter.
        db_bytes, wal_bytes, keys = self._filled_store_bytes(
            tmp_path / "master", n=3
        )
        root = tmp_path / "crashed"
        root.mkdir()
        (root / "s.db").write_bytes(db_bytes)
        (root / "s.db-wal").write_bytes(wal_bytes)
        (root / "s.db-shm").write_bytes(b"@@@ garbage @@@")
        with ExperimentStore(root / "s.db") as store:
            assert all(store.get_cell(k) is not None for k in keys)
