"""Durability of the run record: what a crash leaves, and what resume makes of it.

A recorded run (``execute(..., store=DB)``) commits one store transaction
per finished cell into the ``runs``/``run_cells`` tables -- the store's run
journal -- under ``synchronous=FULL`` in WAL mode.  The contract is "the
committed appends are exactly the finished cells, and ``resume=True``
serves them".  These tests hold serial and pooled runs to it (identical
records for identical plans, a run cut after k cells resuming bit-equal
with ``resumed == k``, cache hits recorded), tear the WAL of a recorded run
at swept byte offsets, and refuse damage that a torn write cannot produce.
"""

import sqlite3
import struct

import pytest

from repro.eval import CellSpec, adhoc_plan, chaos, execute
from repro.eval.cache import ResultCache
from repro.eval.metrics import CompilationResult
from repro.store import ExperimentStore, RunRecorder, comparable_result

#: jobs=1 runs the cells in order in-process, jobs=2 on the worker pool;
#: the ids are the executor label each run records
JOBS = [pytest.param(1, id="serial"), pytest.param(2, id="pool")]

#: small pages so one recorded cell spans several WAL frames
PAGE = 512
WAL_HEADER = 32
FRAME = 24 + PAGE


def _plan(n=4):
    return adhoc_plan(
        "durable", [CellSpec.make("sabre", "grid", 2, seed=s) for s in range(n)]
    )


def _metrics(results):
    return [
        (r.approach, r.architecture, r.status, r.depth, r.swap_count, r.verified)
        for r in results
    ]


def _record(db):
    """(newest run row, its deterministic results by cell key)."""

    with ExperimentStore(db) as store:
        run = store.list_runs()[0]
        results = store.run_results(run["id"])
    return run, {key: comparable_result(data) for key, data in results.items()}


def _sql(db, statement, *params):
    conn = sqlite3.connect(str(db))
    with conn:
        conn.execute(statement, params)
    conn.close()


def _cut(db, k):
    """What a crash after k recorded cells leaves: k appends, run unfinished."""

    _sql(db, "DELETE FROM run_cells WHERE seq >= ?", k)
    _sql(db, "UPDATE runs SET finished_at = NULL, wall_s = NULL, status_counts = NULL")


@pytest.mark.parametrize("jobs", JOBS)
class TestEveryExecutor:
    def test_same_plan_yields_identical_records(self, tmp_path, jobs):
        p = _plan()
        for name in ("a", "b"):
            execute(p, jobs=jobs, store=str(tmp_path / f"{name}.db"))
        execute(p, store=str(tmp_path / "serial.db"))
        (run, a), (_, b) = _record(tmp_path / "a.db"), _record(tmp_path / "b.db")
        assert a == b == _record(tmp_path / "serial.db")[1]
        assert len(a) == len(p.cells)
        # the run row names what ran: the pool exactly when jobs > 1
        label = "pool" if jobs > 1 else "serial"
        assert (run["executor"], run["jobs"]) == (label, jobs)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_run_cut_after_k_cells_resumes_bit_equal(self, tmp_path, jobs, k):
        p = _plan()
        db = tmp_path / "s.db"
        clean = execute(p, jobs=jobs, store=str(db))
        _, full = _record(db)
        _cut(db, k)
        resumed = execute(p, jobs=jobs, store=str(db), resume=True)
        assert resumed.resumed == k
        assert _metrics(resumed.results) == _metrics(clean.results)
        run, record = _record(db)
        assert record == full and run["appended"] == len(p.cells)
        assert run["finished_at"] is not None

    def test_cache_hits_are_recorded(self, tmp_path, jobs):
        p = _plan()
        db = tmp_path / "s.db"
        cache = ResultCache(tmp_path / "cache.db")
        execute(p, jobs=jobs, cache=cache)  # warm, unrecorded
        warm = execute(p, jobs=jobs, cache=cache, store=str(db))
        assert warm.cache_stats["hits"] == len(p.cells)
        run, _ = _record(db)
        assert run["appended"] == len(p.cells)
        resumed = execute(p, jobs=jobs, store=str(db), resume=True)
        assert resumed.resumed == len(p.cells)
        assert _metrics(resumed.results) == _metrics(warm.results)


def _commit_ends(wal: bytes):
    """Byte offsets just past each commit frame of a WAL image."""

    ends = []
    for start in range(WAL_HEADER, len(wal) - FRAME + 1, FRAME):
        (db_pages,) = struct.unpack(">I", wal[start + 4 : start + 8])
        if db_pages:  # nonzero "database size" marks a commit frame
            ends.append(start + FRAME)
    return ends


class TestTornTail:
    """A recorded run's WAL torn at arbitrary byte offsets (a crash mid-write)."""

    N = 4

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        """(db bytes, wal bytes, WAL size before the run, clean results)

        captured before any checkpoint: a second connection held open keeps
        the recorder's close from folding the WAL into the main file, so the
        bytes are exactly the on-disk state a power cut would leave.
        """

        root = tmp_path_factory.mktemp("recorded")
        db = root / "s.db"
        holder = ExperimentStore(db, page_size=PAGE)
        try:
            schema_end = len((root / "s.db-wal").read_bytes())
            clean = execute(_plan(self.N), store=str(db))
            db_bytes = db.read_bytes()
            wal_bytes = (root / "s.db-wal").read_bytes()
        finally:
            holder.close()
        return db_bytes, wal_bytes, schema_end, clean

    @staticmethod
    def _torn_store(root, recorded, cut):
        db_bytes, wal_bytes, _, _ = recorded
        root.mkdir()
        (root / "s.db").write_bytes(db_bytes)
        (root / "s.db-wal").write_bytes(wal_bytes)
        chaos.tear_tail(root / "s.db-wal", cut)
        return str(root / "s.db")

    def _resume(self, root, recorded, cut):
        return execute(
            _plan(self.N), store=self._torn_store(root, recorded, cut), resume=True
        )

    def test_every_byte_offset_of_the_last_record(self, tmp_path, recorded):
        """Tear inside the last cell's append: that cell (only) re-runs."""

        _, wal_bytes, _, clean = recorded
        ends = _commit_ends(wal_bytes)
        # transactions: ..., last cell append, finish_run
        start, end = ends[-3], ends[-2]
        assert end - start >= FRAME
        for cut in list(range(start, end, 7)) + [end - 1]:
            report = self._resume(tmp_path / f"cut{cut}", recorded, cut)
            assert report.resumed == self.N - 1, f"cut at byte {cut}"
            assert _metrics(report.results) == _metrics(clean.results)
        report = self._resume(tmp_path / "whole", recorded, end)
        assert report.resumed == self.N

    def test_resume_after_tear_recovers_full_run(self, tmp_path, recorded):
        """Any tear past the run row: resume is bit-equal to the clean run,
        the recovered store is intact, and its record holds the full run."""

        _, wal_bytes, schema_end, clean = recorded
        run_end = next(e for e in _commit_ends(wal_bytes) if e > schema_end)
        served = []
        for cut in range(run_end, len(wal_bytes) + 1, 509):
            root = tmp_path / f"cut{cut}"
            report = self._resume(root, recorded, cut)
            assert _metrics(report.results) == _metrics(clean.results)
            served.append(report.resumed)
            with ExperimentStore(root / "s.db") as store:
                check = store._conn.execute("PRAGMA integrity_check").fetchone()[0]
                assert check == "ok", f"cut at byte {cut}"
                (run,) = store.list_runs()
                assert len(store.run_results(run["id"])) == self.N
        assert served == sorted(served)  # more surviving bytes, more served
        assert served[0] < self.N

    def test_torn_meta_only_journal_is_unresumable(self, tmp_path, recorded):
        """A tear before the run row committed leaves nothing to resume."""

        _, _, schema_end, _ = recorded
        for cut in (schema_end, schema_end + 1, schema_end + FRAME - 1):
            with pytest.raises(ValueError, match="no run of plan"):
                self._resume(tmp_path / f"cut{cut}", recorded, cut)

    def test_unterminated_but_complete_json_is_still_torn(self, tmp_path, recorded):
        """The last cell's append missing only the final byte of its commit
        frame is not committed: every payload byte is there, yet it re-runs."""

        _, wal_bytes, _, _ = recorded
        end = _commit_ends(wal_bytes)[-2]
        report = self._resume(tmp_path / "torn", recorded, end - 1)
        assert report.resumed == self.N - 1


class TestFsync:
    def test_default_syncs_every_append(self, tmp_path):
        """Every append is its own ``synchronous=FULL`` commit, visible to
        another connection the moment ``append`` returns."""

        db = tmp_path / "s.db"
        store = ExperimentStore(db)
        assert store._conn.execute("PRAGMA synchronous").fetchone()[0] == 2  # FULL
        recorder = RunRecorder(store, {"experiment": "t", "plan": "p", "code": "c"})
        reader = sqlite3.connect(str(db))
        for i in range(3):
            recorder.append(f"{i:024x}", CompilationResult("sabre", "grid 2", 4))
            (count,) = reader.execute("SELECT COUNT(*) FROM run_cells").fetchone()
            assert count == i + 1
        reader.close()
        recorder.finish()


class TestMidFileCorruption:
    """Damage a torn write cannot produce is refused, never skipped."""

    def _recorded(self, tmp_path):
        p = _plan(3)
        db = tmp_path / "s.db"
        execute(p, store=str(db))
        return p, db

    def test_cell_record_with_mangled_result_raises(self, tmp_path):
        p, db = self._recorded(tmp_path)
        _sql(db, "UPDATE run_cells SET result = ? WHERE seq = 1", '{"depth": 3}')
        with pytest.raises(ValueError, match="corrupt cell record"):
            execute(p, store=str(db), resume=True)

    def test_unparseable_line_mid_file_raises(self, tmp_path):
        p, db = self._recorded(tmp_path)
        _sql(db, "UPDATE run_cells SET result = ? WHERE seq = 1", "{not json")
        with pytest.raises(ValueError, match="corrupt cell record"):
            execute(p, store=str(db), resume=True)

    def test_empty_file_raises(self, tmp_path):
        db = tmp_path / "s.db"
        db.write_bytes(b"")
        with pytest.raises(ValueError, match="no run of plan"):
            execute(_plan(), store=str(db), resume=True)
