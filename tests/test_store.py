"""Tests for the SQLite experiment store (repro.store).

The store is the one place results persist: ``ResultCache`` rows and run
records (``execute(..., store=DB)``) both go through it.  These tests hold
each view to its contract -- same keys, same bytes, one row per key -- plus
the store-only surfaces (queries, CLI) and files written by earlier
versions.
"""

import json
import re
import sqlite3

import pytest

from repro.eval import (
    CompilationResult,
    ResultCache,
    adhoc_plan,
    execute,
)
from repro.eval.cache import cell_key
from repro.eval.executors import run_specs
from repro.eval.parallel import CellSpec
from repro.store import (
    ExperimentStore,
    comparable_result,
    identity_columns,
    result_fingerprint,
)
from repro.store.__main__ import main as store_cli


def _result(depth=40, swaps=22, wall=0.1, **extra):
    return CompilationResult(
        "sabre", "Grid 3*3", 9, depth=depth, swap_count=swaps,
        compile_time_s=wall, verified=True, extra={"mapper": "sabre", **extra},
    )


class TestIdentityColumns:
    def test_engine_kwargs_filtered_out_of_columns(self):
        plain = identity_columns("sabre", "grid", 3, (("seed", 1),))
        forked = identity_columns(
            "sabre", "grid", 3, (("seed", 1), ("kernel", "python"))
        )
        assert plain == forked
        assert "seed" in plain["kwargs"] and "kernel" not in forked["kwargs"]

    def test_real_options_do_land_in_columns(self):
        a = identity_columns("sabre", "grid", 3, (("seed", 1),))
        b = identity_columns("sabre", "grid", 3, (("seed", 2),))
        assert a != b


class TestFingerprint:
    def test_volatile_fields_never_fork_the_fingerprint(self):
        a = _result(wall=0.1, kernel="c").to_dict()
        b = _result(wall=9.9, kernel="python").to_dict()
        assert result_fingerprint(a) == result_fingerprint(b)
        assert comparable_result(a) == comparable_result(b)

    def test_metric_fields_do_fork_it(self):
        assert result_fingerprint(_result(depth=40).to_dict()) != result_fingerprint(
            _result(depth=41).to_dict()
        )


class TestStoreCore:
    def test_put_get_roundtrip_is_bit_equal(self, tmp_path):
        store = ExperimentStore(tmp_path / "s.db")
        res = _result()
        store.put_cell("a" * 24, res, code="v1")
        assert store.get_cell("a" * 24) == res.to_dict()
        assert store.get_cell("b" * 24) is None
        store.close()

    def test_put_overwrites_and_refreshes_metrics(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            store.put_cell("a" * 24, _result(depth=40))
            store.put_cell("a" * 24, _result(depth=41))
            assert store.get_cell("a" * 24)["depth"] == 41
            assert store.counts()["cells"] == 1
            rows = store._conn.execute(
                "SELECT value FROM metrics WHERE name = 'depth'"
            ).fetchall()
            assert [r[0] for r in rows] == [41.0]

    def test_query_cells_by_spec_columns(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            for i, approach in enumerate(("sabre", "ours")):
                store.put_cell(
                    f"{i}" * 24,
                    _result(),
                    identity=identity_columns(approach, "grid", 3),
                )
            rows = store.query_cells(approach="sabre")
            assert len(rows) == 1
            assert rows[0]["approach"] == "sabre"
            assert rows[0]["depth"] == 40  # metric lifted from the result JSON
            assert store.query_cells(min_qubits=10) == []

    def test_limit_caps_every_listing(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            for i in range(3):
                store.put_cell(
                    f"{i}" * 24,
                    _result(),
                    identity=identity_columns("sabre", "grid", 3 + i),
                )
                store.finish_run(store.begin_run({"experiment": f"e{i}"}))
            assert [r["size"] for r in store.query_cells(limit=2)] == [3, 4]
            assert [r["experiment"] for r in store.list_runs(limit=2)] == [
                "e2", "e1",
            ]

    def test_raising_transaction_rolls_back_and_releases_the_lock(
        self, tmp_path
    ):
        path = tmp_path / "s.db"
        with ExperimentStore(path) as store:
            with pytest.raises(RuntimeError, match="boom"):
                with store._tx() as conn:
                    conn.execute(
                        "INSERT INTO code_versions (version, first_seen) "
                        "VALUES ('v1', 'now')"
                    )
                    raise RuntimeError("boom")
            assert store.code_versions() == []
            assert not store._conn.in_transaction
            _assert_write_lock_free(path)

    def test_schema_version_mismatch_refuses_to_open(self, tmp_path):
        path = tmp_path / "s.db"
        ExperimentStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="schema version"):
            ExperimentStore(path)
        _assert_write_lock_free(path)

    def test_file_with_a_leftover_bench_table_still_opens(self, tmp_path, capsys):
        """Stores written while the store kept bench history hold a
        ``bench`` table; the same schema version opens them and ignores it."""

        path = tmp_path / "old.db"
        with ExperimentStore(path) as store:
            store.put_cell(
                "a" * 24, _result(), code="v1",
                identity=identity_columns("sabre", "grid", 3),
            )
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "CREATE TABLE bench (id INTEGER PRIMARY KEY, suite TEXT, "
                "label TEXT, commit_hash TEXT, dirty INTEGER, timestamp TEXT, "
                "python TEXT, jobs INTEGER, total_wall_s REAL, source TEXT, "
                "imported_at TEXT NOT NULL)"
            )
            conn.execute(
                "INSERT INTO bench (suite, commit_hash, imported_at) "
                "VALUES ('smoke', 'c1', '2026-01-01T00:00:00+00:00')"
            )
        conn.close()
        with ExperimentStore(path) as store:
            assert store.get_cell("a" * 24) == _result().to_dict()
        assert store_cli(["info", str(path)]) == 0
        tables = re.findall(r"^\s*(\w+): \d+$", capsys.readouterr().out, re.M)
        assert tables == ["cells", "code_versions", "metrics", "run_cells", "runs"]
        with ExperimentStore(path) as store:
            # the leftover rows are never read and never touched
            assert store._conn.execute("SELECT COUNT(*) FROM bench").fetchone()[0] == 1


def _assert_write_lock_free(path):
    """A second connection can take the write lock at once (no waiting)."""

    other = sqlite3.connect(path, timeout=0, isolation_level=None)
    try:
        other.execute("BEGIN IMMEDIATE")
        other.execute("ROLLBACK")
    finally:
        other.close()


class TestStoreBackedCache:
    """ResultCache on a ``*.db`` path: the cache's contract."""

    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        key = cache.key("sabre", "grid", 3, (("seed", 1),))
        assert cache.get(key) is None
        cache.put(key, _result())
        got = cache.get(key)
        assert got is not None
        assert got.depth == 40 and got.swap_count == 22 and got.verified is True
        assert got.extra["cache"] == "hit"
        assert cache.stats() == {"hits": 1, "misses": 1}
        assert len(cache) == 1
        cache.close()

    def test_engine_kwargs_do_not_fork_key_or_columns(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        plain = cache.key("sabre", "grid", 3, (("seed", 1),))
        forked = cache.key(
            "sabre", "grid", 3, (("seed", 1), ("kernel", "python"))
        )
        assert plain == forked
        cache.put(plain, _result())
        rows = cache.store.query_cells(approach="sabre")
        assert "kernel" not in rows[0]["kwargs"]
        cache.close()

    def test_second_sweep_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        specs = [
            CellSpec.make("sabre", "grid", 2, seed=s, rename=f"sabre-seed{s}")
            for s in range(3)
        ]
        cold = run_specs(specs, cache=cache)
        assert cache.stats()["hits"] == 0
        warm = run_specs(specs, cache=cache)
        assert cache.stats()["hits"] == 3
        assert [r.depth for r in warm] == [r.depth for r in cold]
        assert all(r.extra.get("cache") == "hit" for r in warm)
        cache.close()

    def test_timeout_results_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        specs = [CellSpec.make("satmap", "sycamore", 4, timeout_s=0.01)]
        first = run_specs(specs, cache=cache)
        assert first[0].status == "timeout"
        assert len(cache) == 0
        run_specs(specs, cache=cache)
        assert cache.stats()["hits"] == 0
        cache.close()

    def test_version_change_invalidates(self, tmp_path):
        cache_v1 = ResultCache(tmp_path / "cache.db", version="v1")
        specs = [CellSpec.make("ours", "heavyhex", 2)]
        run_specs(specs, cache=cache_v1)
        cache_v1.close()
        cache_v2 = ResultCache(tmp_path / "cache.db", version="v2")
        run_specs(specs, cache=cache_v2)
        assert cache_v2.stats()["hits"] == 0
        assert len(cache_v2) == 2  # both versions stored side by side
        cache_v2.close()


class TestStoreSink:
    """Run records: a ``runs`` row plus one ``run_cells`` row per cell."""

    def _plan(self, n=3):
        return adhoc_plan(
            "mini", [CellSpec.make("sabre", "grid", 2, seed=s) for s in range(n)]
        )

    def test_store_run_is_bit_equal_to_the_report(self, tmp_path):
        p = self._plan()
        report = execute(p, jobs=2, store=str(tmp_path / "s.db"))
        assert report.store == str(tmp_path / "s.db")
        with ExperimentStore(tmp_path / "s.db") as store:
            runs = store.list_runs()
            assert len(runs) == 1
            assert runs[0]["executor"] == "pool"
            assert runs[0]["finished_at"] is not None
            assert json.loads(runs[0]["status_counts"]) == {"ok": 3}
            recorded = store.run_results(runs[0]["id"])
        assert recorded == {
            cell_key(spec): result.to_dict()
            for spec, result in zip(p.cells, report.results)
        }

    def test_store_only_run_records_without_a_journal(self, tmp_path):
        p = self._plan()
        report = execute(p, store=str(tmp_path / "s.db"))
        assert report.executor == "serial"
        with ExperimentStore(tmp_path / "s.db") as store:
            runs = store.list_runs()
            assert runs[0]["appended"] == 3
            results = store.run_results(runs[0]["id"])
            assert len(results) == 3
            assert all(r["status"] == "ok" for r in results.values())

    def test_resume_with_store_records_the_resumed_run(self, tmp_path):
        p = self._plan()
        db = tmp_path / "s.db"
        execute(p, store=str(db))
        conn = sqlite3.connect(str(db))
        with conn:  # the last cell's append never landed
            conn.execute("DELETE FROM run_cells WHERE seq = 2")
        conn.close()
        resumed = execute(p, store=str(db), resume=True)
        assert resumed.resumed == len(p.cells) - 1
        with ExperimentStore(db) as store:
            (run,) = store.list_runs()
            # the resumed run continued the same row: only the recomputed
            # cell was appended on top of the two recorded ones
            assert run["appended"] == len(p.cells)


class TestStoreCLI:
    """``python -m repro.store`` argv-level behaviour (in-process)."""

    def _seeded_db(self, tmp_path):
        db = tmp_path / "s.db"
        with ExperimentStore(db) as store:
            store.put_cell(
                "a" * 24, _result(), code="v1",
                identity=identity_columns("sabre", "grid", 3, (("seed", 1),)),
            )
        return db

    def test_query(self, tmp_path, capsys):
        db = self._seeded_db(tmp_path)
        assert store_cli(["query", str(db), "--approach", "sabre"]) == 0
        out = capsys.readouterr()
        assert "sabre" in out.out and "1 cell(s)" in out.err
        assert store_cli(["query", str(db), "--approach", "nope"]) == 0
        assert "(no rows)" in capsys.readouterr().out

    def test_query_json(self, tmp_path, capsys):
        db = self._seeded_db(tmp_path)
        assert store_cli(["query", str(db), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["approach"] == "sabre" and rows[0]["depth"] == 40

    def test_runs_lists_an_old_sharded_run_without_its_shard(self, tmp_path, capsys):
        """Files recorded by sharded sweeps hold a ``runs.shard`` value; they
        open under the same schema version, and the listing leaves it out."""

        db = tmp_path / "s.db"
        with ExperimentStore(db) as store:
            store.finish_run(store.begin_run({"experiment": "fig27"}))
            assert store.list_runs()[0]["shard"] is None  # no longer written
        conn = sqlite3.connect(db)
        with conn:
            conn.execute("UPDATE runs SET shard = '(0, 2)'")
        conn.close()
        assert store_cli(["runs", str(db)]) == 0
        out = capsys.readouterr().out
        assert "fig27" in out
        assert "shard" not in out and "(0, 2)" not in out


class TestExperimentsCLI:
    def test_store_flag_records_a_run(self, tmp_path, capsys):
        from repro.eval.experiments import main

        db = tmp_path / "s.db"
        rc = main(["-e", "fig27", "--profile", "quick", "--store", str(db)])
        assert rc == 0
        with ExperimentStore(db) as store:
            runs = store.list_runs()
            assert len(runs) == 1
            assert runs[0]["experiment"] == "fig27"
            assert runs[0]["appended"] > 0

    def test_store_requires_single_experiment(self, tmp_path):
        from repro.eval.experiments import main

        with pytest.raises(SystemExit):
            main(["-e", "fig27", "-e", "fig17", "--store", str(tmp_path / "s.db")])
