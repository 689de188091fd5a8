"""Tests for the SQLite experiment store (repro.store).

The store is the one place results persist: ``ResultCache`` rows, run
records (``execute(..., store=DB)``), bench history and the perf gate's
``--db`` baseline all go through it.  These tests hold each view to its
contract -- same keys, same bytes, conflict-checked merges -- plus the
store-only surfaces (queries, gc, CLI, legacy bench import).
"""

import json
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval import (
    CacheMergeConflict,
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

REPO_ROOT = Path(__file__).resolve().parents[1]


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

    def test_gc_drops_only_named_versions_and_keeps_history(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            store.put_cell("a" * 24, _result(), code="v1")
            store.put_cell("b" * 24, _result(), code="v2")
            run_id = store.begin_run({"experiment": "t"})
            store.finish_run(run_id)
            dry = store.gc(codes=("v1",), dry_run=True)
            assert dry == {
                "codes_dropped": ["v1"], "cells_deleted": 1, "dry_run": True,
            }
            assert store.counts()["cells"] == 2  # dry run touched nothing
            store.gc(codes=("v1",))
            assert store.counts()["cells"] == 1
            assert store.counts()["runs"] == 1  # history is never collected
            assert [v["version"] for v in store.code_versions()] == ["v2"]

    def test_schema_version_mismatch_refuses_to_open(self, tmp_path):
        path = tmp_path / "s.db"
        ExperimentStore(path).close()
        import sqlite3

        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="schema version"):
            ExperimentStore(path)


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


class TestStoreMerge:
    """The SQL-constraint form of cache merge (``.db`` sources only)."""

    def _shard(self, root, seeds, version="v1"):
        cache = ResultCache(root, version=version)
        run_specs(
            [CellSpec.make("sabre", "grid", 2, seed=s) for s in seeds],
            cache=cache,
        )
        return cache

    def test_store_to_store_merge(self, tmp_path):
        a = ResultCache(tmp_path / "a.db", version="v1")
        run_specs([CellSpec.make("sabre", "grid", 2, seed=0)], cache=a)
        a.close()
        b = ResultCache(tmp_path / "b.db", version="v1")
        assert b.merge(tmp_path / "a.db") == {
            "imported": 1, "skipped": 0, "invalid": 0,
        }
        # identity columns must survive the hop for indexed queries
        assert b.store.query_cells(approach="sabre", kind="grid", size=2)
        b.close()

    def test_merge_conflict_is_a_sql_constraint(self, tmp_path):
        """Divergent metrics under one key must raise from the UNIQUE
        constraint path, naming the differing field."""

        a = ResultCache(tmp_path / "a.db", version="v1")
        key = a.key("sabre", "grid", 2, ())
        a.put(key, CompilationResult("sabre", "Grid 2*2", 4, depth=9, swap_count=2))
        dest = ResultCache(tmp_path / "dest.db", version="v1")
        dest.merge(a.root)
        a.put(key, CompilationResult("sabre", "Grid 2*2", 4, depth=99, swap_count=2))
        with pytest.raises(CacheMergeConflict, match="depth"):
            dest.merge(a.root)
        dest.close()

    def test_merge_tolerates_wall_clock_and_kernel_differences(self, tmp_path):
        a = ResultCache(tmp_path / "a.db", version="v1")
        key = a.key("sabre", "grid", 2, ())
        a.put(key, CompilationResult(
            "sabre", "Grid 2*2", 4, depth=9, compile_time_s=0.5,
            extra={"kernel": "c"},
        ))
        dest = ResultCache(tmp_path / "dest.db", version="v1")
        dest.merge(a.root)
        a.put(key, CompilationResult(
            "sabre", "Grid 2*2", 4, depth=9, compile_time_s=1.5,
            extra={"kernel": "python"},
        ))
        stats = dest.merge(a.root)
        assert stats == {"imported": 0, "skipped": 1, "invalid": 0}
        dest.close()

    def test_merge_counts_and_ignores_corrupt_entries(self, tmp_path):
        a = self._shard(tmp_path / "a.db", (0, 1))
        a.put("0" * 24, CompilationResult("sabre", "Grid 2*2", 4))
        conn = sqlite3.connect(str(a.root))
        with conn:
            conn.execute(
                "UPDATE cells SET result = '{broken' WHERE cell_key = ?", ("0" * 24,)
            )
        conn.close()
        dest = ResultCache(tmp_path / "dest.db", version="v1")
        stats = dest.merge(a.root)
        assert stats["imported"] == 2 and stats["invalid"] == 1
        dest.close()

    def test_merge_missing_source_raises(self, tmp_path):
        dest = ResultCache(tmp_path / "dest.db")
        with pytest.raises(FileNotFoundError):
            dest.merge(tmp_path / "nope")
        with pytest.raises(FileNotFoundError):
            dest.merge(tmp_path / "nope.db")
        dest.close()


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


class TestImportLegacy:
    def test_committed_bench_snapshots_roundtrip(self, tmp_path):
        from repro.store import legacy

        snapshots = legacy.default_bench_snapshots(REPO_ROOT)
        assert len(snapshots) >= 3  # the repo commits its perf trajectory
        with ExperimentStore(tmp_path / "s.db") as store:
            for path in snapshots:
                info = legacy.import_bench_file(store, path)
                payload = json.loads(Path(path).read_text(encoding="utf-8"))
                stored = store.bench_payload(info["bench_id"])
                assert stored["commit"] == payload.get("commit")
                # group order and per-cell records are bit-equal (group-level
                # run reports are JSON-file detail the gate never reads)
                assert [g["name"] for g in stored["groups"]] == [
                    g["name"] for g in payload["groups"]
                ]
                for got, src in zip(stored["groups"], payload["groups"]):
                    assert got["cells"] == src["cells"]

    def test_latest_baseline_prefers_newest_timestamp(self, tmp_path):
        base = {"suite": "smoke", "commit": "c1", "groups": []}
        with ExperimentStore(tmp_path / "s.db") as store:
            store.record_bench({**base, "timestamp": "2026-01-01T00:00:00+00:00"})
            store.record_bench(
                {**base, "commit": "c2", "timestamp": "2026-02-01T00:00:00+00:00"}
            )
            assert store.latest_baseline("smoke")["commit"] == "c2"
            assert store.latest_baseline("smoke", commit="c1")["commit"] == "c1"
            assert store.latest_baseline("full") is None


class TestStoreCLI:
    """``python -m repro.store`` argv-level behaviour (in-process)."""

    def _seeded_db(self, tmp_path):
        db = tmp_path / "s.db"
        with ExperimentStore(db) as store:
            store.put_cell(
                "a" * 24, _result(), code="v1",
                identity=identity_columns("sabre", "grid", 3, (("seed", 1),)),
            )
            store.record_bench(
                {
                    "suite": "smoke",
                    "commit": "c1",
                    "timestamp": "2026-01-01T00:00:00+00:00",
                    "groups": [
                        {
                            "name": "g",
                            "cells": [
                                {
                                    "workload": "qft", "approach": "sabre",
                                    "kind": "grid", "size": 3, "status": "ok",
                                    "compile_time_s": 0.25,
                                }
                            ],
                        }
                    ],
                }
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

    def test_history(self, tmp_path, capsys):
        db = self._seeded_db(tmp_path)
        assert store_cli(["history", str(db), "--suite", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "0.250" in out and "c1" in out

    def test_info_and_gc(self, tmp_path, capsys):
        db = self._seeded_db(tmp_path)
        assert store_cli(["info", str(db)]) == 0
        out = capsys.readouterr().out
        assert "cells: 1" in out.replace("  ", " ").replace("  ", " ")
        assert store_cli(["gc", str(db), "--code", "v1", "--dry-run"]) == 0
        assert "would drop 1 cell(s)" in capsys.readouterr().out
        assert store_cli(["gc", str(db), "--code", "v1"]) == 0
        assert "dropped 1 cell(s)" in capsys.readouterr().out
        assert store_cli(["query", str(db)]) == 0
        assert "(no rows)" in capsys.readouterr().out

    def test_import_legacy_requires_a_source(self, tmp_path):
        with pytest.raises(SystemExit):
            store_cli(["import-legacy", str(tmp_path / "s.db")])

    def test_gc_requires_a_policy(self, tmp_path):
        with pytest.raises(SystemExit):
            store_cli(["gc", str(tmp_path / "s.db")])

    def test_import_legacy_bench(self, tmp_path, capsys):
        db = tmp_path / "s.db"
        rc = store_cli(
            [
                "import-legacy", str(db),
                "--bench", str(REPO_ROOT / "BENCH_baseline_smoke.json"),
            ]
        )
        assert rc == 0
        assert "suite smoke" in capsys.readouterr().out
        with ExperimentStore(db) as store:
            assert store.latest_baseline("smoke") is not None


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


class TestPerfGateDb:
    """scripts/perf_gate.py --db: store-queried baseline with JSON fallback."""

    def _gate(self, *argv):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "perf_gate.py"), *argv],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )

    def _current(self, tmp_path, wall=0.1):
        payload = {
            "suite": "smoke",
            "commit": "cur",
            "timestamp": "2026-02-01T00:00:00+00:00",
            "groups": [
                {
                    "name": "g",
                    "cells": [
                        {
                            "workload": "qft", "approach": "sabre",
                            "kind": "grid", "size": 3, "status": "ok",
                            "compile_time_s": wall,
                        }
                    ],
                }
            ],
        }
        path = tmp_path / "cur.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def _db_with_baseline(self, tmp_path, wall=0.1):
        db = tmp_path / "s.db"
        with ExperimentStore(db) as store:
            store.record_bench(
                {
                    "suite": "smoke",
                    "commit": "base",
                    "timestamp": "2026-01-01T00:00:00+00:00",
                    "groups": [
                        {
                            "name": "g",
                            "cells": [
                                {
                                    "workload": "qft", "approach": "sabre",
                                    "kind": "grid", "size": 3, "status": "ok",
                                    "compile_time_s": wall,
                                }
                            ],
                        }
                    ],
                },
                source="seed",
            )
        return db

    def test_gate_passes_against_store_baseline(self, tmp_path):
        cur = self._current(tmp_path, wall=0.1)
        db = self._db_with_baseline(tmp_path, wall=0.1)
        proc = self._gate(str(cur), "--db", str(db))
        assert proc.returncode == 0, proc.stderr
        assert "store s.db" in proc.stdout and "commit base" in proc.stdout

    def test_gate_fails_on_regression_from_store_baseline(self, tmp_path):
        cur = self._current(tmp_path, wall=10.0)
        db = self._db_with_baseline(tmp_path, wall=0.1)
        proc = self._gate(str(cur), "--db", str(db))
        assert proc.returncode == 1
        assert "qft/sabre on grid-3" in proc.stderr

    def test_missing_store_falls_back_to_json_baseline(self, tmp_path):
        cur = self._current(tmp_path, wall=0.1)
        base = self._current(tmp_path, wall=0.1).rename(tmp_path / "base.json")
        cur = self._current(tmp_path, wall=0.1)
        proc = self._gate(
            str(cur), "--db", str(tmp_path / "missing.db"),
            "--baseline", str(base),
        )
        # The fallback is visible, then the gate runs against the JSON file.
        assert "falling back to base.json" in proc.stdout
        assert proc.returncode == 0, proc.stderr
        assert "baseline source: committed JSON base.json" in proc.stdout
        assert "of committed JSON base.json" in proc.stdout

    def test_baseline_source_named_on_every_path(self, tmp_path):
        # store hit, JSON fallback and FAIL verdict all name their source
        db = self._db_with_baseline(tmp_path, wall=0.1)
        hit = self._gate(str(self._current(tmp_path, wall=0.1)), "--db", str(db))
        assert "baseline source: store s.db (commit base" in hit.stdout
        fail = self._gate(str(self._current(tmp_path, wall=10.0)), "--db", str(db))
        assert fail.returncode == 1
        assert "baseline source: store s.db" in fail.stdout
        assert "of store s.db" in fail.stderr  # the verdict names it too

    def test_bench_store_flag_records_history(self, tmp_path):
        from repro.store import legacy

        db = tmp_path / "s.db"
        with ExperimentStore(db) as store:
            legacy.import_bench_file(
                store, REPO_ROOT / "BENCH_baseline_smoke.json"
            )
            assert store.counts()["bench"] == 1
