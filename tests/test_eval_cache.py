"""Tests for the store-backed result cache (repro.eval.cache)."""

import json
import sqlite3

import pytest

from repro.eval import CompilationResult, ResultCache, code_version
from repro.eval.executors import run_specs
from repro.eval.parallel import CellSpec


def _spec_key(cache, spec):
    return cache.key(
        spec.approach, spec.kind, spec.size, spec.kwargs, spec.rename, spec.timeout_s
    )


def _set_result_column(db, key, payload):
    conn = sqlite3.connect(str(db))
    with conn:
        conn.execute("UPDATE cells SET result = ? WHERE cell_key = ?", (payload, key))
    conn.close()


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        key = cache.key("sabre", "grid", 3, (("seed", 1),))
        assert cache.get(key) is None
        res = CompilationResult(
            "sabre", "Grid 3*3", 9, depth=40, swap_count=22, compile_time_s=0.1,
            verified=True, extra={"mapper": "sabre", "seed": 1},
        )
        cache.put(key, res)
        got = cache.get(key)
        assert got is not None
        assert got.depth == 40 and got.swap_count == 22 and got.verified is True
        assert got.extra["cache"] == "hit"
        assert cache.stats() == {"hits": 1, "misses": 1}
        assert len(cache) == 1

    def test_key_depends_on_every_spec_component_and_code_version(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        base = cache.key("sabre", "grid", 3, (("seed", 0),))
        assert cache.key("ours", "grid", 3, (("seed", 0),)) != base
        assert cache.key("sabre", "lattice", 3, (("seed", 0),)) != base
        assert cache.key("sabre", "grid", 4, (("seed", 0),)) != base
        assert cache.key("sabre", "grid", 3, (("seed", 1),)) != base
        other_code = ResultCache(tmp_path / "cache.db", version="deadbeef")
        assert other_code.key("sabre", "grid", 3, (("seed", 0),)) != base

    def test_default_version_is_source_hash(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        assert cache.version == code_version()
        assert len(cache.version) == 12

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        key = cache.key("sabre", "grid", 2, ())
        cache.put(key, CompilationResult("sabre", "Grid 2*2", 4))
        _set_result_column(tmp_path / "cache.db", key, "{not json")
        assert cache.get(key) is None

    def test_stored_file_is_plain_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        key = cache.key("ours", "heavyhex", 2, ())
        cache.put(key, CompilationResult("ours", "Heavy-hex 2*5", 10, depth=33))
        conn = sqlite3.connect(str(tmp_path / "cache.db"))
        (payload,) = conn.execute(
            "SELECT result FROM cells WHERE cell_key = ?", (key,)
        ).fetchone()
        conn.close()
        data = json.loads(payload)
        assert data["approach"] == "ours" and data["depth"] == 33

    def test_directory_cache_path_is_refused(self, tmp_path):
        (tmp_path / "old-cache").mkdir()
        with pytest.raises(IsADirectoryError, match="directory result caches"):
            ResultCache(tmp_path / "old-cache")

    def test_cache_keeps_no_per_key_state(self, tmp_path):
        """Keys carry their own identity columns; the cache itself must not
        grow with the number of distinct cells it has keyed (a long-running
        server keys every request, hits and never-stored misses alike)."""

        cache = ResultCache(tmp_path / "cache.db")

        def containers():
            return {
                name: len(value)
                for name, value in vars(cache).items()
                if isinstance(value, (dict, list, set, tuple))
            }

        before = containers()
        for i in range(1000):
            key = cache.key("sabre", "grid", 3, (("seed", i),))
            if cache.get(key) is None and i % 3 == 0:  # some misses stay misses
                cache.put(key, CompilationResult("sabre", "Grid 3*3", 9, depth=i))
                assert cache.get(key).depth == i  # and some keys hit
        assert cache.stats() == {"hits": 334, "misses": 1000}
        assert containers() == before
        assert len(cache) == 334

    def test_key_columns_land_in_the_store(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        key = cache.key("sabre", "grid", 3, (("seed", 7),), workload="qaoa")
        cache.put(key, CompilationResult("sabre", "Grid 3*3", 9, depth=5))
        assert key.columns["approach"] == "sabre"  # the key carries them
        (row,) = cache.store.query_cells(approach="sabre", workload="qaoa")
        assert row["cell_key"] == key and row["size"] == 3
        assert json.loads(row["kwargs"]) == [["seed", "7"]]


class TestRunCellsWithCache:
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
        assert [r.approach for r in warm] == [f"sabre-seed{s}" for s in range(3)]
        assert all(r.extra.get("cache") == "hit" for r in warm)

    def test_rename_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        plain = CellSpec.make("sabre", "grid", 2, seed=0)
        renamed = CellSpec.make("sabre", "grid", 2, seed=0, rename="sabre-seed0")
        assert _spec_key(cache, plain) != _spec_key(cache, renamed)

    def test_timeout_results_are_not_cached(self, tmp_path):
        # a timeout depends on machine load, not on the spec -- caching it
        # would serve a one-off slow run forever
        cache = ResultCache(tmp_path / "cache.db")
        specs = [CellSpec.make("satmap", "sycamore", 4, timeout_s=0.01)]
        first = run_specs(specs, cache=cache)
        assert first[0].status == "timeout"
        assert len(cache) == 0
        run_specs(specs, cache=cache)
        assert cache.stats()["hits"] == 0  # recomputed, not served stale

    def test_version_change_invalidates(self, tmp_path):
        cache_v1 = ResultCache(tmp_path / "cache.db", version="v1")
        specs = [CellSpec.make("ours", "heavyhex", 2)]
        run_specs(specs, cache=cache_v1)
        cache_v2 = ResultCache(tmp_path / "cache.db", version="v2")
        run_specs(specs, cache=cache_v2)
        assert cache_v2.stats()["hits"] == 0
        assert len(cache_v2) == 2  # both versions stored side by side

    def test_timeout_budget_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        plain = CellSpec.make("satmap", "grid", 2)
        budgeted = CellSpec.make("satmap", "grid", 2, timeout_s=5.0)
        assert _spec_key(cache, plain) != _spec_key(cache, budgeted)
