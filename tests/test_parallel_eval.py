"""Tests for the parallel evaluation engine (repro.eval.executors.run_specs)."""

import pytest

from repro.eval import ResultCache, adhoc_plan, execute, run_cell
from repro.eval.experiments import QUICK, specs_figure27, specs_table1
from repro.eval.executors import _topology_chunks, run_specs
from repro.eval.parallel import CellSpec
from repro.eval.runners import architecture_key, cached_topology


def _metrics(results):
    return [
        (r.approach, r.architecture, r.status, r.depth, r.swap_count, r.verified)
        for r in results
    ]


class TestRunSpecs:
    def test_order_matches_spec_order(self):
        specs = [
            CellSpec.make("ours", "heavyhex", 2),
            CellSpec.make("sabre", "grid", 2, seed=1),
            CellSpec.make("lnn", "lattice", 3),
        ]
        results = run_specs(specs)
        assert [r.approach for r in results] == ["ours", "sabre", "lnn"]
        assert all(r.ok for r in results)

    def test_jobs_do_not_change_results(self):
        specs = specs_figure27(seeds=(0, 1, 2, 3), m=3)
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        assert _metrics(serial) == _metrics(parallel)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_specs([], jobs=0)

    def test_parallel_with_cache_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        specs = specs_figure27(seeds=(0, 1, 2), m=2)
        cold = run_specs(specs, jobs=2, cache=cache)
        warm = run_specs(specs, jobs=2, cache=cache)
        assert _metrics(cold) == _metrics(warm)
        assert cache.stats()["hits"] == 3

    def test_error_cell_does_not_kill_the_sweep(self):
        # odd Sycamore size is invalid; the sweep must carry on
        specs = [
            CellSpec.make("ours", "sycamore", 2),
            CellSpec.make("ours", "sycamore", 9),
            CellSpec.make("ours", "sycamore", 4),
        ]
        results = run_specs(specs, jobs=2)
        assert [r.status for r in results] == ["ok", "error", "ok"]
        assert "even" in results[1].message


    def test_sabre_non_convergence_is_an_error_cell(self):
        # this random circuit's SABRE run passes the swap-loop bound
        cells = [
            CellSpec.make(
                "sabre",
                "lattice",
                6,
                workload="random",
                workload_params={"seed": 660703},
                seed=584279,
            ),
            CellSpec.make("sabre", "grid", 2, seed=1),
        ]
        report = execute(adhoc_plan("non-convergence", cells), jobs=2)
        assert [r.status for r in report.results] == ["error", "ok"]
        assert "did not converge" in report.results[0].message


class TestRunCellErrors:
    def test_architecture_error_is_a_result_not_a_traceback(self):
        res = run_cell("ours", "sycamore", 9)
        assert res.status == "error"
        assert not res.ok
        assert "even" in res.message
        assert res.architecture == "9*9 Sycamore"

    def test_unknown_approach_still_raises(self):
        with pytest.raises(ValueError):
            run_cell("magic", "grid", 3)

    def test_unknown_kind_still_raises(self):
        # a typo'd kind is a caller bug, not a per-cell failure
        with pytest.raises(ValueError, match="unknown architecture kind"):
            run_cell("ours", "hexheavy", 3)

    def test_typoed_kwarg_raises_instead_of_running_with_defaults(self):
        with pytest.raises(ValueError, match="sede"):
            run_cell("sabre", "grid", 2, sede=3)

    def test_error_message_reaches_the_rendered_table(self):
        from repro.eval import format_results

        text = format_results([run_cell("ours", "sycamore", 9)])
        assert "even number" in text


class TestTopologyGrouping:
    def test_grouped_results_identical_to_serial_ungrouped(self):
        # mixed topologies + a seed sweep sharing one topology
        specs = [
            CellSpec.make("ours", "heavyhex", 2),
            CellSpec.make("sabre", "grid", 3, seed=0),
            CellSpec.make("sabre", "grid", 3, seed=1),
            CellSpec.make("lnn", "lattice", 3),
            CellSpec.make("sabre", "grid", 3, seed=2),
            CellSpec.make("ours", "heavyhex", 3),
        ]
        serial = run_specs(specs, jobs=1)  # in-process, one cell at a time
        grouped = run_specs(specs, jobs=2)  # topology-grouped pool chunks
        assert _metrics(serial) == _metrics(grouped)

    def test_chunks_group_by_canonical_topology(self):
        specs = [
            CellSpec.make("ours", "heavyhex", 2),
            CellSpec.make("sabre", "heavy-hex", 2),  # synonym: same topology
            CellSpec.make("ours", "grid", 3),
        ]
        chunks = _topology_chunks(specs, [0, 1, 2], jobs=1)
        keyed = {tuple(c) for c in chunks}
        assert keyed == {(0, 1), (2,)}

    def test_chunks_split_single_topology_group_across_jobs(self):
        specs = [CellSpec.make("sabre", "grid", 2, seed=s) for s in range(5)]
        chunks = _topology_chunks(specs, list(range(5)), jobs=2)
        assert sorted(i for c in chunks for i in c) == list(range(5))
        assert len(chunks) == 2  # saturate the pool, not one worker
        assert {len(c) for c in chunks} == {2, 3}

    def test_architecture_key_normalises_synonyms(self):
        assert architecture_key("heavy-hex", 4) == architecture_key("heavyhex", 4)
        assert architecture_key("caterpillar", 4) == architecture_key("heavyhex", 4)
        assert architecture_key("ft", 5) == architecture_key("lattice", 5)
        assert architecture_key("grid", 3) != architecture_key("grid", 4)

    def test_cached_topology_returns_shared_instance(self):
        a = cached_topology("heavyhex", 2)
        b = cached_topology("heavy-hex", 2)
        assert a is b
        assert a.num_qubits == 10

    def test_cached_topology_returns_none_on_bad_architecture(self):
        assert cached_topology("sycamore", 9) is None  # odd size is invalid

    def test_injected_topology_used_by_run_cell(self):
        topo = cached_topology("grid", 3)
        res = run_cell("sabre", "grid", 3, topology=topo)
        assert res.ok
        assert res.num_qubits == 9

    def test_chunk_crash_preserves_finished_results(self, tmp_path):
        # A caller bug (unknown approach) must still raise, but cells that
        # finished before it -- in the same chunk or other chunks -- must
        # have been recorded in the cache, not discarded with the chunk.
        cache = ResultCache(tmp_path / "cache.db")
        specs = [
            CellSpec.make("sabre", "grid", 2, seed=0),
            CellSpec.make("magic", "grid", 2),
            CellSpec.make("sabre", "grid", 2, seed=2),
        ]
        with pytest.raises(ValueError):
            run_specs(specs, jobs=2, cache=cache)
        assert len(cache) == 2


class TestCellTimeout:
    def test_satmap_cell_times_out_via_harness_budget(self):
        # 4x4 Sycamore is far beyond the exact search's reach: without a
        # budget this cell would run (effectively) forever.
        specs = [CellSpec.make("satmap", "sycamore", 4, timeout_s=0.3)]
        (res,) = run_specs(specs)
        assert res.status == "timeout"
        assert res.compile_time_s is not None

    def test_budget_applies_to_any_approach(self):
        # The 100-qubit SABRE map takes about 45-55 ms on the compiled
        # engine, so a 50 ms budget was a race; 10 ms is well inside it.
        res = run_cell("sabre", "lattice", 10, timeout_s=0.01)
        assert res.status == "timeout"

    def test_fast_cell_unaffected_by_generous_budget(self):
        specs = [CellSpec.make("sabre", "grid", 2, timeout_s=120.0)]
        (res,) = run_specs(specs)
        assert res.ok and res.verified

    def test_timeout_result_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        specs = [CellSpec.make("satmap", "sycamore", 4, timeout_s=0.2)]
        (res,) = run_specs(specs, cache=cache)
        assert res.status == "timeout"
        assert len(cache) == 0


class TestExperimentSpecs:
    def test_table1_spec_count(self):
        specs = specs_table1(QUICK)
        # 9 cells x 3 approaches
        assert len(specs) == 27

    def test_specs_are_picklable_and_hashable(self):
        import pickle

        spec = CellSpec.make("sabre", "grid", 6, seed=3, rename="sabre-seed3")
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, spec}) == 1
