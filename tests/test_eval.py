"""Tests for the evaluation harness (runners, metrics, experiments, tables)."""

import pytest

from repro.arch import CaterpillarTopology, LatticeSurgeryTopology, SycamoreTopology
from repro.eval import (
    CompilationResult,
    architecture_label,
    format_results,
    format_series,
    format_table,
    make_architecture,
    run_cell,
    run_specs,
)
from repro.eval.experiments import (
    QUICK,
    Profile,
    specs_figure27,
    specs_linearity,
    specs_relaxed_vs_strict,
)


class TestMakeArchitecture:
    def test_sycamore(self):
        topo = make_architecture("sycamore", 4)
        assert isinstance(topo, SycamoreTopology) and topo.num_qubits == 16

    def test_heavyhex(self):
        topo = make_architecture("heavyhex", 4)
        assert isinstance(topo, CaterpillarTopology) and topo.num_qubits == 20

    def test_lattice(self):
        topo = make_architecture("lattice", 5)
        assert isinstance(topo, LatticeSurgeryTopology) and topo.num_qubits == 25

    def test_lnn_and_grid(self):
        assert make_architecture("lnn", 7).num_qubits == 7
        assert make_architecture("grid", 3).num_qubits == 9

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_architecture("torus", 4)

    def test_labels(self):
        assert architecture_label("sycamore", 6) == "6*6 Sycamore"
        assert architecture_label("heavyhex", 4) == "Heavy-hex 4*5"
        assert "Lattice" in architecture_label("lattice", 10)


class TestRunCell:
    def test_ours_on_heavyhex(self):
        res = run_cell("ours", "heavyhex", 2)
        assert res.ok and res.verified
        assert res.num_qubits == 10
        assert res.depth > 0 and res.swap_count > 0
        assert res.cphase_count == 45

    def test_sabre_on_sycamore(self):
        res = run_cell("sabre", "sycamore", 2)
        assert res.ok and res.verified

    def test_skip_above_cap(self):
        res = run_cell("sabre", "lattice", 10, max_qubits=50)
        assert res.status == "skipped"
        assert res.depth is None

    def test_satmap_timeout_reported(self):
        res = run_cell("satmap", "sycamore", 4, timeout_s=0.2)
        assert res.status == "timeout"

    def test_greedy_and_lnn_approaches(self):
        assert run_cell("greedy", "grid", 3).ok
        assert run_cell("lnn", "lattice", 3).ok

    def test_unknown_approach(self):
        with pytest.raises(ValueError):
            run_cell("magic", "grid", 3)

    def test_depth_per_qubit(self):
        res = run_cell("ours", "heavyhex", 3)
        assert 3 <= res.depth_per_qubit() <= 7


class TestExperiments:
    def test_figure27_produces_one_row_per_seed(self):
        rows = run_specs(specs_figure27(seeds=(0, 1, 2), m=2))
        assert len(rows) == 3
        assert all(r.verified for r in rows)

    def test_relaxed_vs_strict_shows_the_gap(self):
        rows = run_specs(specs_relaxed_vs_strict(sycamore_m=(4,), lattice_m=()))
        relaxed = [r for r in rows if r.approach == "ours-relaxed-ie"][0]
        strict = [r for r in rows if r.approach == "ours-strict-ie"][0]
        assert strict.depth > relaxed.depth

    def test_linearity_experiment_depth_ratio(self):
        prof = Profile(
            name="tiny",
            table1_sycamore=(),
            table1_heavyhex=(),
            table1_lattice=(),
            fig17_groups=(),
            fig18_m=(),
            fig19_m=(),
            sabre_max_qubits=0,
            satmap_max_qubits=0,
            satmap_timeout_s=1.0,
            linearity_sizes=(2, 4),
        )
        rows = run_specs(specs_linearity(prof))
        assert rows
        for r in rows:
            assert r.ok
            assert r.depth_per_qubit() < 25


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows, ["a", "b"])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_empty(self):
        assert format_table([], ["a"]) == "(no rows)"

    def test_format_results(self):
        res = [
            CompilationResult("ours", "X", 10, depth=50, swap_count=40, compile_time_s=0.1),
            CompilationResult("sabre", "X", 10, status="timeout"),
        ]
        text = format_results(res)
        assert "ours" in text and "timeout" in text

    def test_format_series_groups_by_approach(self):
        res = [
            CompilationResult("ours", "X", 10, depth=50),
            CompilationResult("ours", "X", 20, depth=90),
            CompilationResult("sabre", "X", 10, depth=80),
        ]
        text = format_series(res, "depth")
        assert "ours" in text and "10:50" in text and "20:90" in text
