"""The ``repro.compile`` entry point and its cross-product guarantees."""

import math
import time

import pytest
from helpers import run_in_thread

import repro
from repro import GridTopology, UnknownNameError
from repro.baselines.sabre import KERNEL_ENV_VAR
from repro.baselines.sabre_kernel import kernel_available


class TestCompileBasics:
    def test_defaults_compile_qft_on_grid(self):
        res = repro.compile(size=3)
        assert res.ok and res.workload == "qft" and res.approach == "ours"
        assert res.num_qubits == 9
        assert res.mapped is not None and res.verified
        assert res.wall_s is not None and res.wall_s >= 0

    def test_accepts_topology_instance(self):
        topo = GridTopology(2, 2)
        res = repro.compile(architecture=topo, approach="sabre", seed=1)
        assert res.ok and res.num_qubits == 4
        assert res.architecture == topo.name

    def test_size_required_for_named_architecture(self):
        with pytest.raises(ValueError, match="size is required"):
            repro.compile(architecture="grid")

    def test_unknown_names_raise(self):
        with pytest.raises(UnknownNameError):
            repro.compile(workload="qtf", size=2)
        with pytest.raises(UnknownNameError):
            repro.compile(approach="sabr", size=2)
        with pytest.raises(UnknownNameError):
            repro.compile(architecture="gird", size=2)

    def test_unknown_approach_option_raises(self):
        with pytest.raises(ValueError, match="unknown option"):
            repro.compile(size=2, approach="sabre", sede=3)

    def test_workload_params_flow_to_builder(self):
        a = repro.compile(
            workload="qaoa", size=3, approach="sabre", workload_params={"seed": 1}
        )
        b = repro.compile(
            workload="qaoa", size=3, approach="sabre", workload_params={"seed": 2}
        )
        assert a.ok and b.ok
        assert a.params["seed"] == 1 and b.params["seed"] == 2

    def test_timeout_returns_typed_result(self):
        res = repro.compile(
            workload="qft", architecture="sycamore", size=4, approach="satmap",
            timeout_s=0.2,
        )
        assert res.status == "timeout"

    def test_size_cap_reports_skipped(self):
        res = repro.compile(size=5, approach="sabre", max_qubits=9)
        assert res.status == "skipped"
        assert "cap" in res.message

    def test_satmap_default_cap_applies(self):
        # 100 qubits is far beyond the registered satmap cap: skipped, not
        # hours of branch-and-bound.
        res = repro.compile(architecture="lattice", size=10, approach="satmap")
        assert res.status == "skipped"

    def test_cap_considers_device_size_not_just_workload_size(self):
        # A small kernel on a huge device still makes SATMAP search every
        # placement site; the cap must catch it.
        res = repro.compile(
            architecture="lattice", size=16, approach="satmap", num_qubits=32
        )
        assert res.status == "skipped"

    def test_metrics_row_matches_mapped(self):
        res = repro.compile(size=3, approach="greedy")
        row = res.metrics()
        assert row.ok
        assert row.depth == res.mapped.depth()
        assert row.swap_count == res.mapped.swap_count()
        assert row.workload == "qft"


# One cell of each mapper family, each of which maps for longer than its
# budget: the compiled SABRE kernel, the reference loop, a paper engine
# (through MappingBuilder.layer), the greedy router and SATMAP's search.
BUDGET_CELLS = [
    pytest.param(
        "sabre", "lattice", 23, 1.0, {"kernel": "c"},
        marks=pytest.mark.skipif(not kernel_available(), reason="kernel not built"),
        id="sabre-c-lattice23",
    ),
    pytest.param("sabre", "lattice", 10, 0.5, {"kernel": "python"}, id="sabre-python-lattice10"),
    pytest.param("ours", "lattice", 32, 0.3, {}, id="ours-lattice32"),
    pytest.param("greedy", "lattice", 23, 0.3, {}, id="greedy-lattice23"),
    pytest.param("satmap", "sycamore", 4, 0.3, {}, id="satmap-sycamore4"),
]


class TestBudget:
    @pytest.mark.parametrize("on_thread", [False, True], ids=["main", "thread"])
    @pytest.mark.parametrize("approach,architecture,size,budget,opts", BUDGET_CELLS)
    def test_every_mapper_family_stops_at_its_budget(
        self, monkeypatch, approach, architecture, size, budget, opts, on_thread
    ):
        """The budget is polled, not signalled, so it holds off the main
        thread too, where the SIGALRM budget it replaced never fired."""

        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)  # honour kernel=

        def run():
            start = time.perf_counter()
            res = repro.compile(
                architecture=architecture, size=size, approach=approach,
                timeout_s=budget, verify=False, **opts,
            )
            return res, time.perf_counter() - start

        res, elapsed = run_in_thread(run) if on_thread else run()
        assert res.status == "timeout"
        assert elapsed < budget + 0.5, f"timeout reported after {elapsed:.2f}s"

    @pytest.mark.parametrize("timeout_s", [0, -1, math.nan, math.inf])
    def test_budget_must_be_finite_and_positive(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s must be a finite number"):
            repro.compile(size=2, approach="sabre", timeout_s=timeout_s)


# The acceptance criterion of the redesign: the full cross-product of
# workloads x architectures x approaches either compiles or comes back as a
# *typed* non-ok result -- never an exception, never an untyped crash.
SIZES = {"sycamore": 2, "heavyhex": 2, "lattice": 3, "grid": 2, "lnn": 5}


class TestCrossProduct:
    @pytest.mark.parametrize("workload", ["qft", "qaoa", "random"])
    @pytest.mark.parametrize(
        "architecture", ["sycamore", "heavyhex", "lattice", "grid", "lnn"]
    )
    @pytest.mark.parametrize(
        "approach", ["ours", "sabre", "satmap", "lnn", "greedy"]
    )
    def test_cell_is_ok_or_typed(self, workload, architecture, approach):
        res = repro.compile(
            workload=workload,
            architecture=architecture,
            size=SIZES[architecture],
            approach=approach,
            timeout_s=5.0,
        )
        assert res.status in ("ok", "unsupported", "timeout", "skipped")
        if res.status == "ok":
            assert res.mapped is not None
            assert res.verified, (workload, architecture, approach)
        if res.status == "unsupported":
            assert res.message  # the typed refusal carries a reason

    def test_every_workload_has_at_least_one_full_coverage_approach(self):
        # SABRE must compile every workload on every architecture.
        for workload in ["qft", "qaoa", "random"]:
            for architecture, size in SIZES.items():
                res = repro.compile(
                    workload=workload,
                    architecture=architecture,
                    size=size,
                    approach="sabre",
                )
                assert res.ok and res.verified, (workload, architecture)
