"""Compiled SABRE kernel: bit-equality, runtime selection, graceful fallback.

The compiled routing kernel (``repro.baselines._sabre_kernel``) must be a
pure speed choice: same swap sequence, same emitted ops, same metrics, same
RNG consumption as the textbook reference loop (``kernel="python"``), on
every workload / architecture / seed -- that contract is what lets the eval
harness share cache entries across engines and lets CI force
``REPRO_SABRE_KERNEL=python`` without changing a single number.  The seeded
fuzz suite here sweeps the full workload x architecture cross-product with
ten seeds each; the selection tests pin the ``kernel=`` /
``REPRO_SABRE_KERNEL`` resolution rules and the degradation behavior when
the extension is absent.
"""

import time

import numpy as np
import pytest
from helpers import run_in_thread

from repro.arch import (
    CaterpillarTopology,
    GridTopology,
    LatticeSurgeryTopology,
    LNNTopology,
    SycamoreTopology,
)
from repro.baselines import SabreMapper, sabre_kernel
from repro.baselines.sabre import KERNEL_ENV_VAR
from repro.baselines.sabre_kernel import _kernel_tables_for, kernel_available
from repro.circuit import Circuit, qft_circuit
from repro.eval.cache import ResultCache, cell_key
from repro.eval.parallel import CellSpec
from repro.eval.runners import sample_verifies
from repro.workloads import get_workload

requires_kernel = pytest.mark.skipif(
    not kernel_available(),
    reason="compiled SABRE kernel not built (python setup.py build_ext --inplace)",
)


@pytest.fixture(autouse=True)
def _clear_kernel_env(monkeypatch):
    """Neutralize the CI legs' REPRO_SABRE_KERNEL override.

    The CI matrix forces one engine repo-wide; these tests exist precisely
    to compare engines against each other, so they must see the constructor
    argument, not the leg's override.  Tests that probe the override set it
    themselves (their monkeypatch.setenv runs after this delenv)."""

    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)

# All five architectures, at sizes small enough that the full fuzz sweep
# stays seconds-scale but large enough that routing is non-trivial (front
# layers, extended sets and candidate sets all interact).
ARCHITECTURES = [
    pytest.param(lambda: LNNTopology(7), id="lnn7"),
    pytest.param(lambda: GridTopology(4, 4), id="grid44"),
    pytest.param(lambda: SycamoreTopology(4), id="sycamore4"),
    pytest.param(lambda: CaterpillarTopology.regular_groups(3), id="heavyhex3"),
    pytest.param(lambda: LatticeSurgeryTopology(4), id="lattice4"),
]

WORKLOADS = ["qft", "qaoa", "random"]

SEEDS = list(range(10))


def _logical_swap_circuit():
    """A circuit holding a logical SWAP gate, which only the reference loop
    routes."""

    return Circuit(4).h(0).cnot(0, 1).swap(1, 2).cphase(0, 3, 0.5)


def _mapped_pair(topo, circuit, seed, **kwargs):
    """Map ``circuit`` with the reference loop and the compiled kernel."""

    py = SabreMapper(topo, seed=seed, kernel="python", **kwargs).map_circuit(circuit)
    cc = SabreMapper(topo, seed=seed, kernel="c", **kwargs).map_circuit(circuit)
    return py, cc


@requires_kernel
@pytest.mark.parametrize("make_topo", ARCHITECTURES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_kernel_bit_identical_across_seeds(make_topo, workload):
    """C and Python routing agree gate-for-gate on >= 10 seeds per cell."""

    topo = make_topo()
    wl = get_workload(workload)
    n = topo.num_qubits
    for seed in SEEDS:
        params = wl.resolve_params(**({"seed": seed} if workload != "qft" else {}))
        circuit = wl.build_cached(n, **params)
        py, cc = _mapped_pair(topo, circuit, seed)
        assert cc.ops == py.ops, (
            f"compiled kernel diverged: {workload} on {topo.name} seed {seed}"
        )
        assert cc.depth() == py.depth()
        assert cc.swap_count() == py.swap_count()
        assert cc.final_layout() == py.final_layout()
        assert py.metadata["kernel"] == "python"
        assert cc.metadata["kernel"] == "c"


@requires_kernel
@pytest.mark.parametrize("workload", ["qft", "random"])
def test_kernel_bit_identical_past_one_bitset_word(workload):
    """A 7x7 grid has 84 coupling edges, so the kernel's candidate bitset
    spans two 64-bit words."""

    topo = GridTopology(7, 7)
    wl = get_workload(workload)
    params = wl.resolve_params(**({"seed": 5} if workload != "qft" else {}))
    circuit = wl.build_cached(topo.num_qubits, **params)
    py, cc = _mapped_pair(topo, circuit, 5)
    assert cc.ops == py.ops
    assert cc.metadata["kernel"] == "c"


@requires_kernel
@pytest.mark.parametrize(
    "config",
    [
        {"extended_set_size": 0},
        {"extended_set_size": 1},
        {"extended_set_size": 60},
        {"decay_reset_interval": 1},
    ],
    ids=["ext0", "ext1", "ext60", "decay1"],
)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_kernel_bit_identical_off_the_default_scoring(config, workload):
    """Empty, one-gate and oversized extended sets, and a decay reset after
    every swap, route the same through both engines."""

    topo = GridTopology(4, 4)
    wl = get_workload(workload)
    for seed in range(3):
        params = wl.resolve_params(**({"seed": seed} if workload != "qft" else {}))
        circuit = wl.build_cached(topo.num_qubits, **params)
        py, cc = _mapped_pair(topo, circuit, seed, **config)
        assert cc.ops == py.ops, f"{workload} seed {seed} {config}"
        assert cc.metadata["kernel"] == "c"


@requires_kernel
def test_compile_budget_times_out_inside_the_kernel():
    """A budgeted 529-qubit SABRE compile, which routes for 1.5-2.6 s
    unbudgeted, reports its timeout within the budget + 0.5 s, on the main
    thread and in a ``threading.Thread``."""

    import repro

    budget = 0.5

    def run():
        start = time.perf_counter()
        result = repro.compile(
            workload="qft",
            architecture="lattice",
            size=23,
            approach="sabre",
            timeout_s=budget,
            verify=False,
        )
        return result, time.perf_counter() - start

    for result, elapsed in (run(), run_in_thread(run)):
        assert result.status == "timeout"
        assert elapsed < budget + 0.5, f"timeout reported after {elapsed:.2f}s"


@requires_kernel
def test_budget_stops_the_kernel_mid_pass():
    """The kernel polls the cell budget every 1,024 swap iterations, so a
    budget ends a C routing pass instead of waiting for it.  One 529-qubit
    pass takes about 0.7 s on a 2-vCPU host, so a budget checked only
    between passes misses the bound."""

    from repro.utils import CellBudgetExceeded, cell_budget

    circuit = get_workload("qft").build_cached(529)
    mapper = SabreMapper(LatticeSurgeryTopology(23), seed=0)
    budget = 0.3
    start = time.perf_counter()
    with pytest.raises(CellBudgetExceeded):
        with cell_budget(budget):
            mapper.map_circuit(circuit)
    elapsed = time.perf_counter() - start
    assert mapper.last_kernel == "c"
    assert elapsed < budget + 0.25, f"budget took effect after {elapsed:.2f}s"


@requires_kernel
def test_kernel_runs_signal_handlers_mid_pass():
    """The kernel also runs the main thread's signal handlers at each poll,
    so an exception a handler raises (Ctrl-C's ``KeyboardInterrupt``, or
    this test's own) ends a C routing pass within milliseconds."""

    import signal

    class Interrupted(Exception):
        pass

    def on_alarm(signum, frame):
        raise Interrupted

    circuit = get_workload("qft").build_cached(529)
    mapper = SabreMapper(LatticeSurgeryTopology(23), seed=0)
    delay = 0.3
    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        start = time.perf_counter()
        with pytest.raises(Interrupted):
            signal.setitimer(signal.ITIMER_REAL, delay)
            mapper.map_circuit(circuit)
        elapsed = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert mapper.last_kernel == "c"
    assert elapsed < delay + 0.25, f"handler ran after {elapsed:.2f}s"


@requires_kernel
@pytest.mark.parametrize("make_topo", ARCHITECTURES)
def test_kernel_matches_reference_loop(make_topo):
    """The compiled kernel matches the textbook reference loop on QFT."""

    topo = make_topo()
    ref = SabreMapper(topo, seed=3, kernel="python").map_qft(topo.num_qubits)
    cc = SabreMapper(topo, seed=3, kernel="c").map_qft(topo.num_qubits)
    assert cc.ops == ref.ops


@requires_kernel
def test_kernel_routing_stats_match():
    """After a one-pass map, the kernel's ``iterations`` counter -- which the
    benchmark's ``sabre_swap_iters`` and ``sabre_us_per_iter`` read -- equals
    the number of routing SWAPs it emitted, and so does the reference
    loop's."""

    topo = GridTopology(5, 5)
    py = SabreMapper(topo, seed=0, passes=1, kernel="python")
    cc = SabreMapper(topo, seed=0, passes=1, kernel="c")
    ref, out = py.map_qft(25), cc.map_qft(25)
    assert out.ops == ref.ops
    swaps = out.ops.tags.count("sabre-swap")
    assert swaps > 0
    assert cc.last_routing_stats["iterations"] == swaps
    assert ref.ops.tags.count("sabre-swap") == swaps
    assert py.last_routing_stats["iterations"] == swaps
    assert py.last_kernel == "python"
    assert cc.last_kernel == "c"


def test_sabre_tables_shared_across_mapper_instances():
    """The kernel's tables are the one per-topology SABRE cache: equal
    coupling graphs share one read-only set, whose edge ids follow
    ``sorted(edge_set)``."""

    topo_a = GridTopology(4, 4)
    topo_b = GridTopology(4, 4)  # same coupling graph, different instance
    tables = _kernel_tables_for(topo_a)
    assert tables is _kernel_tables_for(topo_b)
    assert not any(arr.flags.writeable for arr in tables)
    _dist, adj, eu, ev, _inc_off, _inc_eid = tables
    assert list(zip(eu.tolist(), ev.tolist())) == sorted(topo_a.edge_set)
    assert int(adj.sum()) == 2 * len(topo_a.edge_set)
    assert _kernel_tables_for(GridTopology(4, 5)) is not tables


@requires_kernel
def test_kernel_rng_state_round_trip():
    """The kernel leaves the mapper's RNG stream exactly where Python would.

    Mapping twice with the same mapper object must behave identically across
    kernels -- a drifted Mersenne-Twister state would show up as a diverged
    second circuit even if the first matched.
    """

    import random

    topo = GridTopology(4, 4)
    streams = {}
    for kern in ("python", "c"):
        mapper = SabreMapper(topo, seed=11, kernel=kern)
        first = mapper.map_qft(16)
        # the mapper reseeds per map_circuit; probe the raw route-level RNG
        rng = random.Random(123)
        builder, layout = mapper._route(
            get_workload("qft").build_cached(16), list(range(16)), rng, emit=True
        )
        streams[kern] = (first.ops, builder.ops, layout, rng.getstate())
    assert streams["python"] == streams["c"]


@requires_kernel
@pytest.mark.parametrize("passes", [1, 2])
def test_kernel_single_and_double_pass(passes):
    topo = SycamoreTopology(4)
    py, cc = _mapped_pair(
        topo, get_workload("qft").build_cached(topo.num_qubits), 2, passes=passes
    )
    assert cc.ops == py.ops


@requires_kernel
def test_env_override_forces_python(monkeypatch):
    """REPRO_SABRE_KERNEL=python beats an explicit kernel="c" request."""

    monkeypatch.setenv(KERNEL_ENV_VAR, "python")
    mapper = SabreMapper(GridTopology(3, 3), seed=0, kernel="c")
    mapper.map_qft(9)
    assert mapper.last_kernel == "python"


@requires_kernel
def test_env_override_forces_c(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, "c")
    mapper = SabreMapper(GridTopology(3, 3), seed=0, kernel="python")
    mapper.map_qft(9)
    assert mapper.last_kernel == "c"


def test_env_override_rejects_unknown(monkeypatch):
    """An unknown override is refused whatever the circuit, and the refused
    call leaves no engine or counters of the mapper's previous call."""

    mapper = SabreMapper(GridTopology(3, 3), seed=0)
    mapper.map_qft(9)
    assert mapper.last_routing_stats["iterations"] > 0
    monkeypatch.setenv(KERNEL_ENV_VAR, "fortran")
    for circuit in (qft_circuit(9), _logical_swap_circuit()):
        with pytest.raises(ValueError, match="fortran"):
            mapper.map_circuit(circuit)
        assert mapper.last_kernel is None
        assert mapper.last_routing_stats is None


def test_unknown_kernel_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown SABRE kernel"):
        SabreMapper(GridTopology(3, 3), kernel="rust")


class TestGracefulDegradation:
    """kernel="auto" must survive an unbuilt extension; kernel="c" must not."""

    def test_auto_falls_back_when_extension_absent(self, monkeypatch):
        monkeypatch.setattr(sabre_kernel, "_kernel", None)
        mapper = SabreMapper(GridTopology(3, 3), seed=4, kernel="auto")
        mapped = mapper.map_qft(9)
        assert mapper.last_kernel == "python"
        ref = SabreMapper(GridTopology(3, 3), seed=4, kernel="python").map_qft(9)
        assert mapped.ops == ref.ops

    def test_explicit_c_raises_with_build_hint(self, monkeypatch):
        monkeypatch.setattr(sabre_kernel, "_kernel", None)
        mapper = SabreMapper(GridTopology(3, 3), seed=4, kernel="c")
        for circuit in (qft_circuit(9), _logical_swap_circuit()):
            with pytest.raises(RuntimeError, match="build_ext"):
                mapper.map_circuit(circuit)

    def test_env_c_raises_when_absent(self, monkeypatch):
        monkeypatch.setattr(sabre_kernel, "_kernel", None)
        monkeypatch.setenv(KERNEL_ENV_VAR, "c")
        mapper = SabreMapper(GridTopology(3, 3), seed=4)
        with pytest.raises(RuntimeError, match="build_ext"):
            mapper.map_qft(9)


class TestKernelIsMetricsNeutral:
    """Engine choice must not fork any harness identity."""

    def test_cache_key_does_not_fork_on_kernel(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db", version="vtest")
        base = cache.key("sabre", "grid", 5, kwargs=[("seed", 3)])
        for kern in ("auto", "c", "python"):
            assert (
                cache.key("sabre", "grid", 5, kwargs=[("seed", 3), ("kernel", kern)])
                == base
            )
        # non-engine kwargs still fork
        assert cache.key("sabre", "grid", 5, kwargs=[("seed", 4)]) != base

    def test_journal_cell_key_does_not_fork_on_kernel(self):
        base = cell_key(CellSpec.make("sabre", "grid", 5, seed=3))
        assert cell_key(CellSpec.make("sabre", "grid", 5, seed=3, kernel="c")) == base
        assert (
            cell_key(CellSpec.make("sabre", "grid", 5, seed=3, kernel="python"))
            == base
        )
        assert cell_key(CellSpec.make("sabre", "grid", 5, seed=4)) != base

    def test_sample_verify_decision_does_not_fork_on_kernel(self):
        for size in range(3, 12):
            base = sample_verifies("sabre", "grid", size, "qft", params=[("seed", 1)])
            forked = sample_verifies(
                "sabre", "grid", size, "qft", params=[("seed", 1), ("kernel", "c")]
            )
            assert base == forked

    def test_merge_tolerates_kernel_disagreement(self, tmp_path):
        """Two shards that computed one cell with different engines merge
        cleanly (extra["kernel"] is volatile); real metric disagreement
        still raises."""

        from repro.eval.cache import CacheMergeConflict
        from repro.eval.metrics import CompilationResult

        a = ResultCache(tmp_path / "a.db", version="v")
        b = ResultCache(tmp_path / "b.db", version="v")
        key = a.key("sabre", "grid", 3, kwargs=[("seed", 0)])

        def result(kernel, depth=10):
            return CompilationResult(
                approach="sabre",
                architecture="grid-3",
                num_qubits=9,
                status="ok",
                depth=depth,
                extra={"kernel": kernel},
            )

        a.put(key, result("c"))
        b.put(key, result("python"))
        stats = a.merge(tmp_path / "b.db")
        assert stats == {"imported": 0, "skipped": 1, "invalid": 0}

        c = ResultCache(tmp_path / "c.db", version="v")
        c.put(key, result("python", depth=11))  # genuinely different metrics
        with pytest.raises(CacheMergeConflict):
            a.merge(tmp_path / "c.db")

    @requires_kernel
    def test_run_cell_records_engine_in_extra(self):
        from repro.eval.runners import run_cell

        row = run_cell("sabre", "grid", 3, kernel="c", verify=False)
        assert row.status == "ok"
        assert row.extra["kernel"] == "c"
        row = run_cell("sabre", "grid", 3, kernel="python", verify=False)
        assert row.extra["kernel"] == "python"


@requires_kernel
def test_logical_swap_circuits_fall_back_to_reference():
    """Circuits containing logical SWAP gates route through the reference
    loop (the compiled loop assumes a sweep-stable layout), and the mapper
    then reports the reference pass's counters, not its previous C pass's."""

    topo = GridTopology(3, 3)
    circ = _logical_swap_circuit()
    mapper = SabreMapper(topo, seed=0, kernel="c")
    mapper.map_qft(9)
    assert mapper.last_kernel == "c"
    mapped = mapper.map_circuit(circ)
    assert mapper.last_kernel == "python"
    assert mapper.last_routing_stats == {
        "iterations": mapped.ops.tags.count("sabre-swap")
    }
    ref = SabreMapper(topo, seed=0, kernel="python").map_circuit(circ)
    assert mapped.ops == ref.ops
