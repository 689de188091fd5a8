"""The seeded draws: determinism, class mix, and the properties each
workload's design depends on.  Run: ``python -m pytest perfbench/tests``."""

import json
import sys
from collections import Counter, OrderedDict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchlib import draws  # noqa: E402
from benchlib.stats import beyond  # noqa: E402

SECONDS = 15  # BENCHMARK.json run_seconds


def op_class(op):
    """The class an op belongs to: ``(workload, architecture, approach)``."""

    return (str(op["workload"]), str(op["architecture"]), str(op["approach"]))


def lru_split(ops, capacity=draws.SERVE_LRU):
    """Where each request of ``ops`` would be served from by a single client
    against an LRU of ``capacity`` in front of a store (``lru``/``store``/
    ``computed``): a check of the draw, not a model of the server."""

    lru = OrderedDict()
    seen = set()
    split = {"lru": 0, "store": 0, "computed": 0}
    for op in ops:
        key = json.dumps(op, sort_keys=True)
        if key in lru:
            lru.move_to_end(key)
            split["lru"] += 1
            continue
        split["store" if key in seen else "computed"] += 1
        seen.add(key)
        lru[key] = None
        if len(lru) > capacity:
            lru.popitem(last=False)
    return split


def _class_mix(workload, ops):
    if workload == "sweep-store":
        return (
            Counter(op_class(c) for op in ops for c in op["cells"]),
            Counter(len(op["cells"]) for op in ops if op["fresh"]),
            Counter(op["fresh"] for op in ops),
        )
    return Counter(op_class(op) for op in ops)


@pytest.mark.parametrize("workload", draws.WORKLOADS)
def test_same_seed_gives_byte_identical_ops(workload):
    assert draws.to_json(draws.draw(workload, 7, SECONDS)) == draws.to_json(
        draws.draw(workload, 7, SECONDS)
    )


@pytest.mark.parametrize("workload", draws.WORKLOADS)
def test_other_seed_gives_other_ops_with_the_same_class_mix(workload):
    a, b = draws.draw(workload, 1, SECONDS), draws.draw(workload, 2, SECONDS)
    assert draws.to_json(a) != draws.to_json(b)
    assert _class_mix(workload, a) == _class_mix(workload, b)


@pytest.mark.parametrize("workload", draws.WORKLOADS)
def test_every_run_leaves_ten_samples_beyond_the_p90(workload):
    for seconds in (1, SECONDS):
        assert beyond(len(draws.draw(workload, 3, seconds)), 90) >= 10


@pytest.mark.parametrize("workload", ["paper-qft", "serve-mix", "sweep-store"])
def test_fixed_catalogs_make_the_exact_sums_seed_invariant(workload):
    cells = [draws.library_cells(workload, draws.draw(workload, s, SECONDS)) for s in (1, 2)]
    assert Counter(draws.to_json([c]) for c in cells[0]) == Counter(
        draws.to_json([c]) for c in cells[1]
    )


def test_route_mix_seeds_the_router_and_the_circuits():
    ops = draws.draw("route-mix", 1, SECONDS)
    sabre_seeds = {op["options"]["seed"] for op in ops if op["approach"] == "sabre"}
    circuit_seeds = {op["workload_params"]["seed"] for op in ops if op["workload"] != "qft"}
    assert len(sabre_seeds) > 10 and len(circuit_seeds) > 10
    assert all(op["timeout_s"] == draws.ROUTE_TIMEOUT_S for op in ops)
    assert any(op["num_qubits"] is not None and op["num_qubits"] <= 8 for op in ops)


def test_serve_working_set_exceeds_the_lru_so_store_hits_occur():
    ops = draws.draw("serve-mix", 1, SECONDS)
    assert len({draws.to_json([op]) for op in ops}) > draws.SERVE_LRU
    split = lru_split(ops)
    assert split["store"] > 0.05 * len(ops)
    assert split["lru"] > 0.5 * len(ops)  # the p50 lands on the LRU path
    assert split["computed"] + split["store"] > 0.2 * len(ops)


def test_serve_prewarm_covers_every_topology():
    ops = draws.draw("serve-mix", 1, SECONDS)
    assert set(draws.topologies("serve-mix", ops)) <= set(draws.SERVE_PREWARM)


def test_sweep_draw_has_pool_calls_and_hit_only_calls():
    ops = draws.draw("sweep-store", 1, SECONDS)
    fresh = [op for op in ops if op["fresh"]]
    replays = [op for op in ops if not op["fresh"]]
    assert fresh and replays
    # run_specs forks the pool only for two or more misses
    assert all(4 <= len(op["cells"]) <= 8 for op in ops)
    issued = set()
    for op in ops:
        key = frozenset(draws.to_json([c]) for c in op["cells"])
        if op["fresh"]:
            assert not any(draws.to_json([c]) in k for c in op["cells"] for k in issued)
            issued.add(key)
        else:
            assert key in issued  # every cell already recorded: a hit-only call
    assert len(replays) == draws.SWEEP_REPLAYS * len(fresh)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        draws.draw("nope", 1, SECONDS)


def test_apportion_keeps_the_total_and_one_each():
    counts = draws._apportion(100, [1.0 / (r + 1) for r in range(30)])
    assert sum(counts) == 100 and min(counts) >= 1
    assert counts == sorted(counts, reverse=True)
    with pytest.raises(ValueError):
        draws._apportion(3, [1.0] * 4)
