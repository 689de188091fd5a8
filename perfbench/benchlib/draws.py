"""The four seeded workloads.

Every draw is a pure function of ``(seed, seconds)``: the same pair gives a
byte-identical op list (compare :func:`to_json`), and the program under test
sees only the generated ops.  ``seconds`` sizes the list from a nominal cost
per op measured on the reference host (2 vCPUs), so a run takes about
``--seconds`` there; the amount of work is fixed, not the wall time, which
is what keeps ``swaps`` and ``depth`` exact across runs of one seed.

Each workload keeps its catalog of cells fixed and lets the seed decide the
order and, for route-mix, the SABRE and circuit seeds.  Why each workload
exists, which layers it loads and the host facts behind the sizing are in
``perfbench/README.md``.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Op = Dict[str, object]

#: why each workload exists (one line each; BENCHMARK.json repeats these)
WHY = {
    "paper-qft": "the paper's QFT evaluation: analytic mappers, emission, QFT "
    "verification and metric extraction on 40-256 qubit devices",
    "route-mix": "SABRE and greedy routing of qft/qaoa/random circuits: circuit "
    "builds, replay verification and metrics on SWAP-heavy streams",
    "serve-mix": "closed-loop HTTP traffic against repro.serve: LRU, store reads "
    "and writes, batching and warm workers, with small compiles",
    "sweep-store": "repro.eval.execute into a store-backed cache: hit-only calls "
    "and process-pool calls that record cells into the store",
}
WORKLOADS = tuple(WHY)


def _cell(
    workload: str,
    architecture: str,
    size: int,
    approach: str,
    *,
    num_qubits: Optional[int] = None,
    workload_params: Optional[Dict[str, object]] = None,
    options: Optional[Dict[str, object]] = None,
    timeout_s: Optional[float] = None,
) -> Op:
    return {
        "workload": workload,
        "architecture": architecture,
        "size": size,
        "approach": approach,
        "num_qubits": num_qubits,
        "workload_params": dict(workload_params or {}),
        "options": dict(options or {}),
        "timeout_s": timeout_s,
    }


def to_json(ops: Sequence[Op]) -> str:
    return json.dumps(list(ops), sort_keys=True, separators=(",", ":"))


def _scaled(copies: int, seconds: float, run_s: float) -> int:
    """A catalog entry's copies in a run of ``seconds``: ``copies`` at the
    nominal ``run_s`` or less (which keeps 100+ ops per run), more above."""

    return int(round(copies * max(1.0, seconds / run_s)))


# ---------------------------------------------------------------------------
# paper-qft
# ---------------------------------------------------------------------------

#: (architecture, size, approach, copies per run).  LNN has a Hamiltonian
#: path only on the lattice.  The small devices repeat most, so a run holds
#: over 100 ops (ten beyond the p90) in PAPER_RUN_S; the 144-256 qubit cells
#: are where metric extraction's chunked scan wins (lattice 14, heavy-hex
#: 50) and loses (Sycamore 12).  Heavy-hex 20 repeats so that the p90 falls
#: among its copies rather than between two cells of different cost.
PAPER_CELLS = (
    ("heavyhex", 50, "ours", 2),
    ("lattice", 14, "ours", 2),
    ("sycamore", 12, "ours", 2),
    ("heavyhex", 20, "ours", 6),
    ("sycamore", 10, "ours", 3),
    ("lattice", 10, "ours", 3),
    ("lattice", 10, "lnn", 3),
    ("heavyhex", 16, "ours", 4),
    ("sycamore", 8, "ours", 4),
    ("lattice", 8, "ours", 4),
    ("lattice", 8, "lnn", 4),
    ("heavyhex", 8, "ours", 12),
    ("heavyhex", 10, "ours", 12),
    ("heavyhex", 12, "ours", 12),
    ("sycamore", 6, "ours", 12),
    ("lattice", 6, "ours", 12),
    ("lattice", 6, "lnn", 12),
)
#: seconds PAPER_CELLS' copies take on the reference host
PAPER_RUN_S = 9.0


def draw_paper_qft(seed: int, seconds: float) -> List[Op]:
    """The catalog's multiset, repeated for longer runs, in a seeded order.

    The paper's mappers are deterministic, so the seed changes only the
    order; the sums of SWAPs and depth are the same for every seed.
    """

    ops = [
        _cell("qft", arch, size, approach)
        for arch, size, approach, copies in PAPER_CELLS
        for _ in range(_scaled(copies, seconds, PAPER_RUN_S))
    ]
    random.Random(f"paper-qft:{seed}").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# route-mix
# ---------------------------------------------------------------------------

_EVERY_PAIR = tuple((w, a) for w in ("qft", "qaoa", "random") for a in ("sabre", "greedy"))
#: SABRE raises "routing did not converge" on some random circuits on
#: heavy-hex (5% of seeds at 40 qubits, 0.3% at 20), so heavy-hex routes
#: random circuits with greedy only; qft and qaoa converged on every seed
#: tried (600 draws at 20 and 40 qubits).
_HEAVY_HEX_PAIRS = tuple(pair for pair in _EVERY_PAIR if pair != ("random", "sabre"))

#: (architecture, size, num_qubits or None, (workload, approach) pairs,
#: copies per run).  The 5-qubit kernels get the dense statevector check
#: (it costs 0.5-3 s at 8 qubits, which would leave too few ops per run).
#: The 100-qubit QFT routings form the slowest tier, about a tenth of the
#: ops, so the p90 sits at its lower edge; extra 16-20 qubit QFT routings
#: (near-deterministic cost) hold the p50.
#: Heavy-hex SABRE stays below 40 qubits: its SWAP count swings by 2x
#: between seeds at 100 qubits, which would make the seeded sums unsteady,
#: so 100-qubit heavy-hex is routed by greedy only.
ROUTE_CELLS = (
    ("grid", 3, 5, _EVERY_PAIR, 3),
    *((arch, 4, None, _EVERY_PAIR, 2) for arch in ("grid", "sycamore", "lattice")),
    ("heavyhex", 4, None, _HEAVY_HEX_PAIRS, 2),
    *((arch, 4, None, (("qft", "sabre"), ("qft", "greedy")), 6) for arch in ("grid", "sycamore", "lattice", "heavyhex")),
    *((arch, 6, None, _EVERY_PAIR, 1) for arch in ("grid", "sycamore", "lattice")),
    ("heavyhex", 8, None, _HEAVY_HEX_PAIRS, 1),
    *((arch, 8, None, (("qft", "sabre"), ("random", "sabre")), 1) for arch in ("grid", "sycamore", "lattice")),
    *((arch, 10, None, (("qft", "sabre"),), 4) for arch in ("grid", "sycamore", "lattice")),
    ("heavyhex", 20, None, (("qft", "greedy"),), 2),
)
ROUTE_RUN_S = 9.0
#: per-op budget that never fires (a 100-qubit op takes about a second)
ROUTE_TIMEOUT_S = 60.0


def draw_route_mix(seed: int, seconds: float) -> List[Op]:
    """The catalog's multiset in a seeded order; every op gets its own
    seeded SABRE seed and circuit seed."""

    rng = random.Random(f"route-mix:{seed}")
    ops: List[Op] = []
    for arch, size, nq, pairs, copies in ROUTE_CELLS:
        for _ in range(_scaled(copies, seconds, ROUTE_RUN_S)):
            for workload, approach in pairs:
                params = {"seed": rng.randrange(10**6)} if workload != "qft" else {}
                options = {"seed": rng.randrange(10**6)} if approach == "sabre" else {}
                ops.append(
                    _cell(
                        workload,
                        arch,
                        size,
                        approach,
                        num_qubits=nq,
                        workload_params=params,
                        options=options,
                        timeout_s=ROUTE_TIMEOUT_S,
                    )
                )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

#: small cells with one variant each (the analytic and deterministic routers)
SERVE_FIXED = (
    ("qft", "grid", 3, "ours"),
    ("qft", "grid", 4, "ours"),
    ("qft", "heavyhex", 2, "ours"),
    ("qft", "heavyhex", 3, "ours"),
    ("qft", "sycamore", 4, "ours"),
    ("qft", "lattice", 3, "ours"),
    ("qft", "lattice", 4, "lnn"),
    ("qft", "grid", 4, "greedy"),
)
#: small cells with a seed axis (SABRE seed and/or circuit seed)
SERVE_SEEDED = (
    ("qft", "grid", 3, "sabre"),
    ("qft", "heavyhex", 2, "sabre"),
    ("qaoa", "grid", 3, "sabre"),
    ("qaoa", "sycamore", 4, "greedy"),
    ("random", "lattice", 3, "sabre"),
    ("random", "heavyhex", 2, "greedy"),
    ("qaoa", "lattice", 3, "greedy"),
    ("random", "grid", 3, "sabre"),
)
#: topologies the server warms before it answers /v1/health
SERVE_PREWARM = tuple(
    sorted({(arch, size) for _, arch, size, _ in SERVE_FIXED + SERVE_SEEDED})
)
#: the server's LRU capacity (``python -m repro.serve`` default)
SERVE_LRU = 256
#: requests per second on the reference host (2 clients, 2 workers)
SERVE_RATE = 340.0
#: distinct cells per request: the first request of each is computed
SERVE_DISTINCT_FRAC = 0.22
#: Zipf exponent of the popularity by catalog rank, chosen so that a 15 s
#: draw against a 256-entry LRU splits about 64% LRU / 14% store / 22% computed
SERVE_ZIPF = 1.2


def _seeded_variant(base: Tuple[str, str, int, str], k: int) -> Op:
    workload, arch, size, approach = base
    params = {"seed": k} if workload != "qft" else {}
    options = {"seed": k} if approach == "sabre" else {}
    return _cell(workload, arch, size, approach, workload_params=params, options=options)


def serve_catalog() -> Iterator[Op]:
    """Every serve cell in popularity-rank order (unbounded)."""

    for base in SERVE_FIXED:
        yield _cell(*base)
    k = 0
    while True:
        for base in SERVE_SEEDED:
            yield _seeded_variant(base, k)
        k += 1


def _apportion(total: int, weights: Sequence[float]) -> List[int]:
    """Largest-remainder split of ``total`` with at least one per weight."""

    n = len(weights)
    if total < n:
        raise ValueError(f"cannot give {n} cells one request each out of {total}")
    spare = total - n
    scale = sum(weights)
    exact = [spare * w / scale for w in weights]
    counts = [int(x) for x in exact]
    left = spare - sum(counts)
    by_remainder = sorted(range(n), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in by_remainder[:left]:
        counts[i] += 1
    return [c + 1 for c in counts]


def draw_serve_mix(seed: int, seconds: float) -> List[Op]:
    """A fixed multiset of requests with Zipf popularity, in seeded order.

    The working set (``SERVE_DISTINCT_FRAC`` of the requests) is larger than
    the server's LRU, so evicted cells come back from the store.
    """

    total = max(1000, int(round(SERVE_RATE * seconds)))
    distinct = int(round(SERVE_DISTINCT_FRAC * total))
    catalog = serve_catalog()
    cells = [next(catalog) for _ in range(distinct)]
    counts = _apportion(total, [1.0 / (rank + 1) ** SERVE_ZIPF for rank in range(distinct)])
    ops = [cell for cell, count in zip(cells, counts) for _ in range(count)]
    random.Random(f"serve-mix:{seed}").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sweep-store
# ---------------------------------------------------------------------------

#: small cells with a seed axis; cell ``j`` is base ``j % len`` at seed
#: ``j // len``, so every cell of a run is distinct
SWEEP_BASES = (
    ("qft", "grid", 3, "sabre"),
    ("random", "lattice", 3, "greedy"),
    ("qaoa", "heavyhex", 2, "sabre"),
    ("random", "sycamore", 4, "sabre"),
    ("qaoa", "grid", 3, "greedy"),
    ("qft", "lattice", 3, "sabre"),
)
#: cells per pool call: the multiset is fixed, the seed orders it
SWEEP_CALL_SIZES = (4, 5, 6, 7, 8)
#: each pool call's cells come back this many times as hit-only calls, so
#: two thirds of the calls are hit-only: the p50 sits on the hit path and
#: the p90 on the pool path, each well away from the boundary
SWEEP_REPLAYS = 2
#: pool calls per second of run on the reference host
SWEEP_POOL_CALLS_PER_S = 15.0
SWEEP_JOBS = 2


def sweep_cell(j: int) -> Op:
    return _seeded_variant(SWEEP_BASES[j % len(SWEEP_BASES)], j // len(SWEEP_BASES))


def draw_sweep_store(seed: int, seconds: float) -> List[Op]:
    """Pool calls over fresh cells, each replayed ``SWEEP_REPLAYS`` times
    later as a hit-only call with its cells reordered.

    An op is ``{"cells": [...], "fresh": bool}``; ``fresh`` is what the
    draw expects (every cell new, or every cell already recorded).
    """

    rng = random.Random(f"sweep-store:{seed}")
    calls = max(34, int(round(SWEEP_POOL_CALLS_PER_S * seconds)))  # >= 100 ops
    sizes = [SWEEP_CALL_SIZES[i % len(SWEEP_CALL_SIZES)] for i in range(calls)]
    rng.shuffle(sizes)
    cells = [sweep_cell(j) for j in range(sum(sizes))]
    rng.shuffle(cells)
    fresh_calls = []
    start = 0
    for size in sizes:
        fresh_calls.append(cells[start : start + size])
        start += size

    ops: List[Op] = []
    owed: List[int] = []  # one entry per replay still to be issued
    next_fresh = 0
    while next_fresh < len(fresh_calls) or owed:
        if owed and (next_fresh == len(fresh_calls) or rng.random() < 0.6):
            call = owed.pop(rng.randrange(len(owed)))
            replay = list(fresh_calls[call])
            rng.shuffle(replay)
            ops.append({"cells": replay, "fresh": False})
        else:
            ops.append({"cells": fresh_calls[next_fresh], "fresh": True})
            owed.extend([next_fresh] * SWEEP_REPLAYS)
            next_fresh += 1
    return ops


DRAWS = {
    "paper-qft": draw_paper_qft,
    "route-mix": draw_route_mix,
    "serve-mix": draw_serve_mix,
    "sweep-store": draw_sweep_store,
}


def draw(workload: str, seed: int, seconds: float) -> List[Op]:
    try:
        fn = DRAWS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r} (one of {', '.join(WORKLOADS)})"
        ) from None
    return fn(seed, seconds)


def library_cells(workload: str, ops: Sequence[Op]) -> List[Op]:
    """The compile cells of ``ops`` (sweep-store ops hold several)."""

    if workload == "sweep-store":
        return [cell for op in ops for cell in op["cells"]]  # type: ignore[union-attr]
    return list(ops)


def topologies(workload: str, ops: Sequence[Op]) -> List[Tuple[str, int]]:
    """Distinct ``(architecture, size)`` pairs of a draw, sorted."""

    return sorted(
        {(str(c["architecture"]), int(c["size"])) for c in library_cells(workload, ops)}  # type: ignore[arg-type]
    )
