"""Single-cell runners for the evaluation harness.

A *cell* is one ``(workload, approach, architecture kind, size)`` tuple.
Everything here resolves through the three registries -- workloads
(:mod:`repro.workloads`), approaches (:mod:`repro.approaches`) and
architectures (:mod:`repro.arch.registry`) -- and the actual compilation is
one :func:`repro.compile` call, so the harness, the library entry point and
the CLI share a single source of truth for names, synonyms, allowed kwargs
and per-approach caps.  ``make_architecture`` / ``architecture_key`` /
``architecture_label`` are re-exported from the architecture registry for
compatibility.

Cell outcomes are typed: ``ok`` / ``skipped`` (above the size cap) /
``timeout`` (the paper's TLE) / ``error`` (architecture construction
failed) / ``unsupported`` (the approach cannot compile this workload or
architecture -- e.g. an analytic QFT specialist asked for QAOA, or LNN on a
topology without a Hamiltonian path).  Unknown *names* still raise with
did-you-mean suggestions: those are caller bugs, not per-cell failures.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional, Tuple, Union

from ..approaches import APPROACH_REGISTRY, ENGINE_KWARGS, get_approach
from ..arch.registry import (
    ARCHITECTURES,
    architecture_key,
    architecture_label,
    make_architecture,
)
from ..arch.topology import Topology
from ..baselines.sabre import SabreNotConverged
from ..baselines.sabre_kernel import _kernel_tables_for
from ..compile_api import compile as compile_cell
from ..utils import BoundedCache
from ..workloads import get_workload
from .metrics import CompilationResult

__all__ = [
    "make_architecture",
    "run_cell",
    "sample_verifies",
    "architecture_label",
    "architecture_key",
    "cached_topology",
    "prepare_topology",
    "APPROACHES",
]


def _approaches() -> Tuple[str, ...]:
    return APPROACH_REGISTRY.names()


# Kept as a module-level tuple for backwards compatibility; the registry is
# the source of truth (imported at module load, after the built-in approaches
# registered themselves).
APPROACHES = _approaches()


# Process-local topology memo, keyed by `architecture_key`.  Evaluation sweeps
# run many cells against the same coupling graph (seed sweeps in particular);
# sharing the instance means the topology object, its distance matrix and the
# SABRE routing tables are built once per (process, topology) instead of once
# per cell.  Topology instances are immutable by convention (nothing in the
# mapper stack writes to them), which is what makes the sharing safe.  LRU
# bounded for the same reason as the distance-matrix cache.
_TOPO_MEMO: BoundedCache = BoundedCache(8)


def cached_topology(kind: str, size: int) -> Optional[Topology]:
    """Shared topology instance for ``(kind, size)``, or None if construction
    fails (the caller's `run_cell` re-runs construction to produce the
    per-cell error result)."""

    key = architecture_key(kind, size)
    topo = _TOPO_MEMO.lookup(key)
    if topo is not None:
        return topo
    try:
        topo = make_architecture(kind, size)
    except ValueError:
        return None
    return _TOPO_MEMO.store(key, topo)


def prepare_topology(kind: str, size: int) -> Optional[Topology]:
    """Build + fully warm the shared topology for ``(kind, size)``.

    Beyond :func:`cached_topology`, this precomputes the all-pairs distance
    matrix and the SABRE kernel's routing tables, so forked pool workers
    inherit them copy-on-write and never redo the work.  Returns None when
    the architecture cannot be constructed (the per-cell run reports that as
    an error result).
    """

    topo = cached_topology(kind, size)
    if topo is not None:
        topo.distance_matrix()
        _kernel_tables_for(topo)
    return topo


#: fraction of cells (per 256) the "sample" verification policy verifies
_SAMPLE_VERIFY_THRESHOLD = 64  # 25%


def sample_verifies(
    approach: str,
    kind: str,
    size: int,
    workload: str = "qft",
    params: Iterable[Tuple[str, object]] = (),
) -> bool:
    """Deterministic per-cell decision for the ``"sample"`` verify policy.

    A stable content hash of the cell identity selects ~25% of cells, so a
    sampled sweep verifies the same cells on every machine and every re-run
    (results stay cacheable), while the full-Python verify pass -- the
    dominant non-mapping cost at 1024 qubits -- is paid only on the sample.
    ``params`` carries the cell's remaining identity (approach options like
    the SABRE seed, workload parameters): without it, every cell of a
    single-topology seed sweep would share one all-or-nothing decision.
    Engine-selection options (:data:`~repro.approaches.ENGINE_KWARGS`, e.g.
    the SABRE routing kernel) are excluded -- they cannot change what the
    cell computes, so they must not change which cells get verified either
    (a forked decision would fork the ``verified`` field, giving one cell
    two results depending on which engine ran it).
    """

    tail = ";".join(
        f"{k}={v!r}"
        for k, v in sorted((str(k), v) for k, v in params)
        if k not in ENGINE_KWARGS
    )
    digest = hashlib.sha256(
        f"{approach}|{kind}|{size}|{workload}|{tail}".encode()
    ).digest()
    return digest[0] < _SAMPLE_VERIFY_THRESHOLD


def run_cell(
    approach: str,
    kind: str,
    size: int,
    *,
    workload: str = "qft",
    workload_params: Optional[Dict[str, object]] = None,
    num_qubits: Optional[int] = None,
    verify: Union[bool, str] = True,
    max_qubits: Optional[int] = None,
    timeout_s: Optional[float] = None,
    topology: Optional[Topology] = None,
    **kwargs,
) -> CompilationResult:
    """Compile one workload with one approach on one architecture instance.

    ``verify`` is the verification policy: ``"full"`` (or ``True``, the
    default) runs every check, ``"off"`` (or ``False``) none, and
    ``"sample"`` a deterministic ~25% subsample of cells (see
    :func:`sample_verifies`) -- the full-Python verify pass is the dominant
    non-mapping cost at 1024 qubits, and a sampled sweep still catches a
    broken mapper while paying it on a quarter of the cells.  Non-default
    policies are recorded in the result's ``extra["verify_policy"]`` (and
    are part of the harness cache key).

    ``num_qubits`` sets the workload instance size (defaults to the full
    device), mirroring ``repro.compile`` -- the serve layer uses it to run
    kernels smaller than the device through the same cell machinery.

    ``max_qubits`` marks the cell as "skipped" (instead of running for hours)
    when the instance exceeds the harness cap for that approach -- this is how
    the benchmark suite keeps SABRE runs bounded while still reporting the
    full sweep for the analytical approach.  Omitted, the approach's
    registered default cap (if any) applies.

    ``timeout_s`` is the per-cell budget of :func:`repro.compile`: the
    mapping stops at its next budget poll once the budget elapses, and the
    cell is reported as ``status == "timeout"`` (the paper's TLE).  The
    budget applies to every approach, on any thread; for SATMAP it
    *replaces* the stand-in's own 60 s limit.

    ``topology`` optionally injects a prebuilt (shared) topology instance, so
    topology-grouped sweeps reuse one instance -- and its cached distance
    matrix / routing tables -- across all the cells of a group.

    Architecture construction errors (e.g. an odd Sycamore patch size) and
    SABRE runs that do not converge (:class:`SabreNotConverged`) are
    reported as a ``status == "error"`` result, and approaches that cannot
    compile the cell's workload/architecture combination as
    ``status == "unsupported"``, rather than raised -- one bad cell cannot
    kill a whole sweep.  An unknown approach, kind, workload or option still
    raises -- those are caller bugs, not per-cell failures.
    """

    label = architecture_label(kind, size)
    get_approach(approach)  # unknown approach: caller bug, raises with hints
    wl = get_workload(workload)  # unknown workload: likewise
    policy = {True: "full", False: "off"}.get(verify, verify)
    if policy not in ("full", "sample", "off"):
        raise ValueError(
            f"unknown verify policy {verify!r} (one of 'full', 'sample', 'off')"
        )
    if policy == "sample":
        do_verify = sample_verifies(
            approach,
            kind,
            size,
            workload,
            params=[*kwargs.items(), *(workload_params or {}).items()],
        )
    else:
        do_verify = policy == "full"
    if topology is None:
        ARCHITECTURES.get(kind)  # unknown kind: caller bug, raises with hints
        try:
            topology = make_architecture(kind, size)
        except ValueError as exc:
            return CompilationResult(
                approach=approach,
                architecture=label,
                num_qubits=0,
                status="error",
                message=str(exc),
                workload=wl.name,
            )

    # `max_qubits=None` here means "no explicit cap": fall through to the
    # approach's registered default (repro.compile applies it).
    try:
        result = compile_cell(
            workload=workload,
            architecture=topology,
            approach=approach,
            num_qubits=num_qubits,
            workload_params=workload_params,
            verify=do_verify,
            timeout_s=timeout_s,
            max_qubits=max_qubits,
            **kwargs,
        )
    except SabreNotConverged as exc:
        return CompilationResult(
            approach=approach,
            architecture=label,
            num_qubits=num_qubits if num_qubits is not None else topology.num_qubits,
            status="error",
            message=str(exc),
            workload=wl.name,
        )
    row = result.metrics()
    row.architecture = label  # paper-style label, not the topology's name
    if policy != "full":
        row.extra["verify_policy"] = policy
    return row
