"""Result records and metric extraction for the evaluation harness.

Metric extraction is one pass over the mapped circuit's op columns (see
:class:`repro.circuit.schedule.OpStream`).  The gate counts are counts over
the kind-code column; the topology prices every op in one vectorized
``op_latency_array`` call over numpy copies of the kind and operand columns.
Both ASAP depths -- unit (every op one cycle) and weighted (the topology's
cost model) -- then come out of a single plain loop over the columns, which
keeps the two per-qubit busy times side by side.  The loop costs O(ops)
however parallel or serial the stream is, and builds no ``Op``.  The scalar
reference (:func:`repro.circuit.schedule.asap_depth`) is the test oracle,
and it stays the path for topologies that override the scalar ``op_latency``
without providing ``op_latency_array``, so a custom cost model is never
silently mis-priced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..circuit.gates import KIND_CODES, GateKind
from ..circuit.schedule import MappedCircuit, asap_depth

__all__ = [
    "CompilationResult",
    "result_from_mapped",
    "mapped_op_arrays",
    "fast_metrics",
]


def mapped_op_arrays(
    mapped: MappedCircuit,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(kind codes, q0, q1)`` numpy arrays of ``mapped``'s op columns.

    ``q1`` is ``-1`` for single-qubit ops, and ``q0`` and ``q1`` are ``-1``
    for barriers; kind codes follow :data:`~repro.circuit.gates.KIND_CODES`.
    """

    ops = mapped.ops
    return (
        np.array(ops.kinds, dtype=np.int8),
        np.array(ops.p0, dtype=np.int64),
        np.array(ops.p1, dtype=np.int64),
    )


def fast_metrics(mapped: MappedCircuit) -> Tuple[int, int, int, int]:
    """``(depth, unit_depth, swap_count, cphase_count)`` in one pass.

    Both depths are bit-equal to :func:`~repro.circuit.schedule.asap_depth`.
    A barrier is a global fence: it lifts every busy time to the latest
    finish so far.  Latencies are non-negative, so a qubit's busy time never
    falls and each depth is the largest busy time at the end.  Falls back to
    the scalar reference when the topology has no vectorized latency model
    (custom ``op_latency`` override without ``op_latency_array``).
    """

    ops = mapped.ops
    swap_count = ops.kinds.count(KIND_CODES[GateKind.SWAP])
    cphase_count = ops.kinds.count(KIND_CODES[GateKind.CPHASE])
    topology = mapped.topology
    lat = topology.op_latency_array(*mapped_op_arrays(mapped))
    if lat is None:
        depth = asap_depth(ops, topology.op_latency)
        unit_depth = asap_depth(ops, lambda op: 1)
        return depth, unit_depth, swap_count, cphase_count

    barrier = KIND_CODES[GateKind.BARRIER]
    num_sites = topology.num_qubits
    unit = [0] * num_sites  # per-qubit busy-until cycle, every op one cycle
    busy = [0] * num_sites  # the same under the topology's cost model
    costs = np.asarray(lat, dtype=np.int64).tolist()
    for kind, a, b, cost in zip(ops.kinds, ops.p0, ops.p1, costs):
        if b >= 0:
            start = unit[a]
            if unit[b] > start:
                start = unit[b]
            unit[a] = unit[b] = start + 1
            start = busy[a]
            if busy[b] > start:
                start = busy[b]
            busy[a] = busy[b] = start + cost
        elif kind == barrier:
            unit = [max(unit)] * num_sites
            busy = [max(busy)] * num_sites
        else:
            unit[a] += 1
            busy[a] += cost
    return max(busy), max(unit), swap_count, cphase_count


def _jsonify(value: object) -> object:
    """Coerce a metadata value to something json.dumps accepts."""

    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return str(value)


@dataclass
class CompilationResult:
    """One cell of a results table: a (workload, approach, architecture,
    size) tuple.

    ``status`` is ``"ok"``, ``"timeout"`` (the paper's TLE), ``"skipped"``
    (size above the harness cap for that approach) or ``"unsupported"``
    (the approach cannot compile this workload/architecture combination).
    Metric fields are ``None`` unless ``status == "ok"``.
    """

    approach: str
    architecture: str
    num_qubits: int
    status: str = "ok"
    depth: Optional[int] = None
    unit_depth: Optional[int] = None
    swap_count: Optional[int] = None
    cphase_count: Optional[int] = None
    total_ops: Optional[int] = None
    compile_time_s: Optional[float] = None
    verified: Optional[bool] = None
    message: Optional[str] = None
    extra: Dict[str, object] = field(default_factory=dict)
    workload: str = "qft"

    # -- convenience -------------------------------------------------------
    @property
    def ok(self) -> bool:
        return self.status == "ok"

    # -- (de)serialisation (used by the on-disk result cache) --------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict representation (``extra`` values coerced via str)."""

        return {
            "workload": self.workload,
            "approach": self.approach,
            "architecture": self.architecture,
            "num_qubits": self.num_qubits,
            "status": self.status,
            "depth": self.depth,
            "unit_depth": self.unit_depth,
            "swap_count": self.swap_count,
            "cphase_count": self.cphase_count,
            "total_ops": self.total_ops,
            "compile_time_s": self.compile_time_s,
            "verified": self.verified,
            "message": self.message,
            "extra": {k: _jsonify(v) for k, v in self.extra.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CompilationResult":
        fields = {
            "workload",
            "approach",
            "architecture",
            "num_qubits",
            "status",
            "depth",
            "unit_depth",
            "swap_count",
            "cphase_count",
            "total_ops",
            "compile_time_s",
            "verified",
            "message",
            "extra",
        }
        return cls(**{k: v for k, v in data.items() if k in fields})

    def depth_per_qubit(self) -> Optional[float]:
        if self.depth is None or self.num_qubits == 0:
            return None
        return self.depth / self.num_qubits

    def as_row(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "approach": self.approach,
            "architecture": self.architecture,
            "qubits": self.num_qubits,
            "status": self.status,
            "depth": self.depth if self.depth is not None else "-",
            "swaps": self.swap_count if self.swap_count is not None else "-",
            "cphase": self.cphase_count if self.cphase_count is not None else "-",
            "compile_s": (
                f"{self.compile_time_s:.2f}" if self.compile_time_s is not None else "-"
            ),
            "verified": self.verified if self.verified is not None else "-",
            "message": self.message or "",
        }


def result_from_mapped(
    approach: str,
    architecture: str,
    mapped: MappedCircuit,
    compile_time_s: float,
    verified: Optional[bool] = None,
    *,
    workload: str = "qft",
) -> CompilationResult:
    """Build a :class:`CompilationResult` from a mapped circuit.

    The depths and gate counts come from :func:`fast_metrics`, one pass
    over the op columns (looked up through the module, so a wrapper
    installed on ``repro.eval.metrics.fast_metrics`` sees every call).
    """

    depth, unit_depth, swap_count, cphase_count = fast_metrics(mapped)
    return CompilationResult(
        approach=approach,
        architecture=architecture,
        num_qubits=mapped.num_logical,
        status="ok",
        depth=depth,
        unit_depth=unit_depth,
        swap_count=swap_count,
        cphase_count=cphase_count,
        total_ops=len(mapped.ops),
        compile_time_s=compile_time_s,
        verified=verified,
        extra=dict(mapped.metadata),
        workload=workload,
    )
