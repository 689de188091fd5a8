"""Result records and metric extraction for the evaluation harness.

Metric extraction is one pass over the mapped circuit's op columns (see
:class:`repro.circuit.schedule.OpStream`).  The gate counts are counts over
the kind-code column, and both ASAP depths -- unit (every op one cycle) and
weighted (the topology's cost model, ``op_latency_array``) -- come from
:meth:`repro.circuit.schedule.MappedCircuit.depths`, the library's one depth
loop, which ``MappedCircuit.depth()`` and ``unit_depth()`` run as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..circuit.schedule import MappedCircuit

__all__ = [
    "CompilationResult",
    "result_from_mapped",
    "fast_metrics",
]


def fast_metrics(mapped: MappedCircuit) -> Tuple[int, int, int, int]:
    """``(depth, unit_depth, swap_count, cphase_count)``: both depths from
    one :meth:`~repro.circuit.schedule.MappedCircuit.depths` pass and the
    counts from the kind column."""

    depth, unit_depth = mapped.depths()
    return depth, unit_depth, mapped.swap_count(), mapped.cphase_count()


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
