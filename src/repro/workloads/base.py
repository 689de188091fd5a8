"""The :class:`Workload` protocol and the workload registry.

A *workload* is a named circuit family the compiler can target: it knows how
to build an instance (``build``), how to verify a mapped result the way the
paper verifies its outputs (``verify``: dense statevector cross-check where
small, structural invariants at every size), and how to drive a mapper
(``map_with``, which lets a workload expose an analytic fast path -- the QFT
workload hands QFT-specialist mappers their ``map_qft`` entry directly
instead of materialising half a million gate objects first).

New families plug in with::

    @register_workload
    class MyWorkload(Workload):
        name = "mine"
        defaults = {"seed": 0}

        def build(self, num_qubits, *, seed=0):
            ...

Everything downstream -- :func:`repro.compile`, ``run_cell``,
``python -m repro.eval --workload mine`` -- picks the name up from the
registry; there is no second list to update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Type

from ..circuit.circuit import Circuit
from ..circuit.schedule import MappedCircuit
from ..registry import Registry, UnsupportedWorkload
from ..utils import BoundedCache
from ..verify.checker import DEFAULT_STATEVECTOR_LIMIT
from ..verify.generic import check_mapped_matches_circuit
from ..verify.statevector import (
    circuit_unitary,
    mapped_events_unitary,
    unitaries_equal_up_to_phase,
)

__all__ = [
    "VerifyResult",
    "Workload",
    "WORKLOADS",
    "register_workload",
    "get_workload",
    "workload_names",
]


@dataclass
class VerifyResult:
    """Outcome of a workload's verification of a mapped circuit.

    ``ok`` combines every check that ran; ``unitary_checked`` records whether
    the instance was small enough for the dense statevector cross-check (the
    structural invariants run at every size).
    """

    ok: bool
    unitary_checked: bool = False
    detail: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class Workload:
    """Base class for registered circuit families.

    Subclasses set ``name`` (the registry key), optionally ``synonyms`` and
    ``defaults`` (recognised build parameters with their default values --
    unknown parameters raise, exactly like approach kwargs), and implement
    :meth:`build`.  The default :meth:`verify` replays the mapped circuit
    against the built program (adjacency, honest layout tracking, and
    gate-for-gate dependence-respecting coverage) and cross-checks the
    unitary on small instances; workloads with stronger invariants (QFT)
    override it.
    """

    name: str = ""
    synonyms: tuple = ()
    #: recognised build parameters and their defaults
    defaults: Dict[str, object] = {}

    def __init__(self) -> None:
        # Tiny per-workload memo so one compile() call builds the program
        # once, not once for mapping and again for verification (a 1024-qubit
        # random instance is ~270k gate objects).  Entries are shared; the
        # pipeline never mutates built circuits.
        self._build_memo: BoundedCache = BoundedCache(2)

    # -- parameters --------------------------------------------------------
    def resolve_params(self, **params: object) -> Dict[str, object]:
        """Merge ``params`` over the declared defaults; reject unknown keys."""

        unknown = set(params) - set(self.defaults)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) for workload {self.name!r}: "
                f"{sorted(unknown)} (accepted: {sorted(self.defaults) or 'none'})"
            )
        merged = dict(self.defaults)
        merged.update(params)
        return merged

    # -- construction ------------------------------------------------------
    def build(self, num_qubits: int, **params: object) -> Circuit:
        """Build the ``num_qubits``-qubit instance of this family."""

        raise NotImplementedError

    def build_cached(self, num_qubits: int, **params: object) -> Circuit:
        """:meth:`build` through the per-workload memo (params resolved)."""

        p = self.resolve_params(**params)
        try:
            key = (num_qubits, tuple(sorted(p.items())))
        except TypeError:  # unhashable plugin param: skip the memo
            return self.build(num_qubits, **p)
        hit = self._build_memo.lookup(key)
        if hit is not None:
            return hit
        return self._build_memo.store(key, self.build(num_qubits, **p))

    # -- compilation -------------------------------------------------------
    def map_with(
        self, mapper: object, num_qubits: int, **params: object
    ) -> MappedCircuit:
        """Compile this workload with ``mapper`` (uniform ``map_circuit``).

        Raises :class:`~repro.registry.UnsupportedWorkload` when the mapper
        cannot handle this family.  Subclasses may override to route through
        an analytic fast path (see the QFT workload).
        """

        map_circuit = getattr(mapper, "map_circuit", None)
        if map_circuit is None:
            raise UnsupportedWorkload(
                f"mapper {getattr(mapper, 'name', type(mapper).__name__)!r} has "
                f"no map_circuit surface and cannot compile workload {self.name!r}"
            )
        return map_circuit(self.build_cached(num_qubits, **params))

    # -- verification ------------------------------------------------------
    def verify(
        self,
        mapped: MappedCircuit,
        num_qubits: Optional[int] = None,
        *,
        statevector_limit: int = DEFAULT_STATEVECTOR_LIMIT,
        **params: object,
    ) -> VerifyResult:
        n = num_qubits if num_qubits is not None else mapped.num_logical
        circuit = self.build_cached(n, **params)
        report = check_mapped_matches_circuit(mapped, circuit)
        if not report.ok:
            return VerifyResult(ok=False, detail=report.summary())
        if n <= statevector_limit:
            reference = circuit_unitary(circuit)
            actual = mapped_events_unitary(n, mapped.logical_gate_events())
            if not unitaries_equal_up_to_phase(actual, reference):
                return VerifyResult(
                    ok=False,
                    unitary_checked=True,
                    detail="unitary differs from the program circuit",
                )
            return VerifyResult(ok=True, unitary_checked=True)
        return VerifyResult(ok=True)


#: the process-wide workload registry (instances, not classes)
WORKLOADS: Registry[Workload] = Registry("workload")


def register_workload(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator: instantiate and register a :class:`Workload`."""

    instance = cls()
    if not instance.name:
        raise ValueError(f"workload class {cls.__name__} must set a name")
    WORKLOADS.register(instance.name, instance, synonyms=instance.synonyms)
    return cls


def get_workload(name: str) -> Workload:
    """Resolve a workload by any registered spelling (raises with hints)."""

    return WORKLOADS.get(name)


def workload_names() -> tuple:
    """Canonical names of every registered workload."""

    return WORKLOADS.names()
