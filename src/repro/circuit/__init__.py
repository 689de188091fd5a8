"""Circuit intermediate representation: gates, logical circuits, QFT builders,
the QFT dependence-order checkers and mapped-circuit scheduling."""

from .circuit import Circuit
from .dag import qft_type1_order_ok, qft_type2_order_ok
from .gates import (
    CNOT,
    CPHASE,
    H,
    RZ,
    SWAP,
    Gate,
    GateKind,
    Op,
    qft_angle,
)
from .qft import (
    PartitionRange,
    qft_circuit,
    qft_ia_gates,
    qft_ie_gates,
    qft_interaction_count,
    qft_pair_list,
    qft_partitioned,
)
from .schedule import MappedCircuit, MappingBuilder

__all__ = [
    "Circuit",
    "qft_type1_order_ok",
    "qft_type2_order_ok",
    "CNOT",
    "CPHASE",
    "H",
    "RZ",
    "SWAP",
    "Gate",
    "GateKind",
    "Op",
    "qft_angle",
    "PartitionRange",
    "qft_circuit",
    "qft_ia_gates",
    "qft_ie_gates",
    "qft_interaction_count",
    "qft_pair_list",
    "qft_partitioned",
    "MappedCircuit",
    "MappingBuilder",
]
