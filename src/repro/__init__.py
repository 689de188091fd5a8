"""repro -- reproduction of "Optimizing QFT Kernels for Modern NISQ and FT
Architectures" (SC 2024).

Public API highlights
---------------------

The entry point (:mod:`repro.compile_api`):
    ``repro.compile(workload="qft", architecture="grid", size=9,
    approach="ours")`` -- one registry-driven call covering every workload,
    architecture and approach; returns a ``CompileResult`` bundling the
    mapped circuit, metrics, verification outcome and wall-clock.

Registries (:mod:`repro.workloads`, :mod:`repro.approaches`,
:mod:`repro.arch.registry`):
    ``register_workload`` / ``register_approach`` / ``register_architecture``
    plug new circuit families, mappers and backends into every consumer
    (``repro.compile``, the evaluation harness, the CLI) at once.

Architectures (:mod:`repro.arch`):
    ``LNNTopology``, ``GridTopology``, ``SycamoreTopology``,
    ``CaterpillarTopology`` / ``HeavyHexTopology``, ``LatticeSurgeryTopology``.

Compilation (:mod:`repro.core`):
    the individual mappers (``LNNQFTMapper``, ``HeavyHexQFTMapper``,
    ``SycamoreQFTMapper``, ``LatticeSurgeryQFTMapper``, ``GridQFTMapper``).

Serving (:mod:`repro.serve`):
    ``python -m repro.serve`` -- asyncio HTTP service over warm workers;
    ``CompileRequest`` / ``CompileResponse`` are the versioned wire schema
    (re-exported here) and ``ServeClient`` the blocking client.

Baselines (:mod:`repro.baselines`):
    ``SabreMapper`` (re-implemented SABRE), ``SatmapMapper`` (exact
    branch-and-bound stand-in for SATMAP), ``LNNPathMapper``.

Verification (:mod:`repro.verify`):
    ``verify_mapped_qft(mapped)`` -- structural + statevector checks; each
    workload also carries its own ``verify`` path.

Evaluation (:mod:`repro.eval`):
    experiment runners regenerating Table 1 and Figures 17-19/27.
"""

from .arch import (
    CaterpillarTopology,
    GridTopology,
    HeavyHexTopology,
    LatticeSurgeryTopology,
    LNNTopology,
    SycamoreTopology,
    Topology,
    TwoRowTopology,
)
from .circuit import (
    Circuit,
    Gate,
    GateKind,
    MappedCircuit,
    MappingBuilder,
    Op,
    PartitionRange,
    qft_angle,
    qft_circuit,
    qft_partitioned,
)
from .core import (
    GreedyRouterMapper,
    GridQFTMapper,
    HeavyHexQFTMapper,
    LatticeSurgeryQFTMapper,
    LNNQFTMapper,
    QFTDependenceTracker,
    SycamoreQFTMapper,
    mapper_for,
)
from .verify import verify_mapped_qft
from .registry import (
    DuplicateRegistrationError,
    Registry,
    UnknownNameError,
    UnsupportedWorkload,
)
from .arch import (
    architecture_key,
    architecture_label,
    architecture_names,
    make_architecture,
    register_architecture,
)
from .workloads import (
    VerifyResult,
    Workload,
    get_workload,
    register_workload,
    workload_names,
)
from .approaches import (
    ApproachEntry,
    approach_names,
    get_approach,
    make_mapper,
    register_approach,
)
from .compile_api import CompileResult, compile

# the serve wire schema is part of the top-level surface: repro.compile
# kwargs and the HTTP request body share these field names verbatim
from .serve.api import ApiError, CompileRequest, CompileResponse

__version__ = "2.0.0"

__all__ = [
    "CaterpillarTopology",
    "GridTopology",
    "HeavyHexTopology",
    "LatticeSurgeryTopology",
    "LNNTopology",
    "SycamoreTopology",
    "Topology",
    "TwoRowTopology",
    "Circuit",
    "Gate",
    "GateKind",
    "MappedCircuit",
    "MappingBuilder",
    "Op",
    "PartitionRange",
    "qft_angle",
    "qft_circuit",
    "qft_partitioned",
    "GreedyRouterMapper",
    "GridQFTMapper",
    "HeavyHexQFTMapper",
    "LatticeSurgeryQFTMapper",
    "LNNQFTMapper",
    "QFTDependenceTracker",
    "SycamoreQFTMapper",
    "mapper_for",
    "verify_mapped_qft",
    "Registry",
    "UnknownNameError",
    "DuplicateRegistrationError",
    "UnsupportedWorkload",
    "architecture_key",
    "architecture_label",
    "architecture_names",
    "make_architecture",
    "register_architecture",
    "VerifyResult",
    "Workload",
    "get_workload",
    "register_workload",
    "workload_names",
    "ApproachEntry",
    "approach_names",
    "get_approach",
    "make_mapper",
    "register_approach",
    "CompileResult",
    "compile",
    "ApiError",
    "CompileRequest",
    "CompileResponse",
    "__version__",
]
