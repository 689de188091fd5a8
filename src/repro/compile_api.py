"""``repro.compile`` -- the one registry-driven compiler entry point.

Everything the repo can compile goes through this function::

    import repro

    result = repro.compile(workload="qft", architecture="grid", size=9,
                           approach="ours")
    result.mapped          # the MappedCircuit
    result.verification    # workload-specific VerifyResult (or None)
    result.wall_s          # compile wall-clock (mapping only)

``workload``, ``architecture`` and ``approach`` are names resolved through
the three registries (:mod:`repro.workloads`, :mod:`repro.arch.registry`,
:mod:`repro.approaches`); any registered synonym works, and unknown names
raise :class:`~repro.registry.UnknownNameError` with did-you-mean
suggestions.  ``architecture`` also accepts a ready-made
:class:`~repro.arch.topology.Topology` instance (then ``size`` is ignored).

Outcomes are typed, never stringly ad hoc: ``status`` is

* ``"ok"``          -- compiled (and, if requested, verified),
* ``"unsupported"`` -- the approach cannot compile this workload /
  architecture combination (e.g. an analytic QFT specialist asked for QAOA);
  the typed :class:`~repro.registry.UnsupportedWorkload` refusal, surfaced
  as a result so sweeps over the full cross-product keep going,
* ``"skipped"``     -- instance exceeds the approach's size cap,
* ``"timeout"``     -- the ``timeout_s`` budget ran out (the paper's TLE).

Caller bugs -- unknown names, misspelled options, invalid sizes -- raise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from .approaches import get_approach, make_mapper
from .arch.registry import architecture_label, make_architecture
from .arch.topology import Topology
from .baselines import SatmapTimeout
from .circuit.schedule import MappedCircuit
from .registry import UnsupportedWorkload
from .utils import CellBudgetExceeded, cell_budget
from .workloads import VerifyResult, get_workload

__all__ = ["CompileResult", "compile"]


@dataclass
class CompileResult:
    """Everything one ``repro.compile`` call produced.

    ``metrics()`` renders the result as the evaluation harness's
    :class:`~repro.eval.metrics.CompilationResult` row (lazy, so the core
    API does not depend on the harness).
    """

    workload: str
    approach: str
    architecture: str
    num_qubits: int
    status: str
    mapped: Optional[MappedCircuit] = None
    verification: Optional[VerifyResult] = None
    wall_s: Optional[float] = None
    message: str = ""
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def verified(self) -> Optional[bool]:
        return None if self.verification is None else self.verification.ok

    def metrics(self):
        """This result as an eval-harness :class:`CompilationResult` row."""

        from .eval.metrics import CompilationResult, result_from_mapped

        if self.status == "ok" and self.mapped is not None:
            return result_from_mapped(
                self.approach,
                self.architecture,
                self.mapped,
                self.wall_s,
                self.verified,
                workload=self.workload,
            )
        return CompilationResult(
            approach=self.approach,
            architecture=self.architecture,
            num_qubits=self.num_qubits,
            status=self.status,
            compile_time_s=self.wall_s,
            message=self.message or None,
            workload=self.workload,
        )

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CompileResult({self.workload!r} on {self.architecture!r} via "
            f"{self.approach!r}: {self.status}, n={self.num_qubits})"
        )


def compile(
    workload: str = "qft",
    architecture: Union[str, Topology] = "grid",
    size: Optional[int] = None,
    approach: str = "ours",
    *,
    num_qubits: Optional[int] = None,
    workload_params: Optional[Dict[str, object]] = None,
    verify: bool = True,
    timeout_s: Optional[float] = None,
    max_qubits: Optional[int] = None,
    **opts: object,
) -> CompileResult:
    """Compile ``workload`` for ``architecture`` with ``approach``.

    Parameters
    ----------
    workload / architecture / approach:
        Registry names (any registered synonym).  ``architecture`` may also
        be a :class:`Topology` instance, in which case ``size`` is ignored.
    size:
        The architecture's paper-style size parameter (required when
        ``architecture`` is a name).
    num_qubits:
        Workload instance size; defaults to the full device.
    workload_params:
        Parameters of the workload family (e.g. ``{"seed": 3, "layers": 2}``
        for QAOA).  Kept separate from ``**opts`` because approach options
        and workload parameters may share names (``seed``).
    verify:
        Run the workload's verification (structural at every size, dense
        statevector cross-check on small instances).
    timeout_s:
        Harness-level wall-clock budget; exceeding it yields
        ``status == "timeout"`` instead of raising.
    max_qubits:
        Size cap override; instances above the cap (or above the approach's
        registered default cap) are reported as ``status == "skipped"``.
    **opts:
        Approach options (validated against the registry entry, e.g.
        ``seed``/``passes``/``kernel`` for SABRE, ``strict_ie`` for
        ours).
    """

    wl = get_workload(workload)
    params = wl.resolve_params(**(workload_params or {}))
    entry = get_approach(approach)
    entry.validate_kwargs(opts)

    if isinstance(architecture, Topology):
        topology = architecture
        label = topology.name
    else:
        if size is None:
            raise ValueError(
                "size is required when architecture is given by name "
                f"(got architecture={architecture!r})"
            )
        label = architecture_label(architecture, size)
        topology = make_architecture(architecture, size)

    n = num_qubits if num_qubits is not None else topology.num_qubits
    cap = max_qubits if max_qubits is not None else entry.max_qubits
    # The cap guards against approach cost, and for placement-style searches
    # (SATMAP) that cost is driven by the *device* size, not the workload
    # size -- a small kernel on a huge device still searches every site.
    if cap is not None and max(n, topology.num_qubits) > cap:
        return CompileResult(
            workload=wl.name,
            approach=entry.name,
            architecture=label,
            num_qubits=n,
            status="skipped",
            message=f"instance exceeds the {cap}-qubit cap for {entry.name!r}",
            params=params,
        )

    start = time.perf_counter()
    try:
        with cell_budget(timeout_s) as armed:
            # With the harness budget armed, SATMAP's internal wall-clock
            # checks are redundant -- let SIGALRM be the one clock.  Without
            # it (non-main thread, non-Unix), the internal deadline is the
            # fallback.
            internal_timeout = None
            if timeout_s is not None:
                internal_timeout = float("inf") if armed else float(timeout_s)
            mapper = make_mapper(
                approach, topology, timeout_s=internal_timeout, **opts
            )
            start = time.perf_counter()
            mapped = wl.map_with(mapper, n, **params)
    except UnsupportedWorkload as exc:
        return CompileResult(
            workload=wl.name,
            approach=entry.name,
            architecture=label,
            num_qubits=n,
            status="unsupported",
            message=str(exc),
            params=params,
        )
    except (SatmapTimeout, CellBudgetExceeded):
        return CompileResult(
            workload=wl.name,
            approach=entry.name,
            architecture=label,
            num_qubits=n,
            status="timeout",
            wall_s=time.perf_counter() - start,
            params=params,
        )
    wall = time.perf_counter() - start

    verification: Optional[VerifyResult] = None
    if verify:
        verification = wl.verify(mapped, n, **params)

    return CompileResult(
        workload=wl.name,
        approach=entry.name,
        architecture=label,
        num_qubits=n,
        status="ok",
        mapped=mapped,
        verification=verification,
        wall_s=wall,
        params=params,
    )
