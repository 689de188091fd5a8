"""The cell spec: one evaluation cell, as a hashable, picklable value.

:func:`repro.eval.executors.run_specs` runs lists of :class:`CellSpec`, in
order or on the worker pool; :mod:`repro.eval.runs` builds them into plans
(``plan()`` / ``execute()`` over registered experiments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..utils import normalize_verify

__all__ = ["CellSpec"]


@dataclass(frozen=True)
class CellSpec:
    """One evaluation cell: ``run_cell(approach, kind, size, **kwargs)``.

    ``kwargs`` is stored as a sorted tuple of pairs so specs are hashable and
    picklable (process-pool workers receive the spec itself).  ``rename``
    optionally overrides the reported approach label, e.g. ``sabre-seed3``
    for the Fig. 27 seed sweep.  ``timeout_s`` is the harness-enforced
    per-cell budget: a cell that exceeds it is reported as a
    ``status == "timeout"`` result (the paper's TLE) instead of leaving
    wall-clock checks to the approaches themselves.  ``workload`` names the
    registered circuit family the cell compiles (default the paper's QFT
    kernel); ``workload_params`` are its build parameters, stored sorted for
    the same hashability reason as ``kwargs``.  ``verify`` is the cell's
    verification policy -- ``"full"`` (every check, the default),
    ``"sample"`` (deterministic per-cell subsample; the full-Python verify
    pass dominates non-mapping cost at 1024 qubits) or ``"off"``, with
    ``True``/``False`` read as ``"full"``/``"off"`` -- and is part of the
    cache key, so results always record which policy produced them.
    """

    approach: str
    kind: str
    size: int
    kwargs: Tuple[Tuple[str, object], ...] = ()
    rename: Optional[str] = None
    timeout_s: Optional[float] = None
    workload: str = "qft"
    workload_params: Tuple[Tuple[str, object], ...] = ()
    verify: str = "full"

    @classmethod
    def make(
        cls,
        approach: str,
        kind: str,
        size: int,
        *,
        rename: Optional[str] = None,
        timeout_s: Optional[float] = None,
        workload: str = "qft",
        workload_params: Optional[Dict[str, object]] = None,
        verify: Union[bool, str] = "full",
        **kwargs: object,
    ) -> "CellSpec":
        return cls(
            approach,
            kind,
            size,
            tuple(sorted(kwargs.items())),
            rename,
            timeout_s,
            workload,
            tuple(sorted((workload_params or {}).items())),
            normalize_verify(verify),
        )
