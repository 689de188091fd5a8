"""Evaluation harness: runners, executors, and the declarative run API.

The surface is ``plan()`` / ``execute()`` over registered experiments
(:mod:`repro.eval.runs`) and pluggable executors
(:mod:`repro.eval.executors`); the ``pool`` executor and the compile service
share one supervised worker pool (:mod:`repro.eval.workers`).  Results persist in one place, the SQLite
experiment store (:mod:`repro.store`): :class:`ResultCache` keeps its cells
there, and ``execute(..., store=DB)`` records each run there, resumable
after a crash with ``resume=True``.
"""

from .metrics import CompilationResult, result_from_mapped
from .runners import (
    APPROACHES,
    architecture_label,
    make_architecture,
    run_cell,
    sample_verifies,
)
from .cache import CacheMergeConflict, ResultCache, cell_key, code_version
from .parallel import CellSpec
from .executors import (
    EXECUTOR_REGISTRY,
    ExecutionContext,
    ExecutionOutcome,
    Executor,
    executor_names,
    get_executor,
    register_executor,
    run_specs,
)
from .runs import (
    EXPERIMENT_REGISTRY,
    ExperimentEntry,
    RunPlan,
    RunReport,
    adhoc_plan,
    execute,
    experiment_names,
    get_experiment,
    partition_cells,
    plan,
    register_experiment,
)
from .tables import format_results, format_series, format_table
from .experiments import PAPER, QUICK, Profile

__all__ = [
    "CompilationResult",
    "result_from_mapped",
    "APPROACHES",
    "architecture_label",
    "make_architecture",
    "run_cell",
    "sample_verifies",
    "ResultCache",
    "CacheMergeConflict",
    "code_version",
    "CellSpec",
    "cell_key",
    "EXECUTOR_REGISTRY",
    "ExecutionContext",
    "ExecutionOutcome",
    "Executor",
    "executor_names",
    "get_executor",
    "register_executor",
    "run_specs",
    "EXPERIMENT_REGISTRY",
    "ExperimentEntry",
    "RunPlan",
    "RunReport",
    "adhoc_plan",
    "execute",
    "experiment_names",
    "get_experiment",
    "partition_cells",
    "plan",
    "register_experiment",
    "format_results",
    "format_series",
    "format_table",
    "PAPER",
    "QUICK",
    "Profile",
]
