"""Evaluation harness: runners, the cell engine, and the declarative run API.

The surface is ``plan()`` / ``execute()`` over registered experiments
(:mod:`repro.eval.runs`).  ``execute(plan, jobs=1)`` runs the cells in
order in this process; ``jobs > 1`` runs them, through
:func:`~repro.eval.executors.run_specs`, on the supervised worker pool
(:mod:`repro.eval.workers`) the compile service also runs on.  Results
persist in one place, the SQLite experiment store (:mod:`repro.store`):
:class:`ResultCache` keeps its cells there, and ``execute(..., store=DB)``
records each run there, resumable after a crash with ``resume=True``.
"""

from .metrics import CompilationResult, result_from_mapped
from .runners import (
    architecture_label,
    make_architecture,
    run_cell,
    sample_verifies,
)
from .cache import ResultCache, cell_key, code_version
from .parallel import CellSpec
from .executors import run_specs
from .runs import (
    EXPERIMENT_REGISTRY,
    ExperimentEntry,
    RunPlan,
    RunReport,
    adhoc_plan,
    execute,
    experiment_names,
    get_experiment,
    plan,
    register_experiment,
)
from .tables import format_results, format_series, format_table
from .experiments import PAPER, QUICK, Profile

__all__ = [
    "CompilationResult",
    "result_from_mapped",
    "architecture_label",
    "make_architecture",
    "run_cell",
    "sample_verifies",
    "ResultCache",
    "code_version",
    "CellSpec",
    "cell_key",
    "run_specs",
    "EXPERIMENT_REGISTRY",
    "ExperimentEntry",
    "RunPlan",
    "RunReport",
    "adhoc_plan",
    "execute",
    "experiment_names",
    "get_experiment",
    "plan",
    "register_experiment",
    "format_results",
    "format_series",
    "format_table",
    "PAPER",
    "QUICK",
    "Profile",
]
