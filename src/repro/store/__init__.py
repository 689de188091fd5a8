"""`repro.store`: the SQLite-backed experiment store.

One WAL-mode database is the only place results persist: the result cache
(``ResultCache`` rows) and run records (``execute(..., store=DB)``), behind
indexed queries.

``ResultCache`` stores cells here, and every executor records its run here
through :class:`RunRecorder` (``--store``; ``--resume`` continues the
newest run of the same plan).  CLI: ``python -m repro.store`` (``query``,
``runs``, ``info``).
"""

from .schema import SCHEMA_VERSION, ensure_schema
from .store import (
    ExperimentStore,
    RunRecorder,
    comparable_result,
    identity_columns,
    result_fingerprint,
)

__all__ = [
    "ExperimentStore",
    "RunRecorder",
    "SCHEMA_VERSION",
    "comparable_result",
    "ensure_schema",
    "identity_columns",
    "result_fingerprint",
]
