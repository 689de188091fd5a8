"""The compile service's worker task, run on the shared warm worker pool.

The pool itself -- prewarmed forked workers, per-worker result pipes, one
supervisor with a crash budget, the orphan watchdog -- is
:class:`repro.eval.workers.WarmWorkerPool`, re-exported here and from
:mod:`repro.serve`.  The server builds it with ``task=serve_task``: each
batch item is one :class:`~repro.serve.api.CompileRequest`, each row the
``CompilationResult`` dict it compiles to.
"""

from __future__ import annotations

from ..eval.workers import PoolShutdown, WarmWorkerPool
from .api import CompileRequest, execute_request

__all__ = ["WarmWorkerPool", "PoolShutdown", "serve_task"]


def serve_task(request: CompileRequest) -> dict:
    """Compile one request inside a pool worker.

    ``execute_request`` is resolved through this module's global at call
    time, so a wrapper installed on ``repro.serve.pool.execute_request``
    (the traced benchmark installs one) sees every served compile.
    """

    return execute_request(request).to_dict()
