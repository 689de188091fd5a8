"""``repro.serve`` -- the compilation service.

An asyncio HTTP/JSON front door over :func:`repro.compile`: prewarmed
forked workers (the shared :class:`~repro.eval.workers.WarmWorkerPool`
running :func:`.pool.serve_task`), online batching by topology group and
bounded-queue admission control (:mod:`.server`), an in-memory LRU over
the batch harness's cache keys (:mod:`.lru`), and the versioned
request/response schema shared with the library (:mod:`.api`).  Run it
with ``python -m repro.serve``; talk to it with
:class:`~repro.serve.client.ServeClient`.
"""

from .api import (
    API_VERSION,
    ApiError,
    CompileRequest,
    CompileResponse,
    execute_request,
)
from .client import (
    ServeClient,
    ServeError,
    ServeOverloaded,
    ServeRequestError,
    ServeUnreachable,
)
from .lru import LRUCache
from .pool import PoolShutdown, WarmWorkerPool
from .server import CompileService, ServeConfig

__all__ = [
    "API_VERSION",
    "ApiError",
    "CompileRequest",
    "CompileResponse",
    "CompileService",
    "LRUCache",
    "PoolShutdown",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeOverloaded",
    "ServeRequestError",
    "ServeUnreachable",
    "WarmWorkerPool",
    "execute_request",
]
