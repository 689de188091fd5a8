"""Store-backed cache of :class:`~repro.eval.metrics.CompilationResult` rows.

Every evaluation cell is deterministic given its spec (approach,
architecture kind, size, kwargs such as the SABRE seed) and the code that
produced it, so re-running a sweep can skip any cell that was already
computed.  Cache keys therefore combine the cell spec with a *code version*:
a hash over the ``repro`` package sources, recomputed per process, so editing
the compiler automatically invalidates stale entries instead of silently
serving results from an older algorithm.

A cell's identity is derived once, by :func:`cell_identity`; the cache key
(:func:`cell_cache_key`), the run record's code-free :func:`cell_key` and
the store's indexed :func:`~repro.store.identity_columns` all hash or
denormalize that one dict, so the ``ENGINE_KWARGS`` filter is written once.
:meth:`ResultCache.key` returns a :class:`CellKey`: the key string with the
cell's identity columns attached, which :meth:`ResultCache.put` hands to
the store -- the cache keeps no per-key state of its own.

Rows live in a :class:`repro.store.ExperimentStore` (WAL mode, concurrent
writers), one row per key.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

from ..approaches import ENGINE_KWARGS
from .metrics import CompilationResult

__all__ = [
    "ResultCache",
    "CellKey",
    "cell_identity",
    "cell_cache_key",
    "cell_key",
    "code_version",
]


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of the ``repro`` package sources (12 hex chars, cached)."""

    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        pkg_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            digest.update(str(path.relative_to(pkg_root)).encode())
            digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:12]
    return _CODE_VERSION


def cell_identity(
    approach: str,
    kind: str,
    size: int,
    kwargs: Iterable[Tuple[str, object]] = (),
    rename: Optional[str] = None,
    timeout_s: Optional[float] = None,
    workload: str = "qft",
    workload_params: Iterable[Tuple[str, object]] = (),
    verify: str = "full",
) -> Dict[str, object]:
    """Every spec field that changes what a cell computes, normalized.

    Engine-selection options (``ENGINE_KWARGS``, e.g. the SABRE routing
    kernel) are bit-identical by contract, so they are not part of a
    cell's identity: a sweep must hit the same cache entries, and resume
    the same run, whether the compiled kernel or the Python fallback ran.
    """

    return {
        "approach": approach,
        "kind": kind,
        "size": size,
        "kwargs": sorted(
            (str(k), repr(v)) for k, v in kwargs if str(k) not in ENGINE_KWARGS
        ),
        "rename": rename,
        "timeout_s": timeout_s,
        "workload": workload,
        "workload_params": sorted((str(k), repr(v)) for k, v in workload_params),
        "verify": verify,
    }


def _digest(identity: Dict[str, object]) -> str:
    payload = json.dumps(identity, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def cell_cache_key(
    approach: str,
    kind: str,
    size: int,
    kwargs: Iterable[Tuple[str, object]] = (),
    rename: Optional[str] = None,
    timeout_s: Optional[float] = None,
    workload: str = "qft",
    workload_params: Iterable[Tuple[str, object]] = (),
    verify: str = "full",
    *,
    code: Optional[str] = None,
) -> str:
    """The cache key for one cell spec under code version ``code``.

    This is the single key derivation shared by :meth:`ResultCache.key`
    and the serve layer's in-memory LRU -- both must agree byte-for-byte
    so a served request can hit entries written by batch sweeps (and vice
    versa).  ``code`` defaults to the current :func:`code_version`.
    """

    identity = cell_identity(
        approach, kind, size, kwargs, rename, timeout_s, workload,
        workload_params, verify,
    )
    identity["code"] = code if code is not None else code_version()
    return _digest(identity)


def cell_key(spec) -> str:
    """Code-free content hash of one cell spec (24 hex chars).

    The run record keys its cells by this: the code version is recorded
    once per run, and resuming a run recorded by another code version is
    refused outright rather than silently mixing results from two
    algorithms.
    """

    return _digest(
        cell_identity(
            spec.approach, spec.kind, spec.size, spec.kwargs, spec.rename,
            spec.timeout_s, spec.workload, spec.workload_params, spec.verify,
        )
    )


class CellKey(str):
    """A cache key that carries the identity columns the store indexes.

    :meth:`ResultCache.put` receives only the key, but the store
    denormalizes the spec into indexed columns; the key carries them, so
    the cache itself keeps no per-key state.
    """

    def __new__(cls, key: str, columns: Optional[Dict[str, object]] = None):
        self = super().__new__(cls, key)
        self.columns = columns
        return self


class ResultCache:
    """The result cache: cells in an :class:`~repro.store.ExperimentStore`.

    Parameters
    ----------
    path:
        Database file (conventionally ``*.db``), created on first use.  An
        existing directory -- a cache in the retired one-JSON-file-per-cell
        format -- is refused.
    version:
        Code-version component of every key.  Defaults to
        :func:`code_version`; tests may pin it to probe invalidation.
    """

    def __init__(self, path: os.PathLike, *, version: Optional[str] = None) -> None:
        self.root = Path(path)
        if self.root.is_dir():
            raise IsADirectoryError(
                f"{self.root} is a directory; directory result caches are no "
                "longer supported -- pass a .db path (the cache is a SQLite "
                "experiment store)"
            )
        # Lazy import: repro.store imports repro.eval, which imports us.
        from ..store import ExperimentStore

        self._store = ExperimentStore(self.root)
        self.version = version if version is not None else code_version()
        self.hits = 0
        self.misses = 0

    @property
    def store(self):
        """The backing :class:`~repro.store.ExperimentStore`."""

        return self._store

    def close(self) -> None:
        self._store.close()

    # ------------------------------------------------------------------
    def key(
        self,
        approach: str,
        kind: str,
        size: int,
        kwargs: Iterable[Tuple[str, object]] = (),
        rename: Optional[str] = None,
        timeout_s: Optional[float] = None,
        workload: str = "qft",
        workload_params: Iterable[Tuple[str, object]] = (),
        verify: str = "full",
    ) -> CellKey:
        from ..store.store import columns_of

        identity = cell_identity(
            approach, kind, size, kwargs, rename, timeout_s, workload,
            workload_params, verify,
        )
        columns = columns_of(identity)
        identity["code"] = self.version
        return CellKey(_digest(identity), columns)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[CompilationResult]:
        """Cached result for ``key``, or ``None`` (corrupt rows count as miss)."""

        data = self._store.get_cell(key)
        try:
            result = None if data is None else CompilationResult.from_dict(data)
        except (ValueError, TypeError):
            result = None
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        result.extra = dict(result.extra or {})
        result.extra["cache"] = "hit"
        return result

    def put(self, key: str, result: CompilationResult) -> None:
        """Store ``result`` under ``key`` (identity columns ride on the key)."""

        self._store.put_cell(
            key, result, code=self.version, identity=getattr(key, "columns", None)
        )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def __len__(self) -> int:
        return self._store.counts()["cells"]
