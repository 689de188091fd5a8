"""The versioned request/response API shared by the library and the server.

One schema, three consumers:

* ``repro.compile()`` -- :class:`CompileRequest` fields mirror the compile
  kwargs verbatim (``to_compile_kwargs()`` is a dict-splat away), so a
  request object is exactly "a compile call, reified";
* the serve wire format -- ``to_json``/``from_json`` are a *strict* JSON
  round-trip: unknown fields are rejected with did-you-mean suggestions
  (same :mod:`difflib` treatment the registries give unknown names),
  wrong-typed fields raise :class:`ApiError`, and ``api_version`` is pinned
  so an old client talking to a new server fails loudly, not subtly;
* :class:`~repro.serve.client.ServeClient` -- the client builds requests
  from the same kwargs and parses responses through the same classes.

``normalized()`` resolves every name through the registries (canonical
spellings, validated options, verify policy), which is what makes requests
*comparable*: the batching group key and the cache key are derived from the
normalized form, so ``architecture="9x9"`` and ``architecture="grid"`` hit
the same batch and the same cache line.  The cache key itself is
:func:`repro.eval.cache.cell_cache_key` -- byte-identical to the keys batch
sweeps write, so a served request can hit store entries produced offline.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

from ..approaches import get_approach
from ..arch.registry import ARCHITECTURES, architecture_key
from ..utils import VERIFY_POLICIES, check_timeout, normalize_verify
from ..workloads import get_workload

__all__ = [
    "API_VERSION",
    "ApiError",
    "CompileRequest",
    "CompileResponse",
    "execute_request",
]

#: the wire-format version this tree speaks; bump on breaking schema change
API_VERSION = "1"


class ApiError(ValueError):
    """A malformed request/response payload (the server's 400, typed)."""


def _reject_unknown(kind: str, data: Dict[str, object], known: Tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(known))
    if not unknown:
        return
    msg = f"unknown {kind} field(s): {', '.join(repr(u) for u in unknown)}"
    hints = []
    for u in unknown:
        close = difflib.get_close_matches(u, known, n=1, cutoff=0.6)
        if close:
            hints.append(f"{u!r} -> did you mean {close[0]!r}?")
    if hints:
        msg += " (" + "; ".join(hints) + ")"
    msg += f"; accepted: {', '.join(known)}"
    raise ApiError(msg)


def _check_version(kind: str, version: object) -> str:
    if not isinstance(version, str):
        raise ApiError(
            f"{kind}.api_version must be a string (got {type(version).__name__})"
        )
    if version != API_VERSION:
        raise ApiError(
            f"unsupported {kind} api_version {version!r}; this build speaks "
            f"{API_VERSION!r}"
        )
    return version


def _typed(kind: str, name: str, value: object, types, what: str):
    if value is not None and not isinstance(value, types):
        raise ApiError(
            f"{kind}.{name} must be {what} (got {type(value).__name__})"
        )
    return value


@dataclass
class CompileRequest:
    """One compilation, reified: ``repro.compile()``'s kwargs as data.

    Field-for-field the keyword surface of :func:`repro.compile`, plus the
    envelope fields the wire needs: ``api_version`` (pinned schema) and
    ``options`` (the ``**opts`` catch-all -- approach options such as the
    SABRE ``seed``).  ``architecture`` is always a registry *name* here
    (the wire cannot carry a live ``Topology``), so ``size`` is required.
    """

    workload: str = "qft"
    architecture: str = "grid"
    size: Optional[int] = None
    approach: str = "ours"
    num_qubits: Optional[int] = None
    workload_params: Dict[str, object] = field(default_factory=dict)
    verify: Union[bool, str] = True
    timeout_s: Optional[float] = None
    max_qubits: Optional[int] = None
    options: Dict[str, object] = field(default_factory=dict)
    api_version: str = API_VERSION

    _FIELDS = (
        "workload",
        "architecture",
        "size",
        "approach",
        "num_qubits",
        "workload_params",
        "verify",
        "timeout_s",
        "max_qubits",
        "options",
        "api_version",
    )

    # -- wire format -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["verify"] = self.verify_policy()
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CompileRequest":
        if not isinstance(data, dict):
            raise ApiError(
                f"request must be a JSON object (got {type(data).__name__})"
            )
        _reject_unknown("request", data, cls._FIELDS)
        _check_version("request", data.get("api_version", API_VERSION))
        kind = "request"
        req = cls(
            workload=_typed(kind, "workload", data.get("workload", "qft"), str, "a string"),
            architecture=_typed(
                kind, "architecture", data.get("architecture", "grid"), str, "a string"
            ),
            size=_typed(kind, "size", data.get("size"), int, "an integer"),
            approach=_typed(kind, "approach", data.get("approach", "ours"), str, "a string"),
            num_qubits=_typed(
                kind, "num_qubits", data.get("num_qubits"), int, "an integer"
            ),
            workload_params=dict(
                _typed(
                    kind,
                    "workload_params",
                    data.get("workload_params") or {},
                    dict,
                    "an object",
                )
            ),
            verify=_typed(kind, "verify", data.get("verify", True), (bool, str), "a policy"),
            timeout_s=_typed(
                kind, "timeout_s", data.get("timeout_s"), (int, float), "a number"
            ),
            max_qubits=_typed(
                kind, "max_qubits", data.get("max_qubits"), int, "an integer"
            ),
            options=dict(
                _typed(kind, "options", data.get("options") or {}, dict, "an object")
            ),
            api_version=API_VERSION,
        )
        if any(
            isinstance(v, bool)
            for v in (req.size, req.num_qubits, req.max_qubits, req.timeout_s)
        ):
            raise ApiError(
                "request.size/num_qubits/max_qubits/timeout_s must be "
                "numbers, not booleans"
            )
        # json.loads accepts NaN and Infinity, and a budget that never
        # fires would pin a worker
        try:
            check_timeout(req.timeout_s)
        except ValueError as exc:
            raise ApiError(f"request.{exc}") from None
        return req

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "CompileRequest":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ApiError(f"request is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    # -- semantics ---------------------------------------------------------
    def verify_policy(self) -> str:
        try:
            return normalize_verify(self.verify)
        except ValueError:
            raise ApiError(
                f"request.verify must be a bool or one of "
                f"{', '.join(map(repr, VERIFY_POLICIES))} (got {self.verify!r})"
            ) from None

    def normalized(self) -> "CompileRequest":
        """Registry-validated copy with canonical names.

        Resolves every name through the registries (raising
        :class:`~repro.registry.UnknownNameError` with did-you-mean
        suggestions for typos), validates approach options and workload
        parameters, and normalizes ``verify`` to its policy string.  The
        canonical form is what batching groups and cache keys hash, so
        synonym spellings of the same cell coalesce.
        """

        wl = get_workload(self.workload)
        entry = get_approach(self.approach)
        entry.validate_kwargs(self.options)
        wl.resolve_params(**self.workload_params)  # unknown params raise
        arch = ARCHITECTURES.canonical(self.architecture)
        if self.size is None:
            raise ApiError(
                "request.size is required (architecture is given by name "
                f"{self.architecture!r})"
            )
        return replace(
            self,
            workload=wl.name,
            architecture=arch,
            approach=entry.name,
            verify=self.verify_policy(),
            workload_params=dict(self.workload_params),
            options=dict(self.options),
        )

    def group_key(self) -> Tuple[str, int]:
        """Topology identity for online batching (call on a normalized req)."""

        return architecture_key(self.architecture, self.size)

    def identity_kwargs(self) -> Tuple[Tuple[str, object], ...]:
        """The kwargs tuple of this request's cell identity.

        ``num_qubits``/``max_qubits`` are folded in (cell specs carry them
        in the kwargs tuple), so full-device requests -- where both stay
        None -- produce exactly the keys batch sweeps write, and a served
        hot point can hit entries computed offline.
        """

        kwargs = dict(self.options)
        if self.num_qubits is not None:
            kwargs["num_qubits"] = self.num_qubits
        if self.max_qubits is not None:
            kwargs["max_qubits"] = self.max_qubits
        return tuple(kwargs.items())

    def cache_key(self, *, code: Optional[str] = None) -> str:
        """The :func:`cell_cache_key` for this request (normalized form)."""

        from ..eval.cache import cell_cache_key

        return cell_cache_key(
            self.approach,
            self.architecture,
            self.size,
            kwargs=self.identity_kwargs(),
            timeout_s=self.timeout_s,
            workload=self.workload,
            workload_params=tuple(self.workload_params.items()),
            verify=self.verify_policy(),
            code=code,
        )

    def to_compile_kwargs(self) -> Dict[str, object]:
        """Kwargs for :func:`repro.compile` -- the shared-verbatim contract."""

        return {
            "workload": self.workload,
            "architecture": self.architecture,
            "size": self.size,
            "approach": self.approach,
            "num_qubits": self.num_qubits,
            "workload_params": dict(self.workload_params) or None,
            "verify": self.verify_policy() != "off",
            "timeout_s": self.timeout_s,
            "max_qubits": self.max_qubits,
            **self.options,
        }


@dataclass
class CompileResponse:
    """What one served compilation returned (the wire's response body).

    ``metrics`` is the full
    :class:`~repro.eval.metrics.CompilationResult` row as a dict -- the
    same shape the cache and the store persist, so "bit-equal to serial
    ``repro.compile()``" is checkable field by field.  ``cache`` records
    where the answer came from: ``None`` (computed), ``"lru"`` (in-memory
    hot set) or ``"store"`` (persistent backing store).
    """

    status: str
    workload: str
    approach: str
    architecture: str
    num_qubits: int
    metrics: Dict[str, object] = field(default_factory=dict)
    wall_s: Optional[float] = None
    cache: Optional[str] = None
    message: str = ""
    api_version: str = API_VERSION

    _FIELDS = (
        "status",
        "workload",
        "approach",
        "architecture",
        "num_qubits",
        "metrics",
        "wall_s",
        "cache",
        "message",
        "api_version",
    )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def from_result(cls, row, *, cache: Optional[str] = None) -> "CompileResponse":
        """Wrap an eval-harness ``CompilationResult`` row."""

        return cls(
            status=row.status,
            workload=row.workload,
            approach=row.approach,
            architecture=row.architecture,
            num_qubits=row.num_qubits,
            metrics=row.to_dict(),
            wall_s=row.compile_time_s,
            cache=cache,
            message=row.message or "",
        )

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CompileResponse":
        if not isinstance(data, dict):
            raise ApiError(
                f"response must be a JSON object (got {type(data).__name__})"
            )
        _reject_unknown("response", data, cls._FIELDS)
        _check_version("response", data.get("api_version", API_VERSION))
        kind = "response"
        for name in ("status", "workload", "approach", "architecture"):
            if not isinstance(data.get(name), str):
                raise ApiError(f"response.{name} must be a string")
        return cls(
            status=data["status"],
            workload=data["workload"],
            approach=data["approach"],
            architecture=data["architecture"],
            num_qubits=_typed(kind, "num_qubits", data.get("num_qubits", 0), int, "an integer"),
            metrics=dict(
                _typed(kind, "metrics", data.get("metrics") or {}, dict, "an object")
            ),
            wall_s=_typed(kind, "wall_s", data.get("wall_s"), (int, float), "a number"),
            cache=_typed(kind, "cache", data.get("cache"), str, "a string"),
            message=_typed(kind, "message", data.get("message", ""), str, "a string"),
            api_version=API_VERSION,
        )

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "CompileResponse":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ApiError(f"response is not valid JSON: {exc}") from None
        return cls.from_dict(data)


def execute_request(req: CompileRequest):
    """Run one (normalized) request through the cell machinery.

    ``run_cell`` takes the topology from the process-local memo, so pool
    workers that prewarmed a ``(kind, size)`` never rebuild distance
    matrices or SABRE tables per request.  Returns the
    :class:`~repro.eval.metrics.CompilationResult` row; per-cell failures
    (timeout, unsupported, construction errors) come back as typed statuses,
    exactly as in batch sweeps.
    """

    from ..eval.runners import run_cell

    return run_cell(
        req.approach,
        req.architecture,
        req.size,
        workload=req.workload,
        workload_params=dict(req.workload_params) or None,
        num_qubits=req.num_qubits,
        verify=req.verify_policy(),
        timeout_s=req.timeout_s,
        max_qubits=req.max_qubits,
        **req.options,
    )
