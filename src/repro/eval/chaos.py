"""Deterministic fault injection for the worker pool and its tests.

Fault tolerance that is never exercised is a story, not a property.  This
module turns the worker failures the supervised pool
(:mod:`repro.eval.workers`, behind both ``execute(..., jobs=N)`` with N > 1
and ``repro.serve``) claims to survive into *directives* that tests (and
the CI chaos smoke leg) inject deliberately.  Cells are counted per worker from 1,
across its batches:

``kill-worker@worker=w0,cell=1``
    The worker whose id is ``w0`` SIGKILLs itself the moment it starts its
    first cell -- a hard mid-batch crash, no cleanup, no goodbye.  The pool
    must respawn a worker and resubmit the batch.
``stall@worker=w1,cell=2,s=1.2``
    ``w1`` sleeps 1.2 s before computing its second cell -- the
    deterministic stand-in for a slow machine.

Directives live in the ``REPRO_CHAOS`` environment variable (so they cross
the process boundary into spawned workers), separated by ``;``.  Matching
is exact string equality on every parameter except the action parameters
``s`` and ``times`` -- no randomness anywhere, so a chaos run is as
reproducible as a clean one.  ``times`` caps how often a directive fires
(default: once).

Nothing here imports the pool; the pool's worker loop calls :func:`active`
once and :meth:`ChaosConfig.fires` at its hook points, which costs a loop
over an empty list when ``REPRO_CHAOS`` is unset.
"""

from __future__ import annotations

import os
import signal
from typing import Dict, List, Mapping, Optional

__all__ = [
    "ENV_VAR",
    "ChaosDirective",
    "ChaosConfig",
    "active",
    "reload",
    "kill_self",
    "tear_tail",
]

#: environment variable holding the directive list
ENV_VAR = "REPRO_CHAOS"

#: directive parameters that configure the action rather than the match
_ACTION_PARAMS = frozenset({"s", "times"})

#: recognised directive kinds (unknown kinds raise at parse time: a typo'd
#: chaos spec that silently injects nothing would "pass" every chaos test)
KINDS = ("kill-worker", "stall")


class ChaosDirective:
    """One parsed fault directive: a kind, match params, and a fire budget."""

    def __init__(self, kind: str, params: Dict[str, str]) -> None:
        if kind not in KINDS:
            raise ValueError(
                f"unknown chaos directive kind {kind!r} (one of {', '.join(KINDS)})"
            )
        self.kind = kind
        self.params = dict(params)
        self.times = int(params["times"]) if "times" in params else 1
        self.fired = 0

    def matches(self, ctx: Mapping[str, object]) -> bool:
        """True when every match parameter equals the hook's context."""

        for key, want in self.params.items():
            if key in _ACTION_PARAMS:
                continue
            if str(ctx.get(key)) != want:
                return False
        return True

    def describe(self) -> str:
        tail = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}@{tail}" if tail else self.kind


class ChaosConfig:
    """The active set of directives (usually parsed from ``REPRO_CHAOS``)."""

    def __init__(self, directives: List[ChaosDirective]) -> None:
        self.directives = list(directives)

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosConfig":
        """Parse ``kind@k=v,k=v;kind@...`` into a config (``""`` -> empty)."""

        directives: List[ChaosDirective] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, _, tail = chunk.partition("@")
            params: Dict[str, str] = {}
            for pair in filter(None, tail.split(",")):
                key, sep, value = pair.partition("=")
                if not sep:
                    raise ValueError(
                        f"malformed chaos parameter {pair!r} in {chunk!r} "
                        "(expected key=value)"
                    )
                params[key.strip()] = value.strip()
            directives.append(ChaosDirective(kind.strip(), params))
        return cls(directives)

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "ChaosConfig":
        env = os.environ if environ is None else environ
        return cls.from_spec(env.get(ENV_VAR, ""))

    def fires(self, kind: str, **ctx: object) -> Optional[Dict[str, str]]:
        """Consume and return the params of a matching directive, or None.

        The first directive of ``kind`` whose match parameters equal ``ctx``
        and whose ``times`` budget is not exhausted fires (its counter is
        bumped); everything about the decision is deterministic in the
        directive list and the call sequence.
        """

        for directive in self.directives:
            if directive.kind != kind or directive.fired >= directive.times:
                continue
            if directive.matches(ctx):
                directive.fired += 1
                return dict(directive.params)
        return None

    def __bool__(self) -> bool:
        return bool(self.directives)


_ACTIVE: Optional[ChaosConfig] = None


def active() -> ChaosConfig:
    """The process-wide config, parsed from ``REPRO_CHAOS`` once per process.

    Worker processes call :func:`reload` on entry instead, so a fork never
    inherits the parent's fire counters.
    """

    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = ChaosConfig.from_env()
    return _ACTIVE


def reload() -> ChaosConfig:
    """Re-read ``REPRO_CHAOS`` (fresh fire counters); returns the config."""

    global _ACTIVE
    _ACTIVE = ChaosConfig.from_env()
    return _ACTIVE


def kill_self() -> None:  # pragma: no cover - the process dies here
    """SIGKILL the current process: no atexit, no finally, no flush."""

    os.kill(os.getpid(), signal.SIGKILL)


def tear_tail(path: os.PathLike, keep_bytes: int) -> int:
    """Truncate ``path`` to its first ``keep_bytes`` bytes (a torn write).

    Returns the number of bytes removed.  This is the torn write the
    durability tests sweep over byte offsets of a recorded run's WAL.
    """

    size = os.path.getsize(path)
    if keep_bytes < 0 or keep_bytes > size:
        raise ValueError(
            f"keep_bytes must be within [0, {size}], got {keep_bytes}"
        )
    os.truncate(path, keep_bytes)
    return size - keep_bytes
