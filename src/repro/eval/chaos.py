"""Deterministic fault injection for the dispatcher and its tests.

Fault tolerance that is never exercised is a story, not a property.  This
module turns every failure mode the dispatcher claims to survive into a
*directive* that tests (and the CI chaos smoke leg) inject deliberately:

``kill-worker@worker=w0,cell=1``
    The worker whose id is ``w0`` SIGKILLs itself the moment it starts its
    second leased cell (0-based, counted per worker) -- a hard mid-cell
    crash, no cleanup, no goodbye.  The lease it holds must expire and the
    cell must be reassigned.
``freeze-heartbeat@worker=w1,cell=2``
    From its third leased cell on, ``w1`` stops sending heartbeats (the
    process keeps computing -- this is the "hung but alive" failure, not a
    crash).  Combined with ``stall``, the lease outlives its deadline and
    the dispatcher must steal the cell back.
``stall@worker=w1,cell=2,s=1.2``
    ``w1`` sleeps 1.2 s mid-cell (after taking the lease, before
    computing) -- the deterministic stand-in for a slow or wedged machine.
``delay-response@path=/lease,s=0.2,times=2``
    The dispatcher delays its next two ``/lease`` responses by 0.2 s
    (network latency injection).
``drop-response@path=/result,times=1``
    The dispatcher closes the connection without replying to the next
    ``/result`` request *before* processing it -- the worker must retry
    with backoff and the retry must be idempotent.

Directives live in the ``REPRO_CHAOS`` environment variable (so they cross
the process boundary into spawned workers), separated by ``;``.  Matching
is exact string equality on every parameter except the action parameters
``s`` and ``times`` -- no randomness anywhere, so a chaos run is as
reproducible as a clean one.  ``times`` caps how often a directive fires
(default: once).

Nothing here imports the dispatcher; the dispatcher (and its worker loop)
calls :func:`active` at its hook points and stays fully functional -- with
zero overhead beyond a dict lookup -- when ``REPRO_CHAOS`` is unset.
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
KINDS = (
    "kill-worker",
    "freeze-heartbeat",
    "stall",
    "delay-response",
    "drop-response",
)


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
