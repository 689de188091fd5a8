"""The approach registry: every way this repo can compile a workload.

An *approach* is a named mapper family: the paper's domain-specific
constructions (``ours``), the SABRE and SATMAP baselines, the LNN
Hamiltonian-path solution and the greedy shortest-path router.  Each entry
registers its factory, accepted options, synonyms and (optionally) a default
size cap in one place; :func:`repro.compile`, ``core.mapper_for`` consumers
and the evaluation harness all resolve through this table, so names and
option validation cannot drift between the library and the harness.

New approaches plug in with::

    @register_approach("annealer", kwargs={"seed"}, max_qubits=256)
    def _annealer(topology, *, seed=0):
        return AnnealingMapper(topology, seed=seed)

The factory returns a mapper exposing the uniform surface: ``map_circuit``
(always) and optionally ``map_qft`` (the workload-aware analytic fast path).
Option validation is strict: an unknown option (e.g. ``sede=3`` for
``seed=3``) raises instead of silently running with defaults and being
cached under the misspelled key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from .arch.topology import Topology
from .baselines import LNNPathMapper, SabreMapper, SatmapMapper
from .core import GreedyRouterMapper, mapper_for
from .registry import Registry, UnsupportedWorkload

__all__ = [
    "ApproachEntry",
    "APPROACH_REGISTRY",
    "ENGINE_KWARGS",
    "register_approach",
    "get_approach",
    "approach_names",
    "make_mapper",
]


@dataclass(frozen=True)
class ApproachEntry:
    """One registered approach."""

    name: str
    factory: Callable[..., object]
    #: option names the factory accepts (anything else is a caller typo)
    allowed_kwargs: FrozenSet[str]
    #: default size cap; instances above it are reported as "skipped" unless
    #: the caller overrides the cap explicitly
    max_qubits: Optional[int] = None

    def validate_kwargs(self, kwargs: Dict[str, object]) -> None:
        unknown = set(kwargs) - self.allowed_kwargs
        if unknown:
            raise ValueError(
                f"unknown option(s) for approach {self.name!r}: {sorted(unknown)}"
                f" (accepted: {sorted(self.allowed_kwargs) or 'none'})"
            )


#: the process-wide approach registry
APPROACH_REGISTRY: Registry[ApproachEntry] = Registry("approach")

#: approach options that select an *execution engine* rather than an
#: algorithm: they can never change the produced circuits or metrics (the
#: equivalence suites pin this), only wall-clock.  The evaluation harness
#: excludes them from cache keys, run-record cell keys and verify-policy
#: sampling, so a sweep's identity does not fork on engine choice -- a cell
#: computed with the compiled SABRE kernel and the same cell computed with
#: the Python fallback share one cache entry.  The engine that actually ran
#: is recorded informationally in the result's ``extra["kernel"]``.
ENGINE_KWARGS = frozenset({"kernel"})


def register_approach(
    name: str,
    *,
    synonyms: Iterable[str] = (),
    kwargs: Iterable[str] = (),
    max_qubits: Optional[int] = None,
) -> Callable[[Callable[..., object]], Callable[..., object]]:
    """Decorator registering ``factory(topology, **kwargs) -> mapper``."""

    def _register(factory: Callable[..., object]) -> Callable[..., object]:
        APPROACH_REGISTRY.register(
            name,
            ApproachEntry(
                name,
                factory,
                frozenset(kwargs),
                max_qubits=max_qubits,
            ),
            synonyms=synonyms,
        )
        return factory

    return _register


def get_approach(name: str) -> ApproachEntry:
    """Resolve an approach by any registered spelling (raises with hints)."""

    return APPROACH_REGISTRY.get(name)


def approach_names() -> Tuple[str, ...]:
    """Canonical names of every registered approach."""

    return APPROACH_REGISTRY.names()


def make_mapper(approach: str, topology: Topology, **kwargs: object) -> object:
    """Build the mapper for ``approach`` on ``topology`` (options validated)."""

    entry = get_approach(approach)
    entry.validate_kwargs(kwargs)
    return entry.factory(topology, **kwargs)


# ---------------------------------------------------------------------------
# Built-in approaches (the paper's Section 7 set)
# ---------------------------------------------------------------------------


@register_approach("ours", synonyms=("our", "our-approach"), kwargs={"strict_ie"})
def _ours(topology: Topology, *, strict_ie: bool = False) -> object:
    """The domain-specific mapper for the architecture (Sections 4-6)."""

    return mapper_for(topology, strict_ie=strict_ie)


@register_approach("sabre", kwargs={"seed", "passes", "kernel"})
def _sabre(
    topology: Topology,
    *,
    seed: int = 0,
    passes: int = 3,
    kernel: str = "auto",
) -> object:
    """The SABRE re-implementation (heuristic SWAP insertion).

    ``kernel`` selects the routing engine (``"auto"``/``"c"``/``"python"``;
    see :class:`~repro.baselines.sabre.SabreMapper`): an :data:`ENGINE_KWARGS`
    option, bit-identical across engines and excluded from cache identity.
    """

    return SabreMapper(topology, seed=seed, passes=passes, kernel=kernel)


# Beyond ~10 qubits the exact search times out anyway (as in the paper);
# the default cap keeps a stray ``repro.compile(approach="satmap")`` on a
# large device from sitting in branch-and-bound for its full timeout.
@register_approach("satmap", max_qubits=64)
def _satmap(topology: Topology) -> object:
    """The exact-with-timeout SATMAP stand-in (60 s, or the cell's budget)."""

    return SatmapMapper(topology)


@register_approach("lnn")
def _lnn(topology: Topology) -> object:
    """LNN along a Hamiltonian path (grid-like architectures only).

    Architectures with no known Hamiltonian path (Sycamore, heavy-hex --
    Section 2.2) are a *typed* refusal, so sweeps over the full
    approach x architecture cross-product record the cell as unsupported
    instead of crashing.
    """

    try:
        return LNNPathMapper(topology)
    except ValueError as exc:
        raise UnsupportedWorkload(str(exc)) from exc


@register_approach("greedy")
def _greedy(topology: Topology) -> object:
    """Naive shortest-path router (sanity baseline, not in the paper)."""

    return GreedyRouterMapper(topology)
