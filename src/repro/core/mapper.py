"""Facade: pick the right domain-specific QFT mapper for a topology.

Dispatch is registry-driven: each topology class registers its specialist
mapper factory with :func:`register_specialist`, and :func:`mapper_for`
resolves an instance by walking the topology's MRO (most specific class
wins) -- exactly the uniform-interface-over-per-backend-constructions story
of the paper, with no ``isinstance`` chain to keep in sync.  Topologies with
no registered specialist fall back to the naive-but-correct
:class:`~repro.core.routed.GreedyRouterMapper`.  Callers compile through
:func:`repro.compile` (``approach="ours"``), which resolves the mapper here.
"""

from __future__ import annotations

from typing import Callable, Dict, Type

from ..arch.grid import GridTopology
from ..arch.heavy_hex import CaterpillarTopology, HeavyHexTopology
from ..arch.lattice_surgery import LatticeSurgeryTopology
from ..arch.lnn import LNNTopology
from ..arch.sycamore import SycamoreTopology
from ..arch.topology import Topology
from ..registry import DuplicateRegistrationError
from .heavy_hex_mapper import HeavyHexQFTMapper
from .lattice_surgery_mapper import GridQFTMapper, LatticeSurgeryQFTMapper
from .lnn_mapper import LNNQFTMapper
from .routed import GreedyRouterMapper
from .sycamore_mapper import SycamoreQFTMapper

__all__ = ["mapper_for", "register_specialist"]

#: topology class -> factory(topology, strict_ie) for its specialist mapper
_SPECIALISTS: Dict[Type[Topology], Callable[[Topology, bool], object]] = {}


def register_specialist(*topology_types: Type[Topology]):
    """Register a specialist mapper factory for the given topology classes.

    The factory is called as ``factory(topology, strict_ie)`` and must
    return a mapper exposing the uniform ``map_circuit`` surface (the QFT
    specialists get it from
    :class:`~repro.core.qft_specialist.QFTSpecialistMixin`).  Subclasses of
    a registered topology inherit its specialist unless they register their
    own (MRO lookup, most specific first).
    """

    def _register(factory: Callable[[Topology, bool], object]):
        for cls in topology_types:
            if cls in _SPECIALISTS:
                raise DuplicateRegistrationError(
                    f"topology class {cls.__name__} already has a specialist mapper"
                )
            _SPECIALISTS[cls] = factory
        return factory

    return _register


def mapper_for(topology: Topology, *, strict_ie: bool = False):
    """Return the domain-specific mapper instance for ``topology``."""

    for cls in type(topology).__mro__:
        factory = _SPECIALISTS.get(cls)
        if factory is not None:
            return factory(topology, strict_ie)
    # Unknown architecture: fall back to the naive-but-correct router.
    return GreedyRouterMapper(topology)


@register_specialist(LNNTopology)
def _lnn_specialist(topology: Topology, strict_ie: bool):
    """Analytic QFT cascade along the line (Section 4)."""

    return LNNQFTMapper(topology)


@register_specialist(CaterpillarTopology, HeavyHexTopology)
def _heavy_hex_specialist(topology: Topology, strict_ie: bool):
    """Caterpillar/heavy-hex QFT construction (Section 5)."""

    return HeavyHexQFTMapper(topology)


@register_specialist(SycamoreTopology)
def _sycamore_specialist(topology: Topology, strict_ie: bool):
    """Sycamore diagonal-sweep QFT construction (Section 6)."""

    return SycamoreQFTMapper(topology, strict_ie=strict_ie)


@register_specialist(LatticeSurgeryTopology)
def _lattice_specialist(topology: Topology, strict_ie: bool):
    """Lattice-surgery QFT via patch-row cascades (Section 6.2)."""

    return LatticeSurgeryQFTMapper(topology, strict_ie=strict_ie)


@register_specialist(GridTopology)
def _grid_specialist(topology: Topology, strict_ie: bool):
    """Square-grid QFT via boustrophedon row cascades."""

    return GridQFTMapper(topology, strict_ie=strict_ie)
