"""The paper's contribution: domain-specific linear-depth QFT mappers."""

from .cascade import AbstractStep, CascadeStalled, abstract_line_qft_schedule, cascade_on_line
from .dependence import QFTDependenceTracker
from .heavy_hex_mapper import HeavyHexQFTMapper
from .inter_unit import bipartite_all_to_all
from .lattice_surgery_mapper import GridQFTMapper, LatticeSurgeryQFTMapper, RowUnitQFTMapper
from .lnn_mapper import LNNQFTMapper, map_qft_on_line
from .mapper import mapper_for, register_specialist
from .qft_specialist import QFTSpecialistMixin
from .partition import partitioned_qft_for, unit_partition_for
from .routed import GreedyRouterMapper, complete_remaining
from .sycamore_mapper import SycamoreQFTMapper
from .unit import UnitLevelScheduler

__all__ = [
    "AbstractStep",
    "CascadeStalled",
    "abstract_line_qft_schedule",
    "cascade_on_line",
    "QFTDependenceTracker",
    "HeavyHexQFTMapper",
    "bipartite_all_to_all",
    "GridQFTMapper",
    "LatticeSurgeryQFTMapper",
    "RowUnitQFTMapper",
    "LNNQFTMapper",
    "map_qft_on_line",
    "mapper_for",
    "register_specialist",
    "QFTSpecialistMixin",
    "partitioned_qft_for",
    "unit_partition_for",
    "GreedyRouterMapper",
    "complete_remaining",
    "SycamoreQFTMapper",
    "UnitLevelScheduler",
]
