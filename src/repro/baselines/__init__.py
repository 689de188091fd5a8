"""Baseline compilers the paper compares against (Section 7)."""

from .lnn_path import LNNPathMapper
from .sabre import SabreMapper, SabreNotConverged
from .satmap import SatmapMapper, SatmapTimeout

__all__ = [
    "LNNPathMapper",
    "SabreMapper",
    "SabreNotConverged",
    "SatmapMapper",
    "SatmapTimeout",
]
