"""Affine expressions with integer holes -- the building blocks of sketches.

The paper leverages SKETCH (Solar-Lezama) to discover the inter-unit travel
patterns: the candidate schedules are affine loop nests whose bounds are
*holes* (``??`` in SKETCH syntax) to be solved so that a coverage
specification holds (Appendix 5 and 7).  We reproduce the idea with a small,
dependency-free synthesiser:

* a :class:`Hole` is a named integer unknown with a finite domain,
* an :class:`Affine` expression is ``c0 + c1*x1 + c2*x2 + ...`` where each
  coefficient is either a concrete integer or a hole, and each variable is a
  runtime quantity (the loop induction variable ``i``, the unit size ``m``,
  constants),
* :func:`affine_min` mirrors the ``min(...)`` bounds the paper uses for the
  triangular SWAP regions of Fig. 3.

The enumerative solver itself lives in :mod:`repro.synthesis.sketch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = ["Hole", "Affine", "MinExpr", "Assignment", "evaluate"]

Assignment = Dict[str, int]


@dataclass(frozen=True)
class Hole:
    """A named integer unknown with an inclusive finite domain."""

    name: str
    low: int
    high: int

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(f"hole {self.name}: empty domain [{self.low}, {self.high}]")

    @property
    def domain(self) -> range:
        return range(self.low, self.high + 1)

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f"??{self.name}[{self.low}..{self.high}]"


Coefficient = Union[int, Hole]


@dataclass(frozen=True)
class Affine:
    """``constant + sum(coeff_v * value_of(v))`` over named variables."""

    constant: Coefficient = 0
    terms: Tuple[Tuple[str, Coefficient], ...] = ()

    def holes(self) -> List[Hole]:
        out = []
        if isinstance(self.constant, Hole):
            out.append(self.constant)
        for _, coeff in self.terms:
            if isinstance(coeff, Hole):
                out.append(coeff)
        return out

    def evaluate(self, variables: Mapping[str, int], assignment: Assignment) -> int:
        def val(c: Coefficient) -> int:
            if isinstance(c, Hole):
                return assignment[c.name]
            return c

        total = val(self.constant)
        for var, coeff in self.terms:
            if var not in variables:
                raise KeyError(f"unbound variable {var!r} in affine expression")
            total += val(coeff) * variables[var]
        return total

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        parts = [str(self.constant)]
        parts.extend(f"{coeff}*{var}" for var, coeff in self.terms)
        return " + ".join(parts)


@dataclass(frozen=True)
class MinExpr:
    """``min(e1, e2, ...)`` of affine expressions (the paper's piecewise-linear
    SWAP bounds)."""

    parts: Tuple[Affine, ...]

    def holes(self) -> List[Hole]:
        out: List[Hole] = []
        for p in self.parts:
            out.extend(p.holes())
        return out

    def evaluate(self, variables: Mapping[str, int], assignment: Assignment) -> int:
        return min(p.evaluate(variables, assignment) for p in self.parts)


Expr = Union[int, Affine, MinExpr]


def evaluate(expr: Expr, variables: Mapping[str, int], assignment: Assignment) -> int:
    if isinstance(expr, int):
        return expr
    return expr.evaluate(variables, assignment)
