"""The error-discipline checker: failures are typed, loud, and -O-proof.

The harness's whole error model is *typed outcomes*: cells come back
``ok``/``skipped``/``timeout``/``error``/``unsupported``, unknown names
raise with did-you-mean hints, and cache corruption raises
:class:`~repro.eval.cache.CacheMergeConflict`.  Two anti-patterns erode
that model from below:

* **Swallowed exceptions.**  A bare ``except:`` catches
  ``KeyboardInterrupt`` and ``SystemExit``; ``except Exception: pass``
  turns any bug into silence.  Handlers must name what they expect, or
  visibly re-raise / transform (``except Exception`` with a body that
  *does something* -- logs, wraps, re-raises -- is accepted; an empty
  swallow is not).
* **``assert`` as control flow.**  ``python -O`` strips asserts, so a
  library-path assert is a check that vanishes exactly when someone
  benchmarks with optimizations on.  Invariants worth checking are worth
  a typed ``raise``; asserts belong in tests.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from .framework import Checker, Finding, Module, Project, register_checker

__all__ = ["ErrorDisciplineChecker"]


def _is_swallow_body(body: List[ast.stmt]) -> bool:
    """True when a handler body does nothing observable (pass/.../continue)."""

    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Continue):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ):
            continue  # docstring / ellipsis
        return False
    return True


def _broad_exception_name(handler: ast.ExceptHandler) -> str:
    """"Exception"/"BaseException" when the handler catches that broadly."""

    def names(node: ast.AST) -> List[str]:
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        if isinstance(node, ast.Tuple):
            return [n for elt in node.elts for n in names(elt)]
        return []

    if handler.type is None:
        return ""
    for name in names(handler.type):
        if name in ("Exception", "BaseException"):
            return name
    return ""


@register_checker("error-discipline", synonyms=("errors", "discipline"))
class ErrorDisciplineChecker(Checker):
    """Flags swallowed exceptions and optimization-stripped asserts."""

    description = (
        "no bare except, no silently-swallowed broad except, no assert "
        "as control flow in library code"
    )
    hint = "catch the narrowest exception that can occur, or re-raise"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.targets:
            in_tests = module.rel.split("/")[0].startswith("test") or (
                "/tests/" in f"/{module.rel}"
            )
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ExceptHandler):
                    yield from self._check_handler(module, node)
                elif isinstance(node, ast.Assert) and not in_tests:
                    yield self.finding(
                        module, node,
                        "assert used in library code; `python -O` strips "
                        "it, so the check vanishes under optimization",
                        hint="raise a typed exception (ValueError/"
                        "AssertionError) explicitly instead",
                    )

    def _check_handler(
        self, module: Module, handler: ast.ExceptHandler
    ) -> Iterator[Finding]:
        if handler.type is None:
            yield self.finding(
                module, handler,
                "bare except: catches KeyboardInterrupt/SystemExit",
                hint="name the exception(s) the code can actually raise",
            )
            return
        broad = _broad_exception_name(handler)
        if broad and _is_swallow_body(handler.body):
            yield self.finding(
                module, handler,
                f"except {broad}: with an empty body silently swallows "
                "every error",
                hint="narrow the exception, handle it visibly, or "
                "re-raise",
            )
