"""The determinism checker: no iteration-order / RNG / clock leaks.

Bit-identical reproduction rests on four source-level rules, each of which
has historically broken "deterministic" pipelines silently:

1. **No ordered output from set iteration.**  Iterating a ``set`` (hash
   order -- randomized per process for strings) is fine for membership or
   commutative folds, but the moment the iteration feeds an ``append``, a
   ``return``/``yield``, a ``join`` or a list/tuple/dict construction, the
   output order depends on ``PYTHONHASHSEED``.  Wrap the set in
   ``sorted(...)`` (any deterministic key).
2. **No global RNG.**  ``random.random()`` & friends draw from the hidden
   module-level ``Random`` whose state any import can perturb; seeded
   ``random.Random(seed)`` instances are the only sanctioned source of
   randomness (the SABRE reference implementation round-trips one).  The
   same applies to the legacy ``numpy.random.*`` global generator.
3. **No unsorted directory listings.**  ``os.listdir``/``glob.glob`` and
   the ``Path.glob``/``rglob``/``iterdir`` methods return entries in
   filesystem order, which differs between machines and filesystems --
   the code-version bugs this rule guards against are exactly the kind a
   sampled equivalence test never sees.  Wrap in ``sorted``
   (or consume order-insensitively: ``len``/``sum``/``set``/``any``...).
4. **No wall-clock into results.**  ``time.time``/``perf_counter``/...
   may flow into elapsed-time bookkeeping (``start``/``wall_*``/
   ``deadline`` names, subtraction, comparisons) and nothing else --
   never into seeds, keys, or payload fields.

Everything here is a syntactic approximation with a deliberate bias: on
ambiguous evidence the checker stays quiet (rule 1 needs a proven
set-typed source *and* an order-sensitive sink), because a lint gate that
cries wolf gets suppressed wholesale and then catches nothing.  The
escape hatch for true negatives is the per-line
``# repro-lint: ignore[determinism]``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .framework import (
    Checker,
    Finding,
    Module,
    Project,
    call_name,
    parent_map,
    register_checker,
)

__all__ = ["DeterminismChecker"]

#: module-level ``random.*`` functions that touch the hidden global state
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "betavariate", "expovariate",
        "gammavariate", "gauss", "lognormvariate", "normalvariate",
        "vonmisesvariate", "paretovariate", "weibullvariate",
        "getrandbits", "randbytes", "seed", "binomialvariate",
    }
)

#: legacy numpy global-generator entry points (``np.random.<fn>``)
NUMPY_RANDOM_FUNCS = frozenset(
    {
        "seed", "random", "rand", "randn", "randint", "random_sample",
        "choice", "shuffle", "permutation", "uniform", "normal",
    }
)

#: directory-listing callables (by dotted suffix) returning fs-order lists
LISTING_CALLS = frozenset({"os.listdir", "glob.glob", "glob.iglob"})

#: method names that smell like Path directory iteration
LISTING_METHODS = frozenset({"glob", "rglob", "iterdir"})

#: wall-clock sources (dotted suffixes)
CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
    }
)

#: calls whose result does not depend on argument order
ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "set", "frozenset", "len", "sum", "any", "all", "min", "max",
     "Counter", "collections.Counter"}
)

#: identifier fragments under which a wall-clock value may legitimately live
_CLOCK_NAME_FRAGMENTS = (
    "start", "wall", "time", "now", "deadline", "elapsed", "began",
    "stamp", "clock", "t0", "t1", "tic", "toc",
)

#: set-producing method names (on an already-set-typed receiver)
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)


def _clock_name_ok(name: str) -> bool:
    low = name.lower()
    return any(frag in low for frag in _CLOCK_NAME_FRAGMENTS)


class _ImportInfo:
    """What this module imported: which names are the stdlib modules."""

    def __init__(self, tree: ast.Module) -> None:
        self.module_aliases: Dict[str, str] = {}  # local name -> module
        self.from_random: Set[str] = set()  # names imported from `random`
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name in GLOBAL_RANDOM_FUNCS:
                        self.from_random.add(alias.asname or alias.name)


@register_checker("determinism", synonyms=("det", "ordering"))
class DeterminismChecker(Checker):
    """Flags source constructs whose output depends on hash/fs/clock state."""

    description = (
        "set iteration feeding ordered output, global-RNG calls, unsorted "
        "directory listings, wall-clock flowing into non-timing fields"
    )
    hint = "wrap the iterable in sorted(...) or use a seeded random.Random"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.targets:
            yield from self._check_module(module)

    # ------------------------------------------------------------------
    def _check_module(self, module: Module) -> Iterator[Finding]:
        imports = _ImportInfo(module.tree)
        parents = parent_map(module.tree)
        yield from self._check_random(module, imports)
        yield from self._check_listings(module, imports, parents)
        yield from self._check_clocks(module, imports, parents)
        yield from self._check_set_iteration(module, parents)

    # -- rule 2: global RNG --------------------------------------------
    def _check_random(
        self, module: Module, imports: _ImportInfo
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            head, _, tail = name.rpartition(".")
            if (
                head
                and imports.module_aliases.get(head) == "random"
                and tail in GLOBAL_RANDOM_FUNCS
            ):
                yield self.finding(
                    module, node,
                    f"call to the global RNG ({name}()); module-level "
                    "random state is unseeded and import-order dependent",
                    hint="draw from an explicit seeded random.Random(seed) "
                    "instance instead",
                )
            elif not head and name in imports.from_random:
                yield self.finding(
                    module, node,
                    f"call to the global RNG (random.{name} imported "
                    "directly); module-level random state is unseeded",
                    hint="draw from an explicit seeded random.Random(seed) "
                    "instance instead",
                )
            elif head and tail in NUMPY_RANDOM_FUNCS:
                mod, _, sub = head.partition(".")
                if (
                    imports.module_aliases.get(mod) in ("numpy", "numpy.random")
                    and (sub == "random" or not sub)
                ):
                    yield self.finding(
                        module, node,
                        f"call to the legacy numpy global generator "
                        f"({name}()); its state is process-global",
                        hint="use numpy.random.Generator seeded explicitly "
                        "(numpy.random.default_rng(seed))",
                    )
            elif name.endswith("random.Random") and not node.args and not node.keywords:
                yield self.finding(
                    module, node,
                    "random.Random() constructed without a seed",
                    hint="pass an explicit seed: random.Random(seed)",
                )

    # -- rule 3: directory listings ------------------------------------
    def _is_order_safe_context(
        self, node: ast.AST, parents: Dict[ast.AST, ast.AST]
    ) -> bool:
        """True when ``node``'s value is consumed order-insensitively.

        Covers direct wrapping (``sorted(p.glob(...))``), consumption by an
        order-insensitive builtin (``len``/``sum``/``set``/...), membership
        tests (``x in glob(...)``), and the counting idiom
        ``sum(1 for _ in p.glob(...))`` (the listing feeds a generator that
        itself feeds an order-insensitive call).
        """

        parent = parents.get(node)
        # step through generator comprehensions the listing directly feeds
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            comp = parents.get(parent)
            if isinstance(comp, (ast.GeneratorExp, ast.ListComp)):
                grand = parents.get(comp)
                if (
                    isinstance(grand, ast.Call)
                    and call_name(grand).split(".")[-1]
                    in {c.split(".")[-1] for c in ORDER_INSENSITIVE_CALLS}
                ):
                    return True
            if isinstance(comp, ast.SetComp):
                return True
            return False
        if isinstance(parent, ast.Call) and node in parent.args:
            name = call_name(parent)
            if name in ORDER_INSENSITIVE_CALLS or name.split(".")[-1] in {
                c.split(".")[-1] for c in ORDER_INSENSITIVE_CALLS
            }:
                return True
        if isinstance(parent, ast.Compare):
            # `x in os.listdir(d)`: membership, order-free
            return node in parent.comparators
        return False

    def _check_listings(
        self,
        module: Module,
        imports: _ImportInfo,
        parents: Dict[ast.AST, ast.AST],
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            head, _, tail = name.rpartition(".")
            is_listing = False
            if name in LISTING_CALLS or (
                head
                and imports.module_aliases.get(head.split(".")[0])
                in ("os", "glob")
                and f"{head.split('.')[-1]}.{tail}" in LISTING_CALLS
            ):
                is_listing = True
            elif tail in LISTING_METHODS and head:
                # Path-style method iteration (receiver type unknown --
                # heuristic on the method name; suppress false positives
                # per line)
                is_listing = True
            if not is_listing:
                continue
            if self._is_order_safe_context(node, parents):
                continue
            yield self.finding(
                module, node,
                f"directory listing ({name or tail}) consumed without "
                "sorted(); filesystem order differs across machines",
                hint="wrap the call in sorted(...) (or consume it "
                "order-insensitively: len/sum/set/any/all)",
            )

    # -- rule 4: wall-clock flow ---------------------------------------
    def _check_clocks(
        self,
        module: Module,
        imports: _ImportInfo,
        parents: Dict[ast.AST, ast.AST],
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            head = name.split(".")[0]
            if not (
                name in CLOCK_CALLS
                and imports.module_aliases.get(head, head) in ("time", "datetime")
            ):
                continue
            if self._clock_context_ok(node, parents):
                continue
            yield self.finding(
                module, node,
                f"wall-clock value ({name}()) flowing into a non-timing "
                "context; clocks may only feed wall_*/elapsed bookkeeping",
                hint="assign to a start/wall/deadline-named variable or "
                "keep the value inside timing arithmetic",
            )

    def _clock_context_ok(
        self, node: ast.AST, parents: Dict[ast.AST, ast.AST]
    ) -> bool:
        parent = parents.get(node)
        # elapsed arithmetic and deadline comparisons are the legitimate uses
        if isinstance(parent, (ast.BinOp, ast.Compare)):
            return True
        if isinstance(parent, ast.Assign):
            return all(
                isinstance(t, ast.Name) and _clock_name_ok(t.id)
                or isinstance(t, ast.Attribute) and _clock_name_ok(t.attr)
                for t in parent.targets
            )
        if isinstance(parent, (ast.AnnAssign, ast.AugAssign)):
            target = parent.target
            return (
                isinstance(target, ast.Name) and _clock_name_ok(target.id)
                or isinstance(target, ast.Attribute) and _clock_name_ok(target.attr)
            )
        if isinstance(parent, ast.keyword):
            return parent.arg is not None and _clock_name_ok(parent.arg)
        if isinstance(parent, ast.Dict):
            try:
                idx = parent.values.index(node)
            except ValueError:
                return False
            key = parent.keys[idx]
            return (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and _clock_name_ok(key.value)
            )
        if isinstance(parent, ast.Return):
            func = parents.get(parent)
            while func is not None and not isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                func = parents.get(func)
            return func is not None and _clock_name_ok(func.name)
        return False

    # -- rule 1: set iteration into ordered sinks ----------------------
    def _check_set_iteration(
        self, module: Module, parents: Dict[ast.AST, ast.AST]
    ) -> Iterator[Finding]:
        for scope in self._scopes(module.tree):
            set_names = self._set_typed_names(scope)
            for node in ast.walk(scope):
                if self._in_nested_scope(node, scope, parents):
                    continue
                if isinstance(node, ast.For):
                    if self._is_set_expr(node.iter, set_names) and (
                        sink := self._ordered_sink(node)
                    ):
                        yield self.finding(
                            module, node.iter,
                            "iteration over a set feeds ordered output "
                            f"({sink}); set order depends on PYTHONHASHSEED",
                        )
                elif isinstance(
                    node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
                ):
                    for gen in node.generators:
                        if not self._is_set_expr(gen.iter, set_names):
                            continue
                        if isinstance(
                            node, (ast.GeneratorExp, ast.ListComp)
                        ) and self._is_order_safe_context(node, parents):
                            continue
                        kind = {
                            ast.ListComp: "a list",
                            ast.GeneratorExp: "a generator",
                            ast.DictComp: "a dict",
                        }[type(node)]
                        yield self.finding(
                            module, gen.iter,
                            f"comprehension builds {kind} by iterating a "
                            "set; set order depends on PYTHONHASHSEED",
                        )

    @staticmethod
    def _scopes(tree: ast.Module) -> List[ast.AST]:
        """Module plus every function body, as independent name scopes."""

        return [tree] + [
            n
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    @staticmethod
    def _in_nested_scope(
        node: ast.AST, scope: ast.AST, parents: Dict[ast.AST, ast.AST]
    ) -> bool:
        """True when ``node`` belongs to a function nested inside ``scope``
        (it will be visited with that scope's own name table instead)."""

        cur = parents.get(node)
        while cur is not None and cur is not scope:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return True
            cur = parents.get(cur)
        return False

    def _set_typed_names(self, scope: ast.AST) -> Set[str]:
        """Names assigned a provably-set-typed value anywhere in ``scope``.

        One non-set assignment to the same name disqualifies it: the
        checker only acts on names whose every assignment is a set (no
        flow sensitivity, so mixed-type reuse must not trigger).
        """

        set_names: Set[str] = set()
        disqualified: Set[str] = set()
        for node in ast.walk(scope):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if self._is_set_expr(value, set_names):
                    set_names.add(target.id)
                else:
                    disqualified.add(target.id)
        return set_names - disqualified

    def _is_set_expr(
        self, node: Optional[ast.AST], set_names: Set[str]
    ) -> bool:
        """Syntactically set-typed: literals with non-constant elements,
        ``set(...)``/``frozenset(...)`` calls, set comprehensions, set
        operators over set operands, and names assigned only sets."""

        if node is None:
            return False
        if isinstance(node, ast.Set):
            # all-constant literals hash identically every run for ints;
            # strings are salted, so only fully-numeric literals are safe
            return not all(
                isinstance(e, ast.Constant)
                and isinstance(e.value, (int, float, bool))
                for e in node.elts
            )
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in ("set", "frozenset"):
                return True
            head, _, tail = name.rpartition(".")
            if tail in _SET_METHODS and head and (
                head in set_names or head.split(".")[0] in set_names
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left, set_names) or self._is_set_expr(
                node.right, set_names
            )
        if isinstance(node, ast.Name):
            return node.id in set_names
        return False

    @staticmethod
    def _ordered_sink(loop: ast.For) -> str:
        """Name of the first order-sensitive operation in a loop body.

        ``append``/``extend``/``insert``/``write`` calls, ``yield`` and
        ``join`` make iteration order observable; membership tests,
        ``.add`` to another set, and commutative accumulation do not.
        """

        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                tail = call_name(node).split(".")[-1]
                if tail in ("append", "extend", "insert", "appendleft",
                            "write", "writelines", "join"):
                    return f".{tail}()"
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yield"
        return ""
