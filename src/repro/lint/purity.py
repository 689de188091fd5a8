"""The cache-key purity checker: engine options never reach cell identity.

PR 5 established the *no-fork rule*: options in
:data:`repro.approaches.ENGINE_KWARGS` select an execution engine (the
compiled SABRE kernel vs. the bit-identical Python fallback) and must
never influence a cell's identity -- not the shared
:func:`~repro.eval.cache.cell_identity` behind the cache key, the run
record's :func:`cell_key` and the experiment store's
:func:`identity_columns`, and not the verify-policy sampling hash.  A fork
would mean a sweep computed with the compiled kernel and the same sweep
computed with the fallback stop sharing cache entries, recorded runs stop
resuming across machines, and the "bit-identical" guarantee quietly
becomes "bit-identical per engine".

Until now that rule was a convention backed by a handful of no-fork
tests.  This checker makes it a static property of the tree:

1. **Single source of truth** -- ``ENGINE_KWARGS`` may be *defined* only
   in ``repro/approaches.py``; any second definition elsewhere is a
   drift bomb (two lists that can disagree) and is flagged.
2. **Sink discipline** -- every *identity sink* (a function that hashes
   cell identity: the known ones, plus any function in the tree that
   feeds a ``hashlib.*`` digest from a kwargs-like parameter) must
   filter that parameter through ``... not in ENGINE_KWARGS`` before
   serializing it, or hand it straight to another sink that does (the
   known sinks delegate to ``cell_identity``, where the one filter
   lives).  A sink using its kwargs any other way without the guard is
   flagged at the offending use.
3. **Call-graph taint walk** -- starting from the sinks, the checker
   walks callers to a fixpoint: a function that forwards one of its own
   parameters into a sink's kwargs position becomes a *derived sink*,
   and any call site anywhere in the tree that passes an engine-kwarg
   string literal (e.g. ``"kernel"``) into a (derived) sink's kwargs
   position is flagged.  This is how a future
   ``cache.key(..., kwargs=[("kernel", v), ...])`` gets caught at the
   call site that introduced it, however many wrappers deep.

The engine kwarg list itself is read from the AST of ``approaches.py``
(a literal ``frozenset({...})``), not imported -- the linter must be able
to judge a tree too broken to import.
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
    register_checker,
)

__all__ = ["CacheKeyPurityChecker"]

#: repo-relative module allowed to define ENGINE_KWARGS
ENGINE_KWARGS_HOME = "src/repro/approaches.py"

#: qualified names of the known identity sinks and their kwargs-like params
#: (dotted params name an attribute of the parameter, e.g. ``spec.kwargs``)
KNOWN_SINKS: Tuple[Tuple[str, str], ...] = (
    # cell_identity holds the one ENGINE_KWARGS filter; the other three
    # delegate to it (cell_cache_key is the derivation shared by the cache
    # and the serve LRU, cell_key keys run records, identity_columns are
    # the store's indexed columns).  ResultCache.key calls cell_identity
    # too; the taint walk makes it a derived sink automatically.
    ("cell_identity", "kwargs"),
    ("cell_cache_key", "kwargs"),
    ("cell_key", "spec.kwargs"),
    ("sample_verifies", "params"),
    ("identity_columns", "kwargs"),
)

#: parameter names that smell like an options mapping worth guarding
KWARGS_PARAM_NAMES = frozenset({"kwargs", "params", "options", "opts"})


def _literal_strings(node: ast.AST) -> Set[str]:
    """Every string constant appearing anywhere under ``node``."""

    return {
        n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _param_names(func: ast.AST) -> List[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


class _SinkTable:
    """(module rel, qualified function name) -> kwargs-like parameter."""

    def __init__(self) -> None:
        self.params: Dict[Tuple[str, str], str] = {}
        self.nodes: Dict[Tuple[str, str], ast.AST] = {}

    def add(self, rel: str, qual: str, param: str, node: ast.AST) -> None:
        self.params[(rel, qual)] = param
        self.nodes[(rel, qual)] = node

    def by_tail(self, name: str) -> Optional[Tuple[str, str, str]]:
        """Match a call target against the sinks by dotted-name tail.

        ``cache.key(...)`` matches ``ResultCache.key``; ``cell_key(...)``
        matches ``cell_key``.  Returns (rel, qual, param) or None.
        """

        tail = name.split(".")[-1]
        for (rel, qual), param in self.params.items():
            if qual.split(".")[-1] == tail:
                return rel, qual, param
        return None


@register_checker("cache-purity", synonyms=("purity", "no-fork"))
class CacheKeyPurityChecker(Checker):
    """Proves engine-selection options stay out of cell-identity hashing."""

    description = (
        "ENGINE_KWARGS options must never reach cache keys, run-record cell "
        "keys or verify-policy hashing (call-graph walk from the sinks)"
    )
    hint = (
        "filter engine options with `if k not in ENGINE_KWARGS` before "
        "hashing, and never pass engine-kwarg names into identity sinks"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        engine_kwargs, home_finding = self._engine_kwargs(project)
        if home_finding is not None:
            yield home_finding
        if not engine_kwargs:
            return
        yield from self._check_single_definition(project, engine_kwargs)
        sinks = self._collect_sinks(project)
        yield from self._check_sink_bodies(project, sinks, engine_kwargs)
        yield from self._taint_walk(project, sinks, engine_kwargs)

    # ------------------------------------------------------------------
    def _engine_kwargs(
        self, project: Project
    ) -> Tuple[Set[str], Optional[Finding]]:
        """Extract the literal ENGINE_KWARGS set from approaches.py."""

        module = project.context_module(ENGINE_KWARGS_HOME)
        if module is None:
            return set(), None  # linting a tree without the repro package
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "ENGINE_KWARGS"
                    for t in node.targets
                )
            ):
                names = {
                    s
                    for s in _literal_strings(node.value)
                }
                if names:
                    return names, None
                return set(), Finding(
                    path=module.rel,
                    line=node.lineno,
                    checker=self.name,
                    message="ENGINE_KWARGS is not a literal set of option "
                    "names; the purity checker cannot verify the no-fork "
                    "rule",
                    hint="keep ENGINE_KWARGS a frozenset of string literals",
                )
        return set(), Finding(
            path=module.rel,
            line=1,
            checker=self.name,
            message="no ENGINE_KWARGS definition found in approaches.py",
            hint="define ENGINE_KWARGS = frozenset({...}) in "
            "repro/approaches.py",
        )

    def _check_single_definition(
        self, project: Project, engine_kwargs: Set[str]
    ) -> Iterator[Finding]:
        for module in project.targets:
            if module.rel == ENGINE_KWARGS_HOME:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "ENGINE_KWARGS"
                    for t in node.targets
                ):
                    yield self.finding(
                        module, node,
                        "ENGINE_KWARGS redefined outside approaches.py; "
                        "two engine-option lists can silently diverge",
                        hint="import ENGINE_KWARGS from repro.approaches "
                        "instead of redefining it",
                    )

    # ------------------------------------------------------------------
    def _collect_sinks(self, project: Project) -> _SinkTable:
        """Known sinks plus autodetected kwargs-hashing functions.

        Iterates the shared :class:`~repro.lint.graph.ProjectGraph` symbol
        tables (targets plus the three sink-home context modules) instead
        of re-walking every AST.
        """

        graph = project.graph()
        sinks = _SinkTable()
        known = dict(KNOWN_SINKS)
        rels = [m.rel for m in project.targets]
        for rel in (
            "src/repro/eval/cache.py",
            "src/repro/eval/runners.py",
            "src/repro/store/store.py",
        ):
            if rel not in rels and graph.index_for(rel) is not None:
                rels.append(rel)
        for rel in rels:
            index = graph.modules.get(rel)
            if index is None:
                continue
            for qual, func in index.functions.items():
                if qual in known:
                    sinks.add(rel, qual, known[qual], func)
                    continue
                # autodetect: hashes identity AND takes a kwargs-like param
                params = [
                    p for p in _param_names(func) if p in KWARGS_PARAM_NAMES
                ]
                if not params:
                    continue
                if any(
                    isinstance(n, ast.Call)
                    and call_name(n).startswith("hashlib.")
                    for n in ast.walk(func)
                ):
                    sinks.add(rel, qual, params[0], func)
        return sinks

    def _check_sink_bodies(
        self, project: Project, sinks: _SinkTable, engine_kwargs: Set[str]
    ) -> Iterator[Finding]:
        """Every sink must filter its kwargs through ENGINE_KWARGS.

        The requirement is function-granular: the sink's body must contain
        a ``... not in ENGINE_KWARGS`` guard *somewhere* on the flow of the
        kwargs-like parameter (nested comprehensions legitimately split
        the iteration from the filter, so demanding the guard on every
        generator would flag the filtered idiom itself).  A use that is
        itself a whole argument of a call to another sink is delegation,
        not serialization: that sink's own guard (checked here too)
        filters it.  A sink whose body uses the parameter any other way
        with no guard anywhere is flagged at the first such use.
        """

        for (rel, qual), param in sinks.params.items():
            func = sinks.nodes[(rel, qual)]
            module = self._module_for(project, rel)
            if module is None:
                continue
            if any(self._is_engine_guard(n) for n in ast.walk(func)):
                continue
            use = self._first_param_use(
                func, param, skip=self._delegated_args(func, qual, sinks)
            )
            if use is None:
                continue  # parameter never serialized: nothing to fork on
            yield Finding(
                path=rel,
                line=use.lineno,
                checker=self.name,
                message=f"identity sink {qual}() serializes {param!r} "
                "without filtering ENGINE_KWARGS; engine choice would "
                "fork the key",
                hint="filter with `if str(k) not in ENGINE_KWARGS` before "
                "hashing",
            )

    @staticmethod
    def _delegated_args(
        func: ast.AST, qual: str, sinks: _SinkTable
    ) -> Set[int]:
        """ids of the nodes ``func`` passes whole into another sink's
        kwargs-like slot (by keyword, or by its position in that sink's
        signature)."""

        out: Set[int] = set()
        for n in ast.walk(func):
            if not isinstance(n, ast.Call):
                continue
            match = sinks.by_tail(call_name(n))
            if match is None or match[1] == qual:
                continue
            rel, callee, param = match
            slot = param.partition(".")[0]
            out.update(id(k.value) for k in n.keywords if k.arg == slot)
            args = sinks.nodes[(rel, callee)].args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if positional and positional[0] in ("self", "cls"):
                positional = positional[1:]
            if slot in positional and positional.index(slot) < len(n.args):
                out.add(id(n.args[positional.index(slot)]))
        return out

    @staticmethod
    def _first_param_use(
        func: ast.AST, param: str, skip: Set[int] = frozenset()
    ) -> Optional[ast.AST]:
        """First body node reading ``param`` (``a.b`` matches ``a.b`` only),
        ignoring the nodes in ``skip``."""

        base, _, attr = param.partition(".")
        for n in ast.walk(func):
            if id(n) in skip:
                continue
            if attr:
                if (
                    isinstance(n, ast.Attribute)
                    and n.attr == attr
                    and isinstance(n.value, ast.Name)
                    and n.value.id == base
                ):
                    return n
            elif isinstance(n, ast.Name) and n.id == base and isinstance(
                n.ctx, ast.Load
            ):
                return n
        return None

    @staticmethod
    def _is_engine_guard(cond: ast.AST) -> bool:
        for n in ast.walk(cond):
            if isinstance(n, ast.Compare) and any(
                isinstance(op, ast.NotIn) for op in n.ops
            ):
                for comp in n.comparators:
                    name = (
                        comp.id
                        if isinstance(comp, ast.Name)
                        else comp.attr
                        if isinstance(comp, ast.Attribute)
                        else ""
                    )
                    if name == "ENGINE_KWARGS":
                        return True
        return False

    # ------------------------------------------------------------------
    def _module_for(self, project: Project, rel: str) -> Optional[Module]:
        for module in project.targets:
            if module.rel == rel:
                return module
        return project.context_module(rel)

    def _taint_walk(
        self, project: Project, sinks: _SinkTable, engine_kwargs: Set[str]
    ) -> Iterator[Finding]:
        """Fixpoint over callers: flag engine literals entering sink args.

        A call site taints when any expression passed into a (derived)
        sink's kwargs-position contains an engine-kwarg string literal.
        A caller that instead forwards one of *its own* parameters becomes
        a derived sink, so the literal is caught at whatever call depth it
        enters the flow.

        Candidate call sites come from the shared project graph's
        tail-indexed call table: instead of re-walking every function per
        fixpoint round, each (derived) sink pulls exactly the sites whose
        call-name tail matches it, and newly derived sinks enqueue their
        own tail.
        """

        graph = project.graph()
        derived = _SinkTable()
        derived.params.update(sinks.params)
        derived.nodes.update(sinks.nodes)
        flagged: Set[Tuple[str, int, str]] = set()
        worklist = [qual.split(".")[-1] for (_, qual) in derived.params]
        processed: Set[str] = set()
        while worklist:
            tail = worklist.pop(0)
            if tail in processed:
                continue
            processed.add(tail)
            for rel, caller_qual, site in graph.calls_by_tail(tail):
                match = derived.by_tail(site.name)
                if match is None:
                    continue
                index = graph.modules[rel]
                module = index.module
                func = index.functions.get(caller_qual)
                own_params = (
                    set(_param_names(func)) if func is not None else set()
                )
                _, sink_qual, sink_param = match
                node = site.node
                for arg in self._args_for_param(node, sink_param):
                    hit = _literal_strings(arg) & engine_kwargs
                    if hit:
                        key = (rel, node.lineno, sink_qual)
                        if key not in flagged:
                            flagged.add(key)
                            yield self.finding(
                                module, node,
                                "engine kwarg "
                                f"{sorted(hit)!r} passed into "
                                f"identity sink {sink_qual}(); "
                                "cache keys must not fork on "
                                "engine options",
                            )
                    forwarded = {
                        n.id
                        for n in ast.walk(arg)
                        if isinstance(n, ast.Name)
                    } & own_params
                    if (
                        forwarded
                        and func is not None
                        and (rel, caller_qual) not in derived.params
                    ):
                        derived.add(
                            rel, caller_qual, sorted(forwarded)[0], func
                        )
                        new_tail = caller_qual.split(".")[-1]
                        processed.discard(new_tail)
                        worklist.append(new_tail)
        return

    @staticmethod
    def _args_for_param(call: ast.Call, param: str) -> List[ast.expr]:
        """Expressions a call passes into the sink's kwargs-like slot.

        Exact keyword match when present; otherwise every positional arg
        (parameter position is unknown across wrappers, and scanning all
        positionals only risks extra vigilance, not missed taint).
        """

        base = param.partition(".")[0]
        kw = [k.value for k in call.keywords if k.arg == base]
        if kw:
            return kw
        return list(call.args)
