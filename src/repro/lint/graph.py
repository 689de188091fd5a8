"""The whole-program index: symbols, imports, call graph, reachability.

Without this module every cross-file checker would hand-roll its own
resolution: the purity checker would match call targets by dotted-name
tail, and a checker that needs "which functions run inside a forked
worker?" would have nowhere to ask.  The graph layer builds -- once per
lint run, shared by every checker via :meth:`Project.graph` -- a
project-wide index over the already-parsed
:class:`~repro.lint.framework.Project`:

:class:`ModuleIndex`
    Per-module symbol tables: defined functions/classes (dotted quals,
    ``ResultCache.key``), ``import x as y`` aliases, ``from m import f
    as g`` bindings with relative-import resolution, and module-scope
    ``x = y`` re-export aliases.
:class:`ProjectGraph`
    Import-aware name resolution (:meth:`resolve_call`), canonical
    external names (:meth:`external_name`, so ``from sqlite3 import
    connect as c`` still reads as ``sqlite3.connect``), a call graph
    (:meth:`callees_of`), and BFS reachability over it
    (:meth:`reachable`).

Resolution is *exact* where imports allow (bare names, ``self.method``,
``module.func``, re-export chains) and falls back to dotted-name *tail*
matching for attribute calls on unresolvable receivers (``cache.key(...)``
matches ``ResultCache.key``) -- the same over-approximation the purity
checker always used, now in one place.  Fuzzy edges are marked so
clients can ask for exact-only reachability.

Everything here is pure AST bookkeeping: the linter must be able to
judge a tree too broken to import.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .framework import Module, Project, dotted_name, iter_functions

__all__ = [
    "FunctionRef",
    "CallSite",
    "ModuleIndex",
    "ProjectGraph",
    "module_dotted",
]

#: qual used for a module's top-level (import-time) statements
MODULE_BODY = "<module>"

#: how far a ``from a import b`` re-export chain is chased before giving up
_REEXPORT_DEPTH = 10


@dataclass(frozen=True, order=True)
class FunctionRef:
    """One function (or class body, or module body) in the project.

    ``rel`` is the repo-relative path; ``qual`` the dotted qualified name
    inside the module (``ResultCache.key``), or :data:`MODULE_BODY` for
    import-time statements.
    """

    rel: str
    qual: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.rel}:{self.qual}"


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    name: str  # dotted best-effort target ("" when not a name chain)

    @property
    def tail(self) -> str:
        return self.name.split(".")[-1] if self.name else ""


def module_dotted(rel: str) -> Tuple[str, bool]:
    """``src/repro/eval/cache.py`` -> (``"repro.eval.cache"``, is_package).

    The leading ``src`` component is dropped (the repo's import root);
    ``__init__.py`` names the package itself.
    """

    path = rel[:-3] if rel.endswith(".py") else rel
    parts = [p for p in path.split("/") if p]
    is_package = bool(parts) and parts[-1] == "__init__"
    if is_package:
        parts.pop()
    if parts and parts[0] == "src":
        parts = parts[1:]
    return ".".join(parts), is_package


def _body_calls(root: ast.AST, *, enter_classes: bool) -> List[CallSite]:
    """Call sites lexically inside ``root``, not descending into defs.

    Calls inside a nested ``def`` belong to that function's own entry;
    ``enter_classes`` is True for the module body (class-level statements
    run at import time) and False inside functions.
    """

    out: List[CallSite] = []
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.ClassDef) and not enter_classes:
            continue
        if isinstance(node, ast.Call):
            out.append(CallSite(node, dotted_name(node.func)))
        stack.extend(ast.iter_child_nodes(node))
    out.sort(key=lambda s: (s.node.lineno, s.node.col_offset))
    return out


class ModuleIndex:
    """Symbol tables for one parsed module."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.rel = module.rel
        self.dotted, self.is_package = module_dotted(module.rel)
        #: qual -> def node, for every function/method (nested included)
        self.functions: Dict[str, ast.AST] = {}
        #: qual -> ClassDef
        self.classes: Dict[str, ast.ClassDef] = {}
        #: local name -> imported module ("import a.b as c" -> {"c": "a.b"})
        self.import_aliases: Dict[str, str] = {}
        #: local name -> (source module, original name) for from-imports
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        #: module-scope `x = y` / `x = a.b` aliases (re-export idiom)
        self.assign_aliases: Dict[str, str] = {}
        #: qual (or MODULE_BODY) -> call sites in that body
        self.calls: Dict[str, List[CallSite]] = {}
        self._build()

    def _build(self) -> None:
        tree = self.module.tree
        for qual, node in iter_functions(tree):
            self.functions[qual] = node
            self.calls[qual] = _body_calls(node, enter_classes=False)
        self._index_classes(tree, "")
        self.calls[MODULE_BODY] = _body_calls(tree, enter_classes=True)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.import_aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_base(node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.from_imports[local] = (base, alias.name)
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                source = dotted_name(stmt.value)
                if source:
                    self.assign_aliases[stmt.targets[0].id] = source

    def _index_classes(self, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qual = f"{prefix}{child.name}"
                self.classes[qual] = child
                self._index_classes(child, f"{qual}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_classes(child, f"{prefix}{child.name}.")

    def _resolve_from_base(self, node: ast.ImportFrom) -> str:
        """Absolute dotted module a ``from ... import`` pulls from."""

        if not node.level:
            return node.module or ""
        parts = self.dotted.split(".") if self.dotted else []
        if not self.is_package and parts:
            parts = parts[:-1]  # level 1 = this module's package
        for _ in range(node.level - 1):
            if parts:
                parts.pop()
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts)


class ProjectGraph:
    """The shared whole-program index; built lazily via ``Project.graph()``.

    Target modules are indexed eagerly; modules reached through imports
    are pulled in on demand (as context modules, capped by what exists on
    disk) so resolution works when linting a subtree.
    """

    def __init__(self, project: Project) -> None:
        self.project = project
        self.modules: Dict[str, ModuleIndex] = {}
        self._by_dotted: Dict[str, str] = {}  # dotted module -> rel
        self._missing: Set[str] = set()  # dotted modules known absent
        self._edges: Optional[Dict[FunctionRef, List[Tuple[FunctionRef, bool]]]] = None
        self._call_index: Optional[Dict[str, List[Tuple[str, str, CallSite]]]] = None
        self._tails: Optional[Dict[str, List[FunctionRef]]] = None
        for module in project.targets:
            self.add_module(module)

    # -- module bookkeeping ------------------------------------------------
    def add_module(self, module: Module) -> ModuleIndex:
        """Index ``module`` (idempotent); invalidates derived tables."""

        if module.rel in self.modules:
            return self.modules[module.rel]
        index = ModuleIndex(module)
        self.modules[module.rel] = index
        if index.dotted:
            self._by_dotted.setdefault(index.dotted, module.rel)
        self._edges = None
        self._call_index = self._tails = None
        return index

    def index_for(self, rel: str) -> Optional[ModuleIndex]:
        if rel in self.modules:
            return self.modules[rel]
        module = self.project.context_module(rel)
        if module is None:
            return None
        return self.add_module(module)

    def _module_by_dotted(self, dotted: str) -> Optional[ModuleIndex]:
        """The indexed module for an absolute dotted name, loading lazily."""

        if dotted in self._by_dotted:
            return self.modules[self._by_dotted[dotted]]
        if not dotted or dotted in self._missing:
            return None
        path = dotted.replace(".", "/")
        for rel in (
            f"src/{path}.py",
            f"src/{path}/__init__.py",
            f"{path}.py",
            f"{path}/__init__.py",
        ):
            module = self.project.context_module(rel)
            if module is not None:
                index = self.add_module(module)
                self._by_dotted.setdefault(dotted, module.rel)
                return index
        self._missing.add(dotted)
        return None

    # -- name resolution ---------------------------------------------------
    def external_name(self, rel: str, name: str) -> str:
        """Canonical dotted name with the leading import alias expanded.

        ``from sqlite3 import connect as c`` makes ``c(...)`` read as
        ``sqlite3.connect``; names that are not imports come back as-is.
        """

        index = self.modules.get(rel)
        if index is None or not name:
            return name
        parts = name.split(".")
        head = parts[0]
        if head in index.import_aliases:
            return ".".join([index.import_aliases[head]] + parts[1:])
        if head in index.from_imports:
            base, orig = index.from_imports[head]
            prefix = f"{base}.{orig}" if base else orig
            return ".".join([prefix] + parts[1:])
        return name

    def _resolve_symbol(
        self, index: ModuleIndex, name: str, depth: int = 0
    ) -> List[FunctionRef]:
        """A top-level symbol of ``index``: function, class, or re-export."""

        if name in index.functions:
            return [FunctionRef(index.rel, name)]
        if name in index.classes:
            return self._class_refs(index, name)
        if name in index.assign_aliases and depth < _REEXPORT_DEPTH:
            return self._resolve_dotted(
                index, index.assign_aliases[name], depth + 1
            )
        if name in index.from_imports and depth < _REEXPORT_DEPTH:
            base, orig = index.from_imports[name]
            submodule = self._module_by_dotted(
                f"{base}.{orig}" if base else orig
            )
            if submodule is not None:
                return []  # a module object, not a callable
            source = self._module_by_dotted(base)
            if source is not None:
                return self._resolve_symbol(source, orig, depth + 1)
        return []

    def _class_refs(self, index: ModuleIndex, qual: str) -> List[FunctionRef]:
        """Calling/entering a class reaches its constructor and CM hooks."""

        out = []
        for method in ("__init__", "__enter__", "__exit__"):
            if f"{qual}.{method}" in index.functions:
                out.append(FunctionRef(index.rel, f"{qual}.{method}"))
        return out

    def _resolve_dotted(
        self, index: ModuleIndex, name: str, depth: int = 0
    ) -> List[FunctionRef]:
        parts = name.split(".")
        head = parts[0]
        if len(parts) == 1:
            return self._resolve_symbol(index, head, depth)
        if head in index.import_aliases:
            target = self._module_by_dotted(index.import_aliases[head])
            if target is not None:
                return self._resolve_qual_in(target, parts[1:], depth)
            return []
        if head in index.from_imports:
            base, orig = index.from_imports[head]
            submodule = self._module_by_dotted(
                f"{base}.{orig}" if base else orig
            )
            if submodule is not None:
                return self._resolve_qual_in(submodule, parts[1:], depth)
            source = self._module_by_dotted(base)
            if source is not None and orig in source.classes:
                return self._resolve_qual_in(source, [orig] + parts[1:], depth)
            return []
        if head in index.classes or any(
            q.split(".")[0] == head for q in index.classes
        ):
            qual = ".".join(parts)
            if qual in index.functions:
                return [FunctionRef(index.rel, qual)]
        return []

    def _resolve_qual_in(
        self, index: ModuleIndex, parts: List[str], depth: int
    ) -> List[FunctionRef]:
        qual = ".".join(parts)
        if qual in index.functions:
            return [FunctionRef(index.rel, qual)]
        if qual in index.classes:
            return self._class_refs(index, qual)
        if len(parts) == 1:
            return self._resolve_symbol(index, parts[0], depth + 1)
        if len(parts) == 2 and parts[0] in index.from_imports:
            # module.Class re-exported, then .method called on it
            refs = self._resolve_symbol(index, parts[0], depth + 1)
            out = []
            for ref in refs:
                owner = self.modules.get(ref.rel)
                cls = ref.qual.rsplit(".", 1)[0] if "." in ref.qual else ref.qual
                if owner and f"{cls}.{parts[1]}" in owner.functions:
                    out.append(FunctionRef(ref.rel, f"{cls}.{parts[1]}"))
            if out:
                return out
        return []

    def resolve_call(
        self, rel: str, caller_qual: str, name: str
    ) -> List[FunctionRef]:
        """Exact targets of a call named ``name`` made inside ``caller_qual``.

        Empty when the target is external (stdlib), dynamic, or not
        statically resolvable -- callers fall back to
        :meth:`functions_by_tail` for the fuzzy over-approximation.
        """

        index = self.modules.get(rel)
        if index is None or not name:
            return []
        parts = name.split(".")
        if parts[0] in ("self", "cls") and len(parts) == 2:
            cls_qual = self._enclosing_class(index, caller_qual)
            if cls_qual is not None:
                qual = f"{cls_qual}.{parts[1]}"
                if qual in index.functions:
                    return [FunctionRef(rel, qual)]
            return []
        if len(parts) == 1:
            # nearest enclosing scope first: nested def, then outer, then
            # module top level, then imports
            qparts = caller_qual.split(".") if caller_qual != MODULE_BODY else []
            for i in range(len(qparts), -1, -1):
                qual = ".".join(qparts[:i] + [name]) if i else name
                if qual in index.functions:
                    return [FunctionRef(rel, qual)]
                if qual in index.classes:
                    return self._class_refs(index, qual)
        return self._resolve_dotted(index, name)

    @staticmethod
    def _enclosing_class(index: ModuleIndex, caller_qual: str) -> Optional[str]:
        parts = caller_qual.split(".")
        for i in range(len(parts) - 1, 0, -1):
            qual = ".".join(parts[:i])
            if qual in index.classes:
                return qual
        return None

    # -- derived tables ----------------------------------------------------
    def calls_by_tail(self, tail: str) -> List[Tuple[str, str, CallSite]]:
        """Target-module call sites whose dotted name ends in ``tail``."""

        if self._call_index is None:
            self._call_index = {}
            for module in self.project.targets:
                index = self.modules.get(module.rel)
                if index is None:
                    continue
                for qual, sites in index.calls.items():
                    for site in sites:
                        if site.tail:
                            self._call_index.setdefault(site.tail, []).append(
                                (index.rel, qual, site)
                            )
        return self._call_index.get(tail, [])

    def functions_by_tail(self, tail: str) -> List[FunctionRef]:
        """Every indexed function whose qual ends in ``tail`` (fuzzy pool)."""

        if self._tails is None:
            self._tails = {}
            for rel in sorted(self.modules):
                index = self.modules[rel]
                for qual in index.functions:
                    self._tails.setdefault(qual.split(".")[-1], []).append(
                        FunctionRef(rel, qual)
                    )
        return self._tails.get(tail, [])

    def _ensure_edges(self) -> None:
        if self._edges is not None:
            return
        edges: Dict[FunctionRef, List[Tuple[FunctionRef, bool]]] = {}
        for rel in sorted(self.modules):
            index = self.modules[rel]
            for qual, sites in sorted(index.calls.items()):
                caller = FunctionRef(rel, qual)
                targets: List[Tuple[FunctionRef, bool]] = []
                for site in sites:
                    refs = self.resolve_call(rel, qual, site.name)
                    if refs:
                        targets.extend((ref, True) for ref in refs)
                    elif "." in site.name:
                        # attribute call on an unresolvable receiver:
                        # over-approximate by method-name tail
                        targets.extend(
                            (ref, False)
                            for ref in self.functions_by_tail(site.tail)
                        )
                # `with ctx()` reaches __enter__/__exit__ even though no
                # call expression names them
                for node in self._with_items(index, qual):
                    refs = self.resolve_call(rel, qual, dotted_name(node))
                    targets.extend((ref, True) for ref in refs)
                seen: Set[Tuple[FunctionRef, bool]] = set()
                uniq = []
                for item in targets:
                    if item not in seen and item[0] != caller:
                        seen.add(item)
                        uniq.append(item)
                edges[caller] = uniq
        self._edges = edges

    def _with_items(self, index: ModuleIndex, qual: str) -> List[ast.AST]:
        body = (
            index.module.tree
            if qual == MODULE_BODY
            else index.functions.get(qual)
        )
        if body is None:
            return []
        out = []
        stack = list(ast.iter_child_nodes(body))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        out.append(expr.func)
            stack.extend(ast.iter_child_nodes(node))
        return out

    def callees_of(
        self, ref: FunctionRef, *, include_fuzzy: bool = True
    ) -> List[FunctionRef]:
        self._ensure_edges()
        return [
            target
            for target, exact in self._edges.get(ref, [])
            if exact or include_fuzzy
        ]

    def reachable(
        self, seeds: Iterable[FunctionRef], *, include_fuzzy: bool = True
    ) -> Set[FunctionRef]:
        """Every function ``seeds`` can end up running, seeds included (the
        transitive closure over call edges)."""

        seen: Set[FunctionRef] = set()
        frontier = [s for s in seeds]
        while frontier:
            ref = frontier.pop()
            if ref in seen:
                continue
            seen.add(ref)
            for nxt in self.callees_of(ref, include_fuzzy=include_fuzzy):
                if nxt not in seen:
                    frontier.append(nxt)
        return seen
