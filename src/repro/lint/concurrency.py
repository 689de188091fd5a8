"""The fork-safety checker: resources must not cross process lines.

The evaluation pool and the compile service run their work in forked
worker processes (:class:`repro.eval.workers.WarmWorkerPool`), and a
WAL-mode SQLite store sits under everything.  So a SQLite connection, open
file handle, seeded ``random.Random`` or lock created *before* the fork
point must never be used on the worker side.  A forked connection
corrupts the database (SQLite is explicit about this); a shared
``Random`` duplicates every "random" decision in every worker; an
inherited lock can be held forever by a thread that does not exist in
the child.  Each worker must create its own.

This checker makes that a static property of the tree, driven entirely
by the shared :class:`~repro.lint.graph.ProjectGraph`:

* *fork points* are found syntactically -- ``Process(target=f)``,
  ``WarmWorkerPool(..., task=f)``, ``executor.submit(f, ...)``,
  ``pool.map(f, ...)`` -- and the functions passed there are the *worker
  entries*; the worker-side set is their forward reachability closure.
  (The pool's worker loop calls ``task(item)``, which the call graph
  cannot resolve, so the ``task=`` argument itself names an entry.)
* a module-scope resource (``sqlite3.connect`` result, ``open`` handle,
  ``random.Random``, ``threading``/``multiprocessing`` lock) referenced
  from any worker-side function is flagged at its creation site.
* a resource created in a function and then passed into a fork-point
  call (``Process(..., args=(conn,))``) is flagged at the fork point.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .framework import Checker, Finding, Project, dotted_name, register_checker
from .graph import MODULE_BODY, FunctionRef, ProjectGraph

__all__ = ["ConcurrencyChecker"]

#: canonical constructor names of resources that must not cross a fork
RESOURCE_KINDS: Tuple[Tuple[str, str], ...] = (
    ("sqlite3.connect", "sqlite connection"),
    ("open", "open file handle"),
    ("io.open", "open file handle"),
    ("random.Random", "random.Random instance"),
    ("threading.Lock", "lock"),
    ("threading.RLock", "lock"),
    ("threading.Condition", "lock"),
    ("threading.Semaphore", "lock"),
    ("threading.BoundedSemaphore", "lock"),
    ("threading.Event", "lock"),
    ("multiprocessing.Lock", "lock"),
    ("multiprocessing.RLock", "lock"),
)

#: attribute tails that submit work to a pool/executor (first arg = entry)
_SUBMIT_TAILS = frozenset({"submit", "apply_async", "map", "imap",
                           "imap_unordered", "starmap", "map_async"})


def _resource_kind(name: str) -> Optional[str]:
    for canonical, kind in RESOURCE_KINDS:
        if name == canonical:
            return kind
    return None


class _ForkPoint:
    """One Process(...)/submit(...) call plus its resolved worker entries."""

    def __init__(self, rel: str, qual: str, node: ast.Call) -> None:
        self.rel = rel
        self.qual = qual
        self.node = node
        self.entries: List[FunctionRef] = []


@register_checker("concurrency", synonyms=("fork-safety",))
class ConcurrencyChecker(Checker):
    """Proves parent-side resources stay out of forked workers."""

    description = (
        "resources created before a fork (sqlite connections, file "
        "handles, RNGs, locks) must not be reachable from worker-side "
        "functions"
    )
    hint = "create connections/handles/RNGs inside the worker function"

    def check(self, project: Project) -> Iterator[Finding]:
        graph = project.graph()
        fork_points = self._fork_points(graph)
        worker_side = self.worker_side(graph, fork_points)
        yield from self._check_module_resources(graph, worker_side)
        yield from self._check_resources_into_fork(graph, fork_points)

    def worker_side(
        self,
        graph: ProjectGraph,
        fork_points: Optional[List[_ForkPoint]] = None,
    ) -> Set[FunctionRef]:
        """Every function that may run in a forked worker."""

        if fork_points is None:
            fork_points = self._fork_points(graph)
        return graph.reachable(
            sorted({ref for fp in fork_points for ref in fp.entries})
        )

    # -- fork points -------------------------------------------------------
    def _fork_points(self, graph: ProjectGraph) -> List[_ForkPoint]:
        points: List[_ForkPoint] = []
        for module in graph.project.targets:
            index = graph.modules.get(module.rel)
            if index is None:
                continue
            for qual, sites in sorted(index.calls.items()):
                for site in sites:
                    entry_exprs = self._worker_entry_exprs(
                        graph, module.rel, site.node, site.name
                    )
                    if entry_exprs is None:
                        continue
                    point = _ForkPoint(module.rel, qual, site.node)
                    for expr in entry_exprs:
                        name = dotted_name(expr)
                        if not name:
                            continue
                        point.entries.extend(
                            graph.resolve_call(module.rel, qual, name)
                            or graph.functions_by_tail(name.split(".")[-1])
                        )
                    points.append(point)
        return points

    def _worker_entry_exprs(
        self, graph: ProjectGraph, rel: str, node: ast.Call, name: str
    ) -> Optional[List[ast.expr]]:
        """The expressions naming the worker function, or None if not a
        fork point."""

        external = graph.external_name(rel, name)
        tail = name.split(".")[-1] if name else ""
        if external.endswith(".Process") or external == "Process":
            return [k.value for k in node.keywords if k.arg == "target"]
        if external.split(".")[-1] == "WarmWorkerPool":
            return [k.value for k in node.keywords if k.arg == "task"]
        if tail in _SUBMIT_TAILS and node.args:
            # executor.submit(f, ...) / pool.map(f, it): only treat as a
            # fork point when the receiver smells like a pool/executor --
            # plain `map(f, xs)` and Registry lookups are not forks
            receiver = name.rsplit(".", 1)[0] if "." in name else ""
            if receiver or tail in ("submit",):
                return [node.args[0]]
        return None

    # -- rule 1: module-scope resources used worker-side -------------------
    def _module_resources(
        self, graph: ProjectGraph, rel: str
    ) -> List[Tuple[str, str, ast.Assign]]:
        """(name, kind, assign node) for module-scope resource creations."""

        index = graph.modules.get(rel)
        if index is None:
            return []
        out = []
        for stmt in index.module.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            call = stmt.value
            if not isinstance(call, ast.Call):
                continue
            kind = _resource_kind(
                graph.external_name(rel, dotted_name(call.func))
            )
            if kind is None:
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.append((target.id, kind, stmt))
        return out

    def _check_module_resources(
        self, graph: ProjectGraph, worker_side: Set[FunctionRef]
    ) -> Iterator[Finding]:
        if not worker_side:
            return
        for module in graph.project.targets:
            resources = self._module_resources(graph, module.rel)
            if not resources:
                continue
            index = graph.modules[module.rel]
            for name, kind, stmt in resources:
                user = self._worker_side_user(
                    graph, worker_side, module.rel, name
                )
                if user is None:
                    continue
                yield self.finding(
                    module, stmt,
                    f"module-scope {kind} {name!r} is used by "
                    f"worker-side function {user.qual}(); it would cross "
                    "the fork and must be created inside the worker",
                )

    def _worker_side_user(
        self,
        graph: ProjectGraph,
        worker_side: Set[FunctionRef],
        rel: str,
        name: str,
    ) -> Optional[FunctionRef]:
        """A worker-side function reading module-global ``name`` of ``rel``."""

        for ref in sorted(worker_side):
            index = graph.modules.get(ref.rel)
            if index is None:
                continue
            if ref.rel == rel:
                local = name
            else:
                # imported under some local alias?
                local = None
                for alias, (mod, orig) in index.from_imports.items():
                    if orig == name and graph.modules.get(
                        graph._by_dotted.get(mod, "")
                    ) is graph.modules.get(rel):
                        local = alias
                        break
                if local is None:
                    continue
            func = (
                index.module.tree
                if ref.qual == MODULE_BODY
                else index.functions.get(ref.qual)
            )
            if func is None:
                continue
            bound = {
                a.arg
                for a in ast.walk(func)
                if isinstance(a, ast.arg)
            }
            if local in bound:
                continue  # shadowed by a parameter: not the global
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Name)
                    and node.id == local
                    and isinstance(node.ctx, ast.Load)
                ):
                    return ref
        return None

    # -- rule 2: parent-side resources passed into the fork ----------------
    def _check_resources_into_fork(
        self, graph: ProjectGraph, fork_points: List[_ForkPoint]
    ) -> Iterator[Finding]:
        by_func: Dict[Tuple[str, str], List[_ForkPoint]] = {}
        for fp in fork_points:
            by_func.setdefault((fp.rel, fp.qual), []).append(fp)
        for (rel, qual), points in sorted(by_func.items()):
            index = graph.modules[rel]
            func = (
                index.module.tree
                if qual == MODULE_BODY
                else index.functions.get(qual)
            )
            if func is None:
                continue
            local_resources: Dict[str, Tuple[str, int]] = {}
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call
                ):
                    kind = _resource_kind(
                        graph.external_name(
                            rel, dotted_name(node.value.func)
                        )
                    )
                    if kind is None:
                        continue
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            local_resources[target.id] = (kind, node.lineno)
            if not local_resources:
                continue
            for fp in points:
                passed = {
                    n.id
                    for arg in list(fp.node.args)
                    + [k.value for k in fp.node.keywords]
                    for n in ast.walk(arg)
                    if isinstance(n, ast.Name)
                }
                for name in sorted(passed & set(local_resources)):
                    kind, created_line = local_resources[name]
                    if created_line >= fp.node.lineno:
                        continue
                    yield self.finding(
                        index.module, fp.node,
                        f"{kind} {name!r} (created line {created_line}) "
                        "is passed across a fork/submit point; workers "
                        "must open their own",
                    )
