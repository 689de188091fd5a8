"""The checker framework: findings, suppression, the project model.

``repro.lint`` exists because every guarantee this reproduction makes --
bit-identical circuits across engines, cache keys that never fork on
engine options, recorded runs that resume bit-equal -- is an *invariant of the
source code*, not of any particular test run.  The equivalence suites
sample a handful of (workload, architecture, seed) points; one unsorted
directory listing or unseeded global-RNG call in a path nobody sampled
silently breaks all of it.  This package checks those invariants
statically, over the whole tree, on every CI run.

The moving parts:

:class:`Finding`
    One structured violation, rendered ``file:line:checker:message``.
:class:`Module` / :class:`Project`
    Parsed source files plus the cross-file context checkers need
    (``approaches.py`` for the engine kwarg list).  Modules are parsed
    once and shared by every checker.
:func:`register_checker`
    The registration decorator, backed by the same
    :class:`~repro.registry.Registry` as workloads/approaches/
    architectures -- synonyms, did-you-mean lookups and duplicate
    detection come for free.

Suppression is per line: a ``# repro-lint: ignore[checker]`` comment on
the flagged line silences that checker there (``ignore[a,b]`` for
several, bare ``ignore`` for all).
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..registry import Registry

__all__ = [
    "Finding",
    "Module",
    "Project",
    "Checker",
    "CHECKERS",
    "register_checker",
    "run_checkers",
]

#: the suppression comment marker (``# repro-lint: ignore[...]``)
SUPPRESS_MARKER = "repro-lint:"

#: sentinel for "every checker suppressed on this line"
SUPPRESS_ALL: FrozenSet[str] = frozenset({"*"})


@dataclass(frozen=True)
class Finding:
    """One structured lint violation.

    ``path`` is stored repo-relative (POSIX separators) so renderings are
    stable across machines and working directories.
    ``hint`` is the suggested fix shown under ``--fix-hints``; it is not
    part of the finding's identity.
    """

    path: str
    line: int
    checker: str
    message: str
    hint: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.checker}:{self.message}"


def _suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> set of checker names suppressed on that line.

    Parsed from comment tokens, so the marker inside a string literal does
    not suppress anything.  Unreadable sources return no suppressions (the
    caller already failed to parse them).
    """

    out: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT or SUPPRESS_MARKER not in tok.string:
                continue
            directive = tok.string.split(SUPPRESS_MARKER, 1)[1].strip()
            if not directive.startswith("ignore"):
                continue
            rest = directive[len("ignore"):].strip()
            if rest.startswith("[") and "]" in rest:
                names = frozenset(
                    n.strip().lower()
                    for n in rest[1 : rest.index("]")].split(",")
                    if n.strip()
                )
                out[tok.start[0]] = out.get(tok.start[0], frozenset()) | names
            else:
                out[tok.start[0]] = SUPPRESS_ALL
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return out


@dataclass
class Module:
    """One parsed source file plus its per-line suppression table."""

    path: Path  # absolute
    rel: str  # repo-relative POSIX path (finding identity)
    source: str
    tree: ast.Module
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def suppressed(self, line: int, checker: str) -> bool:
        names = self.suppressions.get(line)
        if names is None:
            return False
        return names is SUPPRESS_ALL or "*" in names or checker.lower() in names


class Project:
    """Everything the checkers see: parsed targets plus cross-file context.

    ``targets`` are the modules findings are reported against.  Context
    modules (``context_module``) are parsed on demand and cached -- the
    purity checker reads ``approaches.py`` for the engine kwarg list even
    when only a subtree is being linted.
    """

    def __init__(self, root: Path, targets: Iterable[Module]) -> None:
        self.root = Path(root)
        self.targets: List[Module] = list(targets)
        self._context_cache: Dict[str, Optional[Module]] = {}
        self._graph = None
        #: parse failures encountered while loading targets, as findings
        self.parse_errors: List[Finding] = []

    # -- construction ------------------------------------------------------
    @classmethod
    def load(
        cls, paths: Iterable[Path], *, root: Optional[Path] = None
    ) -> "Project":
        """Build a project from files and/or directories of ``*.py`` files."""

        files: List[Path] = []
        for p in paths:
            p = Path(p)
            if p.is_dir():
                files.extend(sorted(p.rglob("*.py")))
            else:
                files.append(p)
        root = Path(root) if root is not None else find_root(files)
        project = cls(root, [])
        seen = set()
        for path in files:
            path = path.resolve()
            if path in seen:
                continue
            seen.add(path)
            module = project._parse(path)
            if module is not None:
                project.targets.append(module)
        return project

    def _rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()

    def _parse(self, path: Path) -> Optional[Module]:
        rel = self._rel(path)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError, ValueError) as exc:
            self.parse_errors.append(
                Finding(
                    path=rel,
                    line=getattr(exc, "lineno", None) or 1,
                    checker="parse",
                    message=f"could not parse: {exc.__class__.__name__}: {exc}",
                )
            )
            return None
        return Module(
            path=path, rel=rel, source=source, tree=tree,
            suppressions=_suppressions(source),
        )

    # -- cross-file context ------------------------------------------------
    def context_module(self, relpath: str) -> Optional[Module]:
        """Parse ``relpath`` (repo-relative) for context, target or not."""

        if relpath not in self._context_cache:
            for module in self.targets:
                if module.rel == relpath:
                    self._context_cache[relpath] = module
                    break
            else:
                path = self.root / relpath
                if path.is_file():
                    # context parse errors are non-fatal: the checker that
                    # needed the module reports its own finding
                    before = len(self.parse_errors)
                    module = self._parse(path)
                    del self.parse_errors[before:]
                    self._context_cache[relpath] = module
                else:
                    self._context_cache[relpath] = None
        return self._context_cache[relpath]

    def graph(self):
        """The shared whole-program index (:class:`~repro.lint.graph.ProjectGraph`).

        Built lazily on first use and cached, so the symbol tables and
        call graph are constructed once per lint run no matter how many
        checkers consult them.
        """

        if self._graph is None:
            from .graph import ProjectGraph

            self._graph = ProjectGraph(self)
        return self._graph


def find_root(files: Iterable[Path]) -> Path:
    """Nearest ancestor of the first file that looks like the repo root.

    "Looks like": contains ``pyproject.toml`` or ``.git``.  Falls back to
    the current working directory so relative renderings stay sane when
    linting a loose file.
    """

    for f in files:
        for candidate in [Path(f).resolve(), *Path(f).resolve().parents]:
            if (candidate / "pyproject.toml").is_file() or (
                candidate / ".git"
            ).exists():
                return candidate
    return Path.cwd()


class Checker:
    """Base class for registered checkers.

    Subclasses set ``name``/``description``/``hint`` and implement
    :meth:`check`, yielding findings over the whole project (cross-file
    checkers -- the purity call-graph walk, fork-side reachability -- need
    more than one module at a time).  Per-line suppression is applied by
    :func:`run_checkers`, not by checkers.
    """

    name: str = ""
    description: str = ""
    #: default fix hint attached to findings that do not carry their own
    hint: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: Module, node: ast.AST, message: str, *, hint: str = ""
    ) -> Finding:
        return Finding(
            path=module.rel,
            line=getattr(node, "lineno", 1),
            checker=self.name,
            message=message,
            hint=hint or self.hint,
        )


#: the process-wide checker registry (same Registry as the compiler tables)
CHECKERS: Registry[Checker] = Registry("checker")


def register_checker(name: str, *, synonyms: Iterable[str] = ()):
    """Class decorator registering a :class:`Checker` under ``name``."""

    def _register(cls):
        instance = cls()
        instance.name = name
        CHECKERS.register(name, instance, synonyms=synonyms)
        return cls

    return _register


def run_checkers(
    project: Project, only: Optional[Iterable[str]] = ()
) -> List[Finding]:
    """Run checkers over ``project``; suppressed findings are dropped.

    ``only`` restricts to the named checkers (any registered spelling);
    empty/None means all.  Findings come back sorted by (path, line,
    checker, message) so output is deterministic.
    Unparseable target files are reported as ``parse`` findings (a linter
    that silently skips what it cannot read is not checking anything).
    """

    names = [CHECKERS.canonical(n) for n in (only or CHECKERS.names())]
    findings: List[Finding] = list(project.parse_errors)
    for name in names:
        checker = CHECKERS.get(name)
        for finding in checker.check(project):
            module = next(
                (m for m in project.targets if m.rel == finding.path), None
            )
            if module is not None and module.suppressed(
                finding.line, finding.checker
            ):
                continue
            findings.append(finding)
    return sorted(
        findings, key=lambda f: (f.path, f.line, f.checker, f.message)
    )


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """Child -> parent links for every node (checkers share this helper)."""

    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def call_name(node: ast.Call) -> str:
    """Dotted best-effort name of a call target (``"time.perf_counter"``)."""

    return dotted_name(node.func)


def dotted_name(node: ast.AST) -> str:
    """Render a Name/Attribute chain as ``a.b.c`` ("" when not a chain)."""

    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def iter_functions(
    tree: ast.AST,
) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(qualified_name, def_node)`` for every function/method.

    Qualified names are dotted through enclosing classes/functions
    (``ResultCache.key``), which is how the purity checker names sinks.
    """

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child
                yield from walk(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")
