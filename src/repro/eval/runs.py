"""The declarative run API: registered experiments, typed plans, executors.

This is the evaluation-side counterpart of :func:`repro.compile`: one typed
entry point over registries instead of a function-per-figure layout.

* :func:`register_experiment` turns a ``specs_*`` builder into a registry
  entry (synonyms + did-you-mean ``UnknownNameError``, exactly like the
  workload/approach/architecture registries).
* :func:`plan` resolves an experiment name into a :class:`RunPlan`: an
  ordered, picklable tuple of :class:`~repro.eval.parallel.CellSpec` plus
  the profile and verification policy.
* :func:`execute` runs a plan through a registered
  :class:`~repro.eval.executors.Executor` (``serial`` or ``pool``), records
  the run in a SQLite experiment store when asked (``store=``, resumable
  with ``resume=True``) and returns a typed, JSON-serializable
  :class:`RunReport`.

Typical use::

    from repro.eval import ResultCache, plan, execute

    p = plan("fig17", profile="paper")
    report = execute(p, jobs=8, cache=ResultCache("fig17.db"),
                     store="fig17.db")
    report.status_counts   # {"ok": 12, "skipped": 3, ...}
    # after a crash: the same call with resume=True serves the recorded
    # cells and runs only the rest
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..registry import Registry
from .cache import ResultCache, cell_key, code_version
from .executors import ExecutionContext, get_executor
from .metrics import CompilationResult
from .parallel import VERIFY_POLICIES, CellSpec

__all__ = [
    "ExperimentEntry",
    "EXPERIMENT_REGISTRY",
    "register_experiment",
    "get_experiment",
    "experiment_names",
    "RunPlan",
    "RunReport",
    "plan",
    "adhoc_plan",
    "execute",
]


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentEntry:
    """One registered experiment: a named builder of cell specs."""

    name: str
    builder: Callable[..., List[CellSpec]]
    #: the paper anchor this experiment regenerates (e.g. "Table 1")
    figure: str = ""
    description: str = ""
    #: extra ``plan()`` options the builder accepts (e.g. ``workload``)
    options: FrozenSet[str] = frozenset()
    #: whether ``-e all`` includes this experiment
    in_all: bool = True

    def validate_options(self, options: Dict[str, object]) -> None:
        unknown = set(options) - self.options
        if unknown:
            raise ValueError(
                f"unknown option(s) for experiment {self.name!r}: "
                f"{sorted(unknown)} (accepted: {sorted(self.options) or 'none'})"
            )


#: the process-wide experiment registry
EXPERIMENT_REGISTRY: Registry[ExperimentEntry] = Registry("experiment")


def register_experiment(
    name: str,
    *,
    synonyms: Iterable[str] = (),
    figure: str = "",
    description: str = "",
    options: Iterable[str] = (),
    in_all: bool = True,
) -> Callable[[Callable[..., List[CellSpec]]], Callable[..., List[CellSpec]]]:
    """Decorator registering ``builder(profile, **options) -> [CellSpec]``.

    The builder receives the resolved :class:`~repro.eval.experiments.Profile`
    and must return the experiment's cells in their canonical order (result
    ordering is defined relative to it).
    """

    def _register(builder: Callable[..., List[CellSpec]]):
        EXPERIMENT_REGISTRY.register(
            name,
            ExperimentEntry(
                name,
                builder,
                figure=figure,
                description=description or (builder.__doc__ or "").strip(),
                options=frozenset(options),
                in_all=in_all,
            ),
            synonyms=synonyms,
        )
        return builder

    return _register


def _ensure_builtin_experiments() -> None:
    # The built-in experiments register themselves when their defining module
    # is imported; importing repro.eval does that, but a direct
    # ``import repro.eval.runs`` must find them too.
    from . import experiments  # noqa: F401


def get_experiment(name: str) -> ExperimentEntry:
    """Resolve an experiment by any registered spelling (raises with hints)."""

    _ensure_builtin_experiments()
    return EXPERIMENT_REGISTRY.get(name)


def experiment_names(*, in_all_only: bool = False) -> Tuple[str, ...]:
    """Canonical names of every registered experiment."""

    _ensure_builtin_experiments()
    names = EXPERIMENT_REGISTRY.names()
    if in_all_only:
        names = tuple(
            n for n in names if EXPERIMENT_REGISTRY.get(n).in_all
        )
    return names


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunPlan:
    """A typed, picklable description of one evaluation run.

    ``cells`` is the exact ordered work list.  Plans are value objects:
    building the same plan twice (in any process) yields identical cells
    and an identical :meth:`fingerprint`, which is what makes recorded runs
    resumable.
    """

    experiment: str
    profile: str
    verify: str = "full"
    options: Tuple[Tuple[str, object], ...] = ()
    cells: Tuple[CellSpec, ...] = ()

    def fingerprint(self) -> str:
        """Content hash of the plan (the identity a resume looks runs up by)."""

        payload = json.dumps(
            {
                "experiment": self.experiment,
                "profile": self.profile,
                "verify": self.verify,
                "options": sorted((str(k), repr(v)) for k, v in self.options),
                "cells": [cell_key(c) for c in self.cells],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    def describe(self) -> str:
        return (
            f"{self.experiment} (profile: {self.profile}, "
            f"{len(self.cells)} cells, verify={self.verify})"
        )


def plan(
    experiment: str,
    profile: Union[str, object] = "quick",
    *,
    verify: str = "full",
    **options: object,
) -> RunPlan:
    """Resolve an experiment name into a typed :class:`RunPlan`.

    ``profile`` is a profile name (``"quick"`` / ``"paper"``) or a
    :class:`~repro.eval.experiments.Profile` instance.  ``verify`` sets
    every cell's verification policy (``"full"`` / ``"sample"`` /
    ``"off"``).  Extra keyword options are validated against the
    experiment entry (e.g. ``workload=`` for the registry cross-product
    sweep).
    """

    from .experiments import Profile, _profile  # deferred: experiments imports us

    entry = get_experiment(experiment)
    entry.validate_options(options)
    if verify not in VERIFY_POLICIES:
        raise ValueError(
            f"unknown verify policy {verify!r} (one of {VERIFY_POLICIES})"
        )
    prof = profile if isinstance(profile, Profile) else _profile(str(profile))
    cells = list(entry.builder(prof, **options))
    if verify != "full":
        cells = [dataclasses.replace(c, verify=verify) for c in cells]
    return RunPlan(
        experiment=entry.name,
        profile=prof.name,
        verify=verify,
        options=tuple(sorted(options.items())),
        cells=tuple(cells),
    )


def adhoc_plan(
    name: str, cells: Sequence[CellSpec], *, profile: str = "adhoc"
) -> RunPlan:
    """Wrap a hand-built cell list as a plan (benchmarks, one-off sweeps).

    The cells run exactly as given -- no registry lookup -- but the run
    still goes through :func:`execute`, so it gets the same typed
    :class:`RunReport`, run record and executor choice as a registered
    experiment.
    """

    cells = tuple(cells)
    return RunPlan(
        experiment=name,
        profile=profile,
        verify=cells[0].verify if cells else "full",
        cells=cells,
    )


# ---------------------------------------------------------------------------
# Reports + execution
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Everything one :func:`execute` call produced, JSON-serializable.

    ``results`` is in plan (cell) order.  ``status_counts`` aggregates the
    per-cell statuses; ``resumed`` / ``retried`` / ``recovered`` are the
    recorded run's accounting (cells served from the resumed run, straggler
    cells re-dispatched, and retries whose second attempt succeeded).
    """

    experiment: str
    profile: str
    verify: str
    executor: str
    jobs: int
    results: List[CompilationResult]
    status_counts: Dict[str, int]
    wall_s: float
    resumed: int = 0
    retried: int = 0
    recovered: int = 0
    #: path of the SQLite experiment store the run was recorded into
    store: Optional[str] = None
    cache_stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        """True when no cell errored (skips/timeouts/unsupported are typed)."""

        return self.status_counts.get("error", 0) == 0

    def to_dict(self, *, include_results: bool = True) -> Dict[str, object]:
        data: Dict[str, object] = {
            "experiment": self.experiment,
            "profile": self.profile,
            "verify": self.verify,
            "executor": self.executor,
            "jobs": self.jobs,
            "cells": len(self.results),
            "status_counts": dict(self.status_counts),
            "wall_s": round(self.wall_s, 3),
            "resumed": self.resumed,
            "retried": self.retried,
            "recovered": self.recovered,
            "store": self.store,
            "cache_stats": self.cache_stats,
        }
        if include_results:
            data["results"] = [r.to_dict() for r in self.results]
        return data

    def summary(self) -> str:
        counts = ", ".join(
            f"{k}={v}" for k, v in sorted(self.status_counts.items())
        )
        extras = ""
        if self.resumed or self.retried:
            extras = (
                f", resumed={self.resumed}, retried={self.retried}, "
                f"recovered={self.recovered}"
            )
        return (
            f"run: {self.experiment} [{self.executor}] "
            f"{len(self.results)} cells in {self.wall_s:.2f}s ({counts}{extras})"
        )


def execute(
    run_plan: RunPlan,
    *,
    executor: Optional[str] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    resume: bool = False,
    store: Optional[str] = None,
) -> RunReport:
    """Run a plan through a registered executor and report the outcome.

    ``executor`` defaults to ``"pool"`` when ``jobs > 1``, else
    ``"serial"``.  ``store`` records the run -- a ``runs`` row plus every
    finished cell the moment it lands -- into a SQLite
    :class:`repro.store.ExperimentStore`, for every executor; recorded
    runs also re-dispatch each timed-out cell once, with the cell's own
    budget.  ``resume=True`` continues the newest run in ``store`` with
    this plan's fingerprint: its recorded cells are served, not re-run, a
    recorded timeout not yet retried gets its retry, and a run recorded by
    another code version is refused.
    """

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if resume and not store:
        raise ValueError("resume=True continues a recorded run; pass store=")
    impl = get_executor(executor or ("pool" if jobs > 1 else "serial"))

    meta: Dict[str, object] = {
        "experiment": run_plan.experiment,
        "profile": run_plan.profile,
        "verify": run_plan.verify,
        "plan": run_plan.fingerprint(),
        "code": code_version(),
    }
    recorder = None
    resumed: Dict[str, CompilationResult] = {}
    if store:
        recorder, resumed = _open_run_record(
            store, meta, resume=resume, executor=impl.name, jobs=jobs
        )
    ctx = ExecutionContext(
        jobs=jobs,
        cache=cache,
        recorder=recorder,
        resumed=resumed,
    )
    start = time.perf_counter()
    try:
        outcome = impl.run(run_plan.cells, ctx)
    finally:
        if recorder is not None:
            recorder.finish()
    wall = time.perf_counter() - start

    return RunReport(
        experiment=run_plan.experiment,
        profile=run_plan.profile,
        verify=run_plan.verify,
        executor=impl.name,
        jobs=jobs,
        results=outcome.results,
        status_counts=dict(Counter(r.status for r in outcome.results)),
        wall_s=wall,
        resumed=outcome.resumed,
        retried=outcome.retried,
        recovered=outcome.recovered,
        store=store,
        cache_stats=cache.stats() if cache is not None else None,
    )


def _open_run_record(
    path: str,
    meta: Dict[str, object],
    *,
    resume: bool,
    executor: str,
    jobs: int,
):
    """Open the run record in ``path``: a fresh run, or the resumed one.

    Returns ``(recorder, resumed)``; ``resumed`` maps cell keys to the
    results the continued run already recorded (empty for a fresh run).
    """

    from pathlib import Path

    from ..store import ExperimentStore, RunRecorder

    if resume and not Path(path).is_file():
        raise FileNotFoundError(f"cannot resume: no experiment store at {path}")
    db = ExperimentStore(path)
    try:
        run_id = None
        resumed: Dict[str, CompilationResult] = {}
        if resume:
            run = db.latest_run(str(meta["plan"]))
            if run is None:
                raise ValueError(
                    f"cannot resume: {path} holds no run of plan "
                    f"{meta['plan']} ({meta['experiment']}); run it without "
                    "--resume first"
                )
            if run["code"] != meta["code"]:
                raise ValueError(
                    f"cannot resume: run {run['id']} was recorded by a "
                    f"different code version ({run['code']!r} != "
                    f"{meta['code']!r}); re-run from scratch instead of "
                    "mixing results"
                )
            run_id = int(run["id"])
            try:
                resumed = {
                    key: CompilationResult.from_dict(data)
                    for key, data in db.run_results(run_id).items()
                }
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"cannot resume: run {run_id} in {path} holds a corrupt "
                    f"cell record ({exc}); a torn write never commits, so "
                    "this is damage -- restore the store or run afresh"
                ) from None
        return (
            RunRecorder(db, meta, executor=executor, jobs=jobs, run_id=run_id),
            resumed,
        )
    except BaseException:
        db.close()
        raise
