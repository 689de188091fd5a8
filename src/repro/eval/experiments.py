"""Experiment definitions regenerating every table and figure of Section 7.

Each experiment is a ``specs_*`` builder registered in the experiment
registry via :func:`~repro.eval.runs.register_experiment`; the declarative
run API (:func:`repro.eval.plan` / :func:`repro.eval.execute`) resolves the
name (synonyms included, unknown names raise with did-you-mean suggestions),
builds the ordered cell list and runs it -- in order in this process, or on
the topology-grouped worker pool with ``--jobs N`` above 1 -- optionally
recording the run in an experiment store (``--store``; crash resume with
``--resume``, straggler retry).  The module CLI (``python -m repro.eval``)
is a thin shell over exactly that pair of calls.

Two profiles control instance sizes:

* ``quick``  (default) -- finishes in a few minutes on a laptop.  The
  analytical approach still runs at every paper size; the SABRE baseline is
  capped (cells above the cap are reported as "skipped"), and the SATMAP
  stand-in gets a short timeout (it times out beyond ~10 qubits anyway,
  exactly as in the paper).
* ``paper``  -- the full sweeps of the paper (SABRE up to 1024 qubits).
  Use ``--jobs``/``--cache`` to spread the cost over cores and re-runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..approaches import approach_names
from ..arch.registry import architecture_names
from ..registry import UnknownNameError
from ..utils import VERIFY_POLICIES
from ..workloads import workload_names
from .cache import ResultCache
from .parallel import CellSpec
from .runs import (
    EXPERIMENT_REGISTRY,
    execute,
    experiment_names,
    get_experiment,
    plan,
    register_experiment,
)
from .tables import format_results, format_series, format_table

__all__ = ["Profile", "QUICK", "PAPER", "main"]


@dataclass(frozen=True)
class Profile:
    """Instance sizes and baseline caps for one evaluation profile."""

    name: str
    table1_sycamore: Tuple[int, ...]
    table1_heavyhex: Tuple[int, ...]
    table1_lattice: Tuple[int, ...]
    fig17_groups: Tuple[int, ...]
    fig18_m: Tuple[int, ...]
    fig19_m: Tuple[int, ...]
    sabre_max_qubits: int
    satmap_max_qubits: int
    satmap_timeout_s: float
    linearity_sizes: Tuple[int, ...]
    # Fig. 27 seed sweep (defaults keep hand-built Profiles working).  The
    # paper (and the seed repo) ran it on a 2x2 grid, which finishes in well
    # under a second -- the *paper* profile keeps that for fidelity.  The
    # quick profile uses a 6x6 grid: a sub-minute sweep that is substantial
    # enough for ``--jobs`` fan-out and cache warm-ups to be observable.
    fig27_m: int = 6
    fig27_seeds: Tuple[int, ...] = tuple(range(10))


QUICK = Profile(
    name="quick",
    table1_sycamore=(2, 4, 6),
    table1_heavyhex=(2, 4, 6),
    table1_lattice=(10, 20, 30),
    fig17_groups=(2, 4, 6, 8, 10, 12, 14, 16, 18, 20),
    fig18_m=(2, 4, 6, 8, 10),
    fig19_m=(10, 12, 16, 20, 24, 28, 32),
    sabre_max_qubits=int(os.environ.get("REPRO_SABRE_MAX_QUBITS", "100")),
    satmap_max_qubits=int(os.environ.get("REPRO_SATMAP_MAX_QUBITS", "30")),
    satmap_timeout_s=float(os.environ.get("REPRO_SATMAP_TIMEOUT_S", "20")),
    linearity_sizes=(2, 4, 6, 8, 10, 12),
)

PAPER = Profile(
    name="paper",
    table1_sycamore=(2, 4, 6),
    table1_heavyhex=(2, 4, 6),
    table1_lattice=(10, 20, 30),
    fig17_groups=tuple(range(2, 21, 2)),
    fig18_m=(2, 4, 6, 8, 10),
    fig19_m=(10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32),
    sabre_max_qubits=1024,
    satmap_max_qubits=1024,
    satmap_timeout_s=7200.0,
    linearity_sizes=(2, 4, 6, 8, 10, 12, 16, 20),
    fig27_m=2,  # the paper's own Fig. 27 configuration
)


def _profile(name: str) -> Profile:
    return PAPER if name == "paper" else QUICK


# ---------------------------------------------------------------------------
# E1: Table 1
# ---------------------------------------------------------------------------


@register_experiment(
    "table1",
    synonyms=("table-1", "t1"),
    figure="Table 1",
    description="Ours vs SATMAP vs SABRE across Sycamore / heavy-hex / lattice",
)
def specs_table1(profile: Profile = QUICK) -> List[CellSpec]:
    cells: List[Tuple[str, int]] = []
    cells += [("sycamore", m) for m in profile.table1_sycamore]
    cells += [("heavyhex", g) for g in profile.table1_heavyhex]
    cells += [("lattice", m) for m in profile.table1_lattice]

    specs: List[CellSpec] = []
    for kind, size in cells:
        specs.append(CellSpec.make("ours", kind, size))
        specs.append(
            CellSpec.make(
                "satmap",
                kind,
                size,
                max_qubits=profile.satmap_max_qubits,
                timeout_s=profile.satmap_timeout_s,
            )
        )
        specs.append(
            CellSpec.make("sabre", kind, size, max_qubits=profile.sabre_max_qubits)
        )
    return specs


# ---------------------------------------------------------------------------
# E2-E4: Figures 17, 18, 19
# ---------------------------------------------------------------------------


@register_experiment(
    "fig17",
    synonyms=("figure17", "fig-17"),
    figure="Fig. 17",
    description="Depth and #SWAP vs qubit count on heavy-hex, ours vs SABRE",
)
def specs_figure17(profile: Profile = QUICK) -> List[CellSpec]:
    specs: List[CellSpec] = []
    for groups in profile.fig17_groups:
        specs.append(CellSpec.make("ours", "heavyhex", groups))
        specs.append(
            CellSpec.make(
                "sabre", "heavyhex", groups, max_qubits=profile.sabre_max_qubits
            )
        )
    return specs


@register_experiment(
    "fig18",
    synonyms=("figure18", "fig-18"),
    figure="Fig. 18",
    description="Depth and #SWAP vs qubit count on Sycamore, ours vs SABRE",
)
def specs_figure18(profile: Profile = QUICK) -> List[CellSpec]:
    specs: List[CellSpec] = []
    for m in profile.fig18_m:
        specs.append(CellSpec.make("ours", "sycamore", m))
        specs.append(
            CellSpec.make("sabre", "sycamore", m, max_qubits=profile.sabre_max_qubits)
        )
    return specs


@register_experiment(
    "fig19",
    synonyms=("figure19", "fig-19"),
    figure="Fig. 19",
    description="Depth and #SWAP on lattice surgery, ours vs SABRE vs LNN",
)
def specs_figure19(profile: Profile = QUICK) -> List[CellSpec]:
    specs: List[CellSpec] = []
    for m in profile.fig19_m:
        specs.append(CellSpec.make("ours", "lattice", m))
        specs.append(CellSpec.make("lnn", "lattice", m))
        specs.append(
            CellSpec.make("sabre", "lattice", m, max_qubits=profile.sabre_max_qubits)
        )
    return specs


# ---------------------------------------------------------------------------
# E6: Figure 27 -- SABRE randomness
# ---------------------------------------------------------------------------


def specs_figure27(seeds: Sequence[int] = tuple(range(10)), m: int = 2) -> List[CellSpec]:
    return [
        CellSpec.make("sabre", "grid", m, seed=seed, rename=f"sabre-seed{seed}")
        for seed in seeds
    ]


@register_experiment(
    "fig27",
    synonyms=("figure27", "fig-27", "sabre-seeds"),
    figure="Fig. 27",
    description="SABRE output variance across random seeds on an m*m grid",
)
def _specs_figure27_profile(profile: Profile = QUICK) -> List[CellSpec]:
    return specs_figure27(profile.fig27_seeds, profile.fig27_m)


# ---------------------------------------------------------------------------
# E7: QFT-IE relaxed vs strict ablation
# ---------------------------------------------------------------------------


def specs_relaxed_vs_strict(
    sycamore_m: Sequence[int] = (4, 6, 8), lattice_m: Sequence[int] = (6, 8, 10)
) -> List[CellSpec]:
    specs: List[CellSpec] = []
    for kind, sizes in (("sycamore", sycamore_m), ("lattice", lattice_m)):
        for m in sizes:
            for strict in (False, True):
                approach = "ours-strict-ie" if strict else "ours-relaxed-ie"
                specs.append(
                    CellSpec.make("ours", kind, m, strict_ie=strict, rename=approach)
                )
    return specs


@register_experiment(
    "relaxed",
    synonyms=("relaxed-vs-strict", "ie-ablation"),
    figure="Sec. 7.3",
    description="Depth of the unit-based mappers with relaxed vs strict QFT-IE",
)
def _specs_relaxed_profile(profile: Profile = QUICK) -> List[CellSpec]:
    return specs_relaxed_vs_strict()


# ---------------------------------------------------------------------------
# E8: sub-kernel partitioning ablation
# ---------------------------------------------------------------------------


def specs_partition_ablation(lattice_m: Sequence[int] = (6, 8, 10, 12)) -> List[CellSpec]:
    specs: List[CellSpec] = []
    for m in lattice_m:
        specs.append(CellSpec.make("ours", "lattice", m))
        specs.append(CellSpec.make("lnn", "lattice", m))
        specs.append(CellSpec.make("greedy", "lattice", m, max_qubits=200))
    return specs


@register_experiment(
    "partition",
    synonyms=("partition-ablation",),
    figure="Insight 2",
    description="Unit-based mapping vs LNN-on-a-path vs greedy routing",
)
def _specs_partition_profile(profile: Profile = QUICK) -> List[CellSpec]:
    return specs_partition_ablation()


# ---------------------------------------------------------------------------
# E9: linear-depth scaling
# ---------------------------------------------------------------------------


@register_experiment(
    "linearity",
    synonyms=("linear-depth",),
    figure="Sec. 7.5",
    description="Depth / N for the analytical mappers over a size sweep",
)
def specs_linearity(profile: Profile = QUICK) -> List[CellSpec]:
    specs: List[CellSpec] = []
    for m in profile.linearity_sizes:
        if m % 2 == 0:
            specs.append(CellSpec.make("ours", "sycamore", m))
        specs.append(CellSpec.make("ours", "heavyhex", m))
        specs.append(CellSpec.make("ours", "lattice", max(m, 3)))
    return specs


# ---------------------------------------------------------------------------
# E10: registry cross-product sweep (any workload)
# ---------------------------------------------------------------------------

# Per-architecture sizes for the sweep profiles (paper-style size parameter).
_SWEEP_SIZES = {
    "quick": {"sycamore": 2, "heavyhex": 2, "lattice": 4, "grid": 3, "lnn": 9},
    "paper": {"sycamore": 4, "heavyhex": 4, "lattice": 8, "grid": 5, "lnn": 25},
}


def specs_workload_sweep(
    workload: str = "qft", profile: Profile = QUICK
) -> List[CellSpec]:
    """Every registered approach x every registered architecture, one size
    each, for ``workload``.

    Approaches that cannot compile the combination come back as typed
    ``unsupported`` rows rather than crashing -- the sweep *is* the
    cross-product acceptance check of the registry redesign.  Architectures
    registered by plugins after this module loaded are swept at the quick
    grid size.
    """

    sizes = _SWEEP_SIZES.get(profile.name, _SWEEP_SIZES["quick"])
    specs: List[CellSpec] = []
    for kind in architecture_names():
        size = sizes.get(kind, _SWEEP_SIZES["quick"].get(kind, 3))
        for approach in approach_names():
            # No explicit max_qubits: each approach's registered default cap
            # applies (e.g. SATMAP's), which is the point of the registry.
            specs.append(
                CellSpec.make(
                    approach,
                    kind,
                    size,
                    workload=workload,
                    timeout_s=profile.satmap_timeout_s,
                )
            )
    return specs


@register_experiment(
    "sweep",
    synonyms=("workload-sweep", "cross-product"),
    figure="registry",
    description="The full approach x architecture cross-product for one workload",
    options=("workload",),
    in_all=False,
)
def _specs_sweep_profile(
    profile: Profile = QUICK, *, workload: str = "qft"
) -> List[CellSpec]:
    return specs_workload_sweep(workload, profile)


# ---------------------------------------------------------------------------
# CLI: a thin shell over plan() / execute()
# ---------------------------------------------------------------------------


def _experiment_table() -> str:
    rows = []
    for name in experiment_names():
        entry = get_experiment(name)
        syn = ", ".join(EXPERIMENT_REGISTRY.synonyms(name))
        rows.append(
            {
                "experiment": name,
                "figure": entry.figure or "-",
                "synonyms": syn or "-",
                "in 'all'": "yes" if entry.in_all else "no",
                "description": entry.description,
            }
        )
    return format_table(
        rows, ["experiment", "figure", "synonyms", "in 'all'", "description"]
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures (text form)."
    )
    parser.add_argument(
        "--experiment",
        "-e",
        action="append",
        metavar="NAME",
        help="experiment(s) to run: any registered name or synonym "
        f"({', '.join(experiment_names())}), or 'all' (default)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered experiments and exit"
    )
    parser.add_argument(
        "--profile", choices=("quick", "paper"), default="quick", help="size profile"
    )
    parser.add_argument(
        "--workload",
        default=None,
        help="workload for the 'sweep' experiment (any registered name: "
        f"{', '.join(workload_names())}, ...); implies -e sweep when no "
        "experiment is selected",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes per experiment: 1 runs the cells in order "
        "in this process, more fan them out over the worker pool",
    )
    parser.add_argument(
        "--verify",
        choices=VERIFY_POLICIES,
        default="full",
        help="per-cell verification policy (sample = deterministic ~25%% "
        "subset; policy is part of the cache key)",
    )
    parser.add_argument(
        "--store",
        metavar="DB",
        default=None,
        help="record the run (its meta plus every finished cell, as it "
        "lands) into the SQLite experiment store DB; query with "
        "'python -m repro.store runs DB'",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue the newest run of this plan recorded in --store: "
        "recorded cells are served, everything else runs (same code version "
        "required)",
    )
    parser.add_argument(
        "--cache",
        metavar="DB",
        default=None,
        help="result cache: a SQLite experiment store (e.g. cache.db); "
        "re-runs only compute cells not already cached under the current "
        "code version",
    )
    args = parser.parse_args(argv)

    if args.list:
        print(_experiment_table())
        return 0
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    import sqlite3

    try:
        cache = ResultCache(args.cache) if args.cache else None
    except (OSError, sqlite3.Error) as exc:
        parser.error(f"--cache {args.cache!r} is not usable: {exc}")

    wanted = args.experiment or (["sweep"] if args.workload else ["all"])
    if "all" in wanted:
        wanted = list(experiment_names(in_all_only=True))
    try:
        wanted = [get_experiment(name).name for name in wanted]
    except UnknownNameError as exc:
        parser.error(str(exc))
    if args.workload and any(name != "sweep" for name in wanted):
        parser.error(
            "--workload only applies to the 'sweep' experiment; the figure "
            "experiments reproduce the paper's QFT results"
        )
    if args.resume and not args.store:
        parser.error("--resume continues a run recorded in --store DB")
    if args.store and len(wanted) != 1:
        parser.error("--store/--resume apply to exactly one experiment")

    for name in wanted:
        options = {"workload": args.workload or "qft"} if name == "sweep" else {}
        run_plan = plan(name, args.profile, verify=args.verify, **options)
        print(f"\n=== {run_plan.describe()} ===")
        try:
            report = execute(
                run_plan,
                jobs=args.jobs,
                cache=cache,
                resume=args.resume,
                store=args.store,
            )
        except (FileNotFoundError, ValueError) as exc:
            parser.error(str(exc))
        print(format_results(report.results))
        if name in ("fig17", "fig18", "fig19"):
            print("\ndepth series:")
            print(format_series(report.results, "depth"))
            print("swap series:")
            print(format_series(report.results, "swap_count"))
        print(report.summary())
    if cache is not None:
        stats = cache.stats()
        print(f"\ncache: {stats['hits']} hits, {stats['misses']} misses")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
