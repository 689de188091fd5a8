"""``python -m repro.eval`` — thin shell over ``plan()`` / ``execute()``.

Each requested experiment is resolved through the experiment registry
(:mod:`repro.eval.runs`; synonyms work, unknown names suggest corrections),
turned into a typed ``RunPlan`` and run through a registered executor.
Useful flags::

    -e/--experiment NAME   any registered experiment or synonym (see
                           --list): table1, fig17..fig19, fig27, relaxed,
                           partition, linearity, sweep, or "all"
    --list                 print the experiment registry table and exit
    --profile quick|paper  instance sizes
    --workload NAME        workload for the registry cross-product "sweep"
                           experiment (qft, qaoa, random, or any plugin);
                           implies -e sweep when no experiment is given
    --jobs N               worker processes (topology-grouped fan-out on
                           the supervised pool: a killed worker is
                           respawned and its chunk resubmitted)
    --executor NAME        serial | pool (defaults: serial; pool when
                           --jobs > 1)
    --shard I/N            run slice I of a deterministic N-way partition
                           of the plan, balanced by topology group; the
                           union of all N slices is the full experiment
    --verify POLICY        full | sample | off — per-cell verification
                           policy (part of the cache key)
    --store DB             record the run into a SQLite experiment store:
                           every finished cell lands as it completes
                           (crash-safe); straggler/timeout cells are
                           re-dispatched once
    --resume               continue the newest run of this plan in --store:
                           recorded cells are served, not re-run
    --cache DB             result cache (a SQLite experiment store); warm
                           re-runs only compute cells missing under the
                           current code version
    --cache-merge DB...    union sharded .db caches into --cache; entries
                           that disagree under the same key raise instead
                           of silently winning by order
    --retry-timeout-mult X scale straggler-retry timeouts by X**attempt
                           (default 1.0)

A typical two-machine sweep::

    # machine A                                   # machine B
    python -m repro.eval -e fig19 --profile paper \\
        --shard 0/2 --store a.db --cache a.db
                                                  ... --shard 1/2 --store b.db --cache b.db
    # after a crash, the same command plus --resume finishes the run
    # afterwards, on one host:
    python -m repro.eval --cache merged.db --cache-merge a.db b.db
    python -m repro.eval -e fig19 --profile paper --cache merged.db  # all hits

Sharded runs plus ``--cache-merge`` are the way to spread one experiment
over several machines.
"""

import sys

from .experiments import main

if __name__ == "__main__":
    sys.exit(main())
