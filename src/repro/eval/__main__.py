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
"""

import sys

from .experiments import main

if __name__ == "__main__":
    sys.exit(main())
