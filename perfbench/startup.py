"""One fresh-process start-up: ``python3 perfbench/startup.py SPEC``.

Imports the library and the harness, computes ``code_version()``, warms
every topology of the workload's draw and, for sweep-store, opens a fresh
store; then prints ``ready`` and the ``perf_counter_ns`` reading at that
moment (a clock every process of the host shares).  ``run.py`` takes launch
to that moment as the set-up a user pays before the first useful call.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    import repro  # noqa: F401
    from repro.eval import code_version
    from repro.eval.runners import prepare_topology

    code_version()
    for kind, size in spec["topologies"]:
        prepare_topology(kind, size)
    if spec.get("db"):
        from repro.store import ExperimentStore

        ExperimentStore(spec["db"]).close()
    print("ready", time.perf_counter_ns(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
