"""Host speed: a fixed piece of work timed between the benchmark's ops.

The reference host's CPU speed swings by up to 1.8x in phases of 10-60 s
(see ``perfbench/README.md``), so raw wall-clock figures of two runs of the
same code differ by 20-35%.  The probe below touches no repository code; it
is timed in two ways:

* :func:`probe_ms`, before and after each run: the diagnostic the run
  prints, so a run taken in a slow phase shows;
* :func:`probe_once_ms`, between ops of the timed phase (never during one,
  and never concurrently with the program, whose load would otherwise leak
  into the samples); :func:`speed_factor` turns those samples into the ratio
  of the host's speed during the phase to the reference speed, which the
  timing metrics are scaled by.  The probes' own time is not part of the
  timed phase.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Sequence

#: probe wall time (ms) on the reference host in a fast phase; the timing
#: metrics are reported at this host speed
REFERENCE_MS = 9.0


def probe_work() -> int:
    """The fixed work: integer arithmetic, small allocations, a dict and a
    sort -- the compiler's mix of interpreter and memory traffic, which
    tracks its slowdowns better than arithmetic alone."""

    x = 0
    for i in range(40_000):
        x = (x * 31 + i) % 1_000_003
    items = [(i, i * 7 % 1009, str(i)) for i in range(12_000)]
    table = {name: (a, b) for a, b, name in items}
    items.sort(key=lambda row: row[1])
    return x + len(table)


def probe_once_ms() -> float:
    """Wall time of one probe, in ms, with the collector off so the
    program's heap size cannot leak into it."""

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe_work()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def probe_ms(rounds: int = 5) -> float:
    """Median of ``rounds`` probes, in ms."""

    return statistics.median(probe_once_ms() for _ in range(rounds))


def speed_factor(samples_ms: Sequence[float]) -> float:
    """Reference probe time / median probe time: below 1 when the host ran
    slower than the reference."""

    if not samples_ms:
        raise ValueError("no host probes were taken")
    return REFERENCE_MS / statistics.median(samples_ms)
