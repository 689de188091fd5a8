"""Library code of the repository benchmark (``python3 perfbench/run.py``).

* :mod:`.draws`     -- the four seeded workloads (pure functions of seed and
  run length);
* :mod:`.stats`     -- nearest-rank percentiles and medians;
* :mod:`.tracing`   -- span recorder, the wrappers around each layer's public
  entry points, and the per-layer aggregation;
* :mod:`.procs`     -- child-process environment, server lifecycle, peak RSS;
* :mod:`.hostprobe` -- the fixed CPU probe reported as a host diagnostic.
"""
