"""``python -m repro.serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py TRACE_DIR [repro.serve args...]``.
The wrappers are installed before the server forks its workers, so the
workers inherit them; the server's own spans are written when it exits.
"""

from __future__ import annotations

import atexit
import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib.tracing import Tracer  # noqa: E402


def main() -> None:
    tracer = Tracer(sys.argv[1])
    tracer.install()
    atexit.register(tracer.flush)
    sys.argv = ["repro.serve", *sys.argv[2:]]
    runpy.run_module("repro.serve", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
