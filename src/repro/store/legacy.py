"""Legacy ingestion: start store history at PR 1 instead of empty.

``python -m repro.store import-legacy DB --bench BENCH_*.json`` records the
committed ``BENCH_*.json`` snapshots as ``bench``/``bench_cells`` rows,
cells kept verbatim so the perf gate's reconstructed baseline is bit-equal
to the committed file (which stays the gate's fallback).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from .store import ExperimentStore

__all__ = ["import_bench_file", "default_bench_snapshots"]


def import_bench_file(store: ExperimentStore, path) -> Dict[str, object]:
    """Record one committed ``BENCH_*.json`` snapshot as bench history."""

    path = Path(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if "groups" not in payload:
        raise ValueError(
            f"{path.name} is not a scripts/bench.py payload (no 'groups'); "
            "only suite snapshots become bench history"
        )
    bench_id = store.record_bench(payload, source=path.name)
    cells = sum(len(g.get("cells", ())) for g in payload.get("groups", ()))
    return {"bench_id": bench_id, "cells": cells, "suite": payload.get("suite")}


def default_bench_snapshots(repo_root) -> List[Path]:
    """The committed ``BENCH_*.json`` suite snapshots, sorted by name.

    Only files in the ``scripts/bench.py`` payload shape qualify; other
    ``BENCH_``-prefixed artifacts (e.g. the kernel micro-bench table) are
    not suite history and are skipped.
    """

    out = []
    for path in sorted(Path(repo_root).glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict) and "groups" in payload:
            out.append(path)
    return out
