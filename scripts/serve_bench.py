#!/usr/bin/env python
"""Serve-layer traffic generator -> ``BENCH_serve.json``.

Drives a ``repro.serve`` instance with two canonical load shapes and
records the latency/throughput numbers EXPERIMENTS.md quotes:

* **closed-loop** -- N concurrent clients, each firing its next request the
  moment the previous one returns; measures the service's sustainable
  throughput (compiles/sec) and per-request latency under full pipelines;
* **open-loop**   -- requests arrive on a fixed schedule regardless of
  completion (the "users do not wait for each other" model); measures
  latency under a target arrival rate, including queueing delay.

Requests cycle a small seed set, so a fixed fraction of the traffic repeats
and exercises the LRU/store cache path; the reported ``cache_hit_rate``
comes from the responses' ``cache`` field, cross-checked against the
server's ``/v1/stats`` counters.

By default the script boots its own ``python -m repro.serve`` subprocess
(prewarmed, ephemeral port) and tears it down afterwards; ``--url`` targets
an already-running server instead.

Usage::

    python scripts/serve_bench.py [--smoke] [--url URL] [--workers N]
                                  [--out BENCH_serve.json]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.serve import ServeClient, ServeError  # noqa: E402


def _git(*args: str) -> str:
    try:
        out = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=30
        )
        return out.stdout.strip() if out.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def _percentile(samples, q: float) -> float:
    """Nearest-rank percentile; robust for the small N of --smoke runs."""

    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


class _ServerProcess:
    """Own the benchmarked server's lifecycle when no --url was given."""

    def __init__(self, workers: int, prewarm: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--port", "0",
                "--workers", str(workers),
                "--prewarm", prewarm,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"listening on (http://[\d.]+:\d+)", line)
        if not match:
            self.proc.kill()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.url = match.group(1)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()


def _request_kwargs(index: int, unique_seeds: int) -> dict:
    """The i-th request of a run; seeds cycle so repeats hit the cache."""

    return {
        "workload": "qft",
        "architecture": "grid",
        "size": 4,
        "approach": "sabre",
        "seed": index % unique_seeds,
    }


def _fire(client: ServeClient, index: int, unique_seeds: int, sink: list, lock):
    t0 = time.perf_counter()
    try:
        resp = client.compile(**_request_kwargs(index, unique_seeds))
        wall = time.perf_counter() - t0
        with lock:
            sink.append((wall, resp.cache, resp.status, None))
    except ServeError as exc:
        wall = time.perf_counter() - t0
        with lock:
            sink.append((wall, None, "error", type(exc).__name__))


def run_closed_loop(url: str, requests: int, concurrency: int, unique_seeds: int):
    """N clients, each back-to-back: sustainable-throughput shape."""

    sink, lock = [], threading.Lock()
    counter = iter(range(requests))
    counter_lock = threading.Lock()

    def worker(worker_idx: int) -> None:
        with ServeClient(
            url, name=f"closed-{worker_idx}", retry_overload=True
        ) as client:
            while True:
                with counter_lock:
                    index = next(counter, None)
                if index is None:
                    return
                _fire(client, index, unique_seeds, sink, lock)

    t0 = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(concurrency)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return _summarize("closed", sink, time.perf_counter() - t0,
                      concurrency=concurrency)


def run_open_loop(url: str, requests: int, rate_rps: float, unique_seeds: int):
    """Fixed arrival schedule: latency-under-load shape (includes queueing)."""

    sink, lock = [], threading.Lock()
    threads = []
    interval = 1.0 / rate_rps
    with ServeClient(url, name="open", retry_overload=True) as client:
        t0 = time.perf_counter()
        for index in range(requests):
            target = t0 + index * interval
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t = threading.Thread(
                target=_fire, args=(client, index, unique_seeds, sink, lock)
            )
            t.start()
            threads.append(t)
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - t0
    return _summarize("open", sink, wall_s, rate_rps=rate_rps)


def _summarize(mode: str, sink: list, wall_s: float, **shape) -> dict:
    walls = [w for w, _, _, _ in sink]
    hits = sum(1 for _, cache, _, _ in sink if cache)
    errors = sum(1 for _, _, _, err in sink if err)
    ok = sum(1 for _, _, status, _ in sink if status == "ok")
    return {
        "mode": mode,
        **shape,
        "requests": len(sink),
        "ok": ok,
        "errors": errors,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(len(sink) / wall_s, 2) if wall_s else None,
        "p50_ms": round(_percentile(walls, 0.50) * 1e3, 1) if walls else None,
        "p99_ms": round(_percentile(walls, 0.99) * 1e3, 1) if walls else None,
        "mean_ms": round(statistics.fmean(walls) * 1e3, 1) if walls else None,
        "cache_hit_rate": round(hits / len(sink), 3) if sink else None,
    }


def _gate_cells(shapes: list) -> list:
    """The load shapes as perf-gate-pinnable bench cells.

    One cell per shape, keyed like ``scripts/bench.py`` cells so
    ``perf_gate.py`` needs no special casing: ``kind`` carries the load
    shape, ``compile_time_s`` is the shape's p50 request latency (p99 is a
    single sample at smoke sizes and would flap the gate).
    """

    cells = []
    for shape in shapes:
        cells.append(
            {
                "workload": "qft",
                "approach": "sabre",
                "kind": f"serve-{shape['mode']}",
                "size": 4,
                "qubits": 16,
                "status": "ok" if not shape["errors"] else "error",
                "compile_time_s": (
                    None if shape["p50_ms"] is None else shape["p50_ms"] / 1e3
                ),
                "p99_s": (
                    None if shape["p99_ms"] is None else shape["p99_ms"] / 1e3
                ),
                "throughput_rps": shape["throughput_rps"],
            }
        )
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="target an already-running server")
    parser.add_argument("--workers", type=int, default=2,
                        help="workers for the auto-started server")
    parser.add_argument("--prewarm", default="grid:4",
                        help="KIND:SIZE the auto-started server prewarms")
    parser.add_argument("--requests", type=int, default=64,
                        help="requests per load shape")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="closed-loop client count")
    parser.add_argument("--rate", type=float, default=20.0,
                        help="open-loop arrival rate (req/s)")
    parser.add_argument("--unique-seeds", type=int, default=8,
                        help="distinct request identities; the rest repeat "
                        "and exercise the cache path")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-scale subset for CI")
    parser.add_argument("--out",
                        default=os.path.join(REPO_ROOT, "BENCH_serve.json"),
                        help="output JSON path")
    parser.add_argument("--label", default=None,
                        help="free-form label stored in the output")
    args = parser.parse_args(argv)

    if args.smoke:
        args.requests = min(args.requests, 16)
        args.concurrency = min(args.concurrency, 2)
        args.rate = min(args.rate, 10.0)
        args.unique_seeds = min(args.unique_seeds, 4)

    server = None
    url = args.url
    if url is None:
        server = _ServerProcess(args.workers, args.prewarm)
        url = server.url
        print(f"benchmarking auto-started server at {url}", flush=True)

    try:
        with ServeClient(url) as probe:
            probe.health()  # fail fast, before any load is generated
            shapes = [
                run_closed_loop(url, args.requests, args.concurrency,
                                args.unique_seeds),
                run_open_loop(url, args.requests, args.rate,
                              args.unique_seeds),
            ]
            server_stats = probe.stats()
    finally:
        if server is not None:
            server.stop()

    for shape in shapes:
        print(
            f"{shape['mode']:>6}-loop  {shape['requests']:4d} req  "
            f"p50 {shape['p50_ms']:7.1f}ms  p99 {shape['p99_ms']:7.1f}ms  "
            f"{shape['throughput_rps']:6.1f} req/s  "
            f"hit-rate {shape['cache_hit_rate']:.0%}  "
            f"errors {shape['errors']}",
            flush=True,
        )

    payload = {
        "suite": "serve-smoke" if args.smoke else "serve-full",
        "label": args.label,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain")),
        "timestamp": datetime.datetime.now(  # repro-lint: ignore[determinism] -- bench provenance stamp, never identity
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "url": args.url or "auto",
        "workers": args.workers,
        "unique_seeds": args.unique_seeds,
        "shapes": shapes,
        # the same numbers in scripts/bench.py's groups/cells shape, so the
        # perf gate pins them
        "groups": [
            {
                "name": "serve",
                "wall_s": round(sum(s["wall_s"] for s in shapes), 3),
                "cells": _gate_cells(shapes),
            }
        ],
        "server_stats": server_stats,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"-> {args.out}")

    total_errors = sum(s["errors"] for s in shapes)
    return 1 if total_errors else 0


if __name__ == "__main__":
    sys.exit(main())
