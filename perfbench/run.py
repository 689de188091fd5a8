"""The repository benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds the compiled SABRE kernel (``setup.py build_ext --inplace``), then for
each workload: times several fresh-process start-ups (``setup_s``), runs the
seeded op list in a fresh process (``measure.py``) and checks every output.
With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` the op list runs once untraced and
once with the span wrappers of ``benchlib/tracing.py``, and the JSON holds
the per-layer metrics.  Everything the run writes stays in the checkout
(``.perfbench-state/``, removed at the end) and every process it starts is
stopped before it exits.  Workloads and choices: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchlib import draws, hostprobe, procs  # noqa: E402
from benchlib.stats import beyond, median, nearest_rank  # noqa: E402
from benchlib.tracing import PER_LAYER_UNITS, LAYERS, layer_metrics, load_spans, serve_metrics  # noqa: E402

#: every end-to-end metric, with its unit
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "swaps": "count",
    "depth": "count",
}
#: fresh-process start-ups per run; setup_s is their median
STARTUPS = 5
#: served or swept ops per run recompiled with repro.compile and compared
CHECK_SAMPLE = 8
CHECK_FIELDS = ("depth", "unit_depth", "swap_count", "cphase_count", "total_ops")
STATE_DIR = ".perfbench-state"
MEASURE_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


def preflight(root: Path) -> Optional[str]:
    for rel in ("src/repro/__init__.py", "setup.py", "src/repro/baselines/_sabre_kernel.c"):
        if not (root / rel).is_file():
            return f"{rel} not found under {root}: run from a full checkout"
    return None


def build(root: Path, log: Path) -> None:
    """Build the SABRE kernel in place (unless a build newer than its source
    is there already) and byte-compile the sources, outside every timed
    region; a failed build is fatal."""

    source = root / "src" / "repro" / "baselines" / "_sabre_kernel.c"
    built = list(source.parent.glob("_sabre_kernel*.so"))
    if not any(so.stat().st_mtime >= source.stat().st_mtime for so in built):
        env = dict(os.environ, REPRO_REQUIRE_KERNEL="1")
        with open(log, "w", encoding="utf-8") as fh:
            done = subprocess.run(
                [sys.executable, "setup.py", "build_ext", "--inplace"],
                cwd=str(root),
                env=env,
                stdout=fh,
                stderr=subprocess.STDOUT,
                timeout=600,
            )
        if done.returncode != 0:
            raise BenchError(f"building the SABRE kernel failed; see {log}")
    compileall.compile_dir(str(root / "src" / "repro"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    os.environ["REPRO_SABRE_KERNEL"] = "c"
    sys.path.insert(0, str(root / "src"))
    from repro.baselines.sabre_kernel import kernel_available

    if not kernel_available():
        raise BenchError("the SABRE kernel was built but does not import")


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def _write_spec(path: Path, spec: dict) -> Path:
    path.write_text(json.dumps(spec))
    return path


def time_startup(root: Path, state: Path, workload: str, ops, index: int) -> float:
    """Launch-to-ready seconds of one fresh ``startup.py`` process."""

    spec = {"topologies": draws.topologies(workload, ops)}
    if workload == "sweep-store":
        spec["db"] = str(state / f"startup-{index}.db")
    spec_path = _write_spec(state / f"startup-{index}.json", spec)
    start_ns = time.perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "startup.py"), str(spec_path)],
        cwd=str(root),
        env=procs.child_env(root, state),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a start-up probe hung for 60 s") from None
    word, _, ready_ns = out.strip().partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise BenchError(f"start-up probe failed (exit {proc.returncode})")
    return (int(ready_ns) - start_ns) / 1e9


def measure(
    root: Path,
    state: Path,
    workload: str,
    seed: int,
    seconds: float,
    tag: str,
    *,
    trace_dir: Optional[Path] = None,
    url: Optional[str] = None,
) -> dict:
    out = state / f"measure-{tag}.json"
    spec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "tag": tag,
        "state": str(state),
        "out": str(out),
        "trace_dir": str(trace_dir) if trace_dir is not None else None,
        "url": url,
    }
    spec_path = _write_spec(state / f"measure-{tag}-spec.json", spec)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), str(spec_path)],
            cwd=str(root),
            env=procs.child_env(root, state),
            timeout=MEASURE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"the timed phase ran past {MEASURE_TIMEOUT_S} s") from None
    if done.returncode != 0 or not out.is_file():
        raise BenchError(f"the timed phase failed (exit {done.returncode})")
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def op_ok(workload: str, rec: dict) -> bool:
    if workload == "sweep-store":
        return rec.get("status") == "ok"
    return rec.get("status") == "ok" and rec.get("verified") is True


def cells_of(workload: str, rec: dict) -> List[dict]:
    return rec.get("cells", []) if workload == "sweep-store" else [rec]


def engine_counts(workload: str, records) -> Tuple[int, int]:
    """(SABRE cells, SABRE cells routed by the compiled kernel)."""

    sabre = [c for r in records for c in cells_of(workload, r) if c.get("approach") == "sabre"]
    return len(sabre), sum(1 for c in sabre if c.get("kernel") == "c")


def recompile_mismatches(workload: str, seed: int, ops, records) -> Tuple[int, int]:
    """Recompile a seeded sample of served/swept cells with ``repro.compile``
    in this process and compare the exact fields; returns (checked, bad)."""

    import repro
    from measure import compile_kwargs

    rng = random.Random(f"check:{workload}:{seed}")
    candidates = [i for i, r in enumerate(records) if op_ok(workload, r)]
    bad = 0
    picked = rng.sample(candidates, min(CHECK_SAMPLE, len(candidates)))
    for i in picked:
        if workload == "sweep-store":
            j = rng.randrange(len(ops[i]["cells"]))
            cell, got = ops[i]["cells"][j], records[i]["cells"][j]
        else:
            cell, got = ops[i], records[i]
        row = repro.compile(**compile_kwargs(cell)).metrics()
        if any(getattr(row, f) != got.get(f) for f in CHECK_FIELDS):
            records[i]["status"] = "mismatch"
            bad += 1
    return len(picked), bad


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def timing(result: dict) -> Dict[str, float]:
    """The raw wall-clock metrics of one timed phase."""

    latencies = [r["latency_ms"] for r in result["records"]]
    return {
        "ops_per_s": len(latencies) / result["wall_s"],
        "latency_p50_ms": nearest_rank(latencies, 50),
        "latency_p90_ms": nearest_rank(latencies, 90),
    }


def at_reference_speed(raw: Dict[str, float], factor: float) -> Dict[str, float]:
    """Times scaled to the reference host speed (``factor`` < 1 when the
    host ran slower than the reference)."""

    return {
        name: value / factor if name == "ops_per_s" else value * factor
        for name, value in raw.items()
    }




def check(workload: str, seed: int, ops, result: dict, lines: List[str]) -> Tuple[int, int, bool]:
    """Output checks on one timed phase; returns (attempted, failed, engine_ok)."""

    records = result["records"]
    checked = bad = 0
    if workload in ("serve-mix", "sweep-store"):
        checked, bad = recompile_mismatches(workload, seed, ops, records)
    failed = sum(1 for r in records if not op_ok(workload, r))
    sabre, compiled = engine_counts(workload, records)
    lines.append(
        f"# {workload}: ops {len(records)}, failed {failed}, "
        f"recompiled {checked} (mismatches {bad}), "
        f"p50 has {beyond(len(records), 50)} samples beyond it, "
        f"p90 has {beyond(len(records), 90)}"
    )
    lines.append(f"# {workload}: SABRE engine c on {compiled}/{sabre} SABRE cells")
    return len(records), failed, compiled == sabre


def timed_run(root, state, workload, seed, seconds, ops, lines):
    setup_probes = []
    if workload == "serve-mix":
        startups = []
        server = None
        try:
            for k in range(STARTUPS):
                if server is not None:
                    server.stop()
                setup_probes.append(hostprobe.probe_ms(rounds=3))
                server = procs.Server(root, state, state / f"serve-{k}.db", draws.SERVE_PREWARM)
                startups.append(server.startup_s)
            result = measure(root, state, workload, seed, seconds, "timed", url=server.url)
            rss = procs.peak_rss_mb(server.tree())
        finally:
            if server is not None:
                server.stop()
    else:
        startups = []
        for k in range(STARTUPS):
            setup_probes.append(hostprobe.probe_ms(rounds=3))
            startups.append(time_startup(root, state, workload, ops, k))
        result = measure(root, state, workload, seed, seconds, "timed")
        rss = max(result["rss_self_mb"], result["rss_children_mb"])
    attempted, failed, engine_ok = check(workload, seed, ops, result, lines)

    raw = timing(result)
    raw["setup_s"] = median(startups)
    setup_factor = hostprobe.speed_factor(setup_probes)
    factor = hostprobe.speed_factor(result["probes_ms"])
    metrics = at_reference_speed({k: v for k, v in raw.items() if k != "setup_s"}, factor)
    metrics["setup_s"] = raw["setup_s"] * setup_factor
    records = result["records"]
    good = [r for r in records if op_ok(workload, r)]
    cells = [c for r in good for c in cells_of(workload, r)]
    metrics.update(
        peak_rss_mb=rss,
        ok_frac=len(good) / len(records),
        swaps=sum(c["swap_count"] for c in cells),
        depth=sum(c["depth"] for c in cells),
    )
    lines.append(f"# {workload}: start-ups {', '.join(f'{s:.3f}' for s in startups)} s")
    lines.append(
        f"# {workload}: host speed / reference: {setup_factor:.3f} during start-ups, "
        f"{factor:.3f} during the timed phase; raw (unscaled) figures: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
    )
    return metrics, attempted, failed, engine_ok


def traced_run(root, state, workload, seed, seconds, ops, lines):
    trace_dir = state / "trace"
    passes = {}
    for tag in ("untraced", "traced"):
        traced = tag == "traced"
        if workload == "serve-mix":
            server = procs.Server(
                root,
                state,
                state / f"serve-{tag}.db",
                draws.SERVE_PREWARM,
                trace_dir=trace_dir if traced else None,
            )
            try:
                passes[tag] = measure(root, state, workload, seed, seconds, tag, url=server.url)
                main_pid = server.proc.pid
            finally:
                server.stop()  # the traced server writes its spans on exit
        else:
            passes[tag] = measure(
                root, state, workload, seed, seconds, tag, trace_dir=trace_dir if traced else None
            )
            main_pid = passes[tag]["pid"]
    result = passes["traced"]
    attempted, failed, engine_ok = check(workload, seed, ops, result, lines)
    failed += sum(1 for r in passes["untraced"]["records"] if not op_ok(workload, r))
    attempted += len(passes["untraced"]["records"])

    window = (result["t0_ns"], result["t1_ns"])
    spans = [s for s in load_spans(trace_dir) if window[0] <= s["start"] and s["end"] <= window[1]]
    latencies = [r["latency_ms"] for r in result["records"]]
    metrics = layer_metrics(
        spans,
        main_pid=main_pid,
        jobs=draws.SWEEP_JOBS,
        op_count=len(latencies),
        op_ms_mean=sum(latencies) / len(latencies),
    )
    if workload == "serve-mix":
        metrics.update(serve_metrics(spans, result["records"], result["stats_delta"]))
    # The two passes run at different times: compare them at one host speed.
    rate = {
        tag: at_reference_speed(timing(p), hostprobe.speed_factor(p["probes_ms"]))["ops_per_s"]
        for tag, p in passes.items()
    }
    metrics["trace.overhead_frac"] = rate["traced"] / rate["untraced"] - 1.0
    lines.append(f"# {workload}: {len(spans)} spans; self time per op against the traced op latency:")
    for layer in LAYERS:
        lines.append(f"#   {layer:<13} {metrics[f'layer.{layer}.self_ms_per_op']:10.3f} ms/op")
    lines.append(f"#   {'unattributed':<13} {metrics['trace.unattributed_ms_per_op']:10.3f} ms/op")
    lines.append(f"#   {'op (traced)':<13} {metrics['trace.op_ms_mean']:10.3f} ms/op")
    return metrics, attempted, failed, engine_ok


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    state = root / STATE_DIR / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    lines: List[str] = []
    try:
        probe_before = hostprobe.probe_ms()
        ops = draws.draw(workload, seed, seconds)
        run = traced_run if trace else timed_run
        metrics, attempted, failed, engine_ok = run(root, state, workload, seed, seconds, ops, lines)
        probe_after = hostprobe.probe_ms()
    finally:
        shutil.rmtree(state, ignore_errors=True)
    lines.append(
        f"# {workload}: host probe {probe_before:.1f} ms before, {probe_after:.1f} ms after "
        "(diagnostic: a higher figure means a slower host phase)"
    )
    if not trace:
        lines.append(f"# {workload}: failed_frac {failed / attempted:.4f}")
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for name in units:
        lines.append(f"# {workload}: {name} = {metrics[name]:.6g} {units[name]}")
    return metrics, units, attempted, failed, engine_ok, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*draws.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    problem = preflight(ROOT)
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    (ROOT / STATE_DIR).mkdir(exist_ok=True)
    try:
        build(ROOT, ROOT / STATE_DIR / "build.log")
        workloads = draws.WORKLOADS if args.workload == "all" else (args.workload,)
        results = [
            (w, run_workload(ROOT, w, args.seed, args.seconds, bool(args.trace))) for w in workloads
        ]
    except (BenchError, subprocess.SubprocessError, OSError, RuntimeError, ValueError) as exc:
        traceback.print_exc()
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload, (values, units, att, fail, engine_ok, lines) in results:
        print("\n".join(lines))
        correct = correct and fail == 0 and engine_ok
        attempted += att
        failed += fail
        prefix = "" if len(results) == 1 else f"{workload}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
