#!/usr/bin/env bash
# CI entry point: run exactly what the tier-1 gate runs, from the repo root,
# plus a quick end-to-end eval smoke test.
#
# Running from the repo root is the point -- the seed repo only passed when
# pytest was invoked from inside tests/, and that class of collection bug
# (conftest shadowing, missing pytest config) must fail CI loudly.

set -euo pipefail
cd "$(dirname "$0")/.."

# ---------------------------------------------------------------------------
# Static invariants first: repro.lint checks determinism, cache-key purity,
# error discipline and fork safety over the whole tree.  This is the
# cheapest gate (a couple of seconds, no builds), so it runs before anything
# else -- and `--lint-only` lets the dedicated CI lint job stop here.  Store
# SQL, store transactions and the registries are checked by tier-1 instead.
# ---------------------------------------------------------------------------
# Inside GitHub Actions, findings render as workflow annotations so they
# land on the diff; locally they stay plain file:line:checker:message.
lint_format="text"
if [ -n "${GITHUB_ACTIONS:-}" ]; then
    lint_format="github"
fi
echo "=== repro.lint: static invariant checks (all four checkers) ==="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.lint --target src \
    --format "$lint_format"
echo "=== repro.lint: scripts/ + tests/ (determinism, error-discipline) ==="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.lint --target tools \
    --format "$lint_format"
echo "lint ok"
if [ "${1:-}" = "--lint-only" ]; then
    echo "ci.sh: lint-only run complete"
    exit 0
fi

# ---------------------------------------------------------------------------
# `--analyze-only`: static analysis of the C routing kernel, warnings as
# errors.  repro.lint cannot see into _sabre_kernel.c; this leg runs next to
# the ASAN job so memory bugs are caught both statically and dynamically.
# Prefers cppcheck, then clang --analyze, then gcc -fanalyzer -- CI installs
# cppcheck, the fallback keeps the leg meaningful on bare toolchains.
# Suppressions live in scripts/analyze_suppressions.txt (cppcheck syntax;
# `gcc-disable:` lines turn into -Wno-analyzer-* flags for the fallback).
# ---------------------------------------------------------------------------
if [ "${1:-}" = "--analyze-only" ]; then
    kernel_c="src/repro/baselines/_sabre_kernel.c"
    py_inc=$(python -c "import sysconfig; print(sysconfig.get_paths()['include'])")
    suppressions="scripts/analyze_suppressions.txt"
    if command -v cppcheck >/dev/null 2>&1; then
        echo "=== analyze: cppcheck (warnings as errors) ==="
        cppcheck --std=c99 --enable=warning,portability,performance \
            --error-exitcode=1 --inline-suppr \
            --suppressions-list="$suppressions" \
            -I"$py_inc" "$kernel_c"
    elif command -v clang >/dev/null 2>&1; then
        echo "=== analyze: clang --analyze (warnings as errors) ==="
        clang --analyze --analyzer-output text -Xclang -analyzer-werror \
            -Wall -Wextra -Werror -I"$py_inc" "$kernel_c"
    else
        echo "=== analyze: gcc -fanalyzer (warnings as errors) ==="
        gcc_flags=()
        while IFS= read -r line; do
            case "$line" in
                gcc-disable:*) gcc_flags+=("-Wno-analyzer-${line#gcc-disable:}") ;;
            esac
        done < "$suppressions"
        gcc -fanalyzer -Wall -Wextra -Werror -O1 "${gcc_flags[@]}" \
            -I"$py_inc" -c "$kernel_c" -o /dev/null
    fi
    echo "ci.sh: analyze-only run complete"
    exit 0
fi

# ---------------------------------------------------------------------------
# `--asan-only`: build the C kernel with ASAN+UBSAN (-Werror) and run the
# kernel equivalence suite under the sanitizers, then stop.  Python tooling
# cannot see into _sabre_kernel.c; this leg makes refcount/OOB/overflow bugs
# there abort loudly instead of corrupting "bit-identical" results.
#   - LD_PRELOAD: the ASAN runtime must be loaded before python itself,
#     because the interpreter binary is not instrumented.
#   - detect_leaks=0: CPython intentionally leaks at exit; leak reports
#     would drown real findings.
#   - halt_on_error / -fno-sanitize-recover=all (set by setup.py): any hit
#     is fatal, so the job fails instead of printing-and-passing.
# ---------------------------------------------------------------------------
if [ "${1:-}" = "--asan-only" ]; then
    echo "=== asan: rebuild kernel with -fsanitize=address,undefined -Werror ==="
    # The plain extension waits aside and comes back when the leg ends, on
    # failure too; the sanitized one is removed then, since it cannot be
    # imported without the preloaded runtime and would poison a later run.
    kernel_dir=src/repro/baselines
    plain_dir=$(mktemp -d)
    restore_plain_kernel() {
        rm -f "$kernel_dir"/_sabre_kernel*.so
        mv "$plain_dir"/_sabre_kernel*.so "$kernel_dir"/ 2>/dev/null || true
        rmdir "$plain_dir"
    }
    trap restore_plain_kernel EXIT
    mv "$kernel_dir"/_sabre_kernel*.so "$plain_dir"/ 2>/dev/null || true
    REPRO_KERNEL_SANITIZE=1 REPRO_REQUIRE_KERNEL=1 \
        python setup.py build_ext --inplace > /dev/null
    asan_rt=$(gcc -print-file-name=libasan.so)
    echo "=== asan: kernel equivalence suite under ASAN+UBSAN ==="
    LD_PRELOAD="$asan_rt" \
        ASAN_OPTIONS=detect_leaks=0:halt_on_error=1 \
        UBSAN_OPTIONS=print_stacktrace=1 \
        REPRO_SABRE_KERNEL=c \
        PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
        python -m pytest tests/test_sabre_kernel.py -q
    echo "ci.sh: asan-only run complete"
    exit 0
fi

# ---------------------------------------------------------------------------
# Chaos smoke: the fault-tolerance contract, exercised for real.  A serial
# reference run (--jobs 1) records fig27 into a store; then the worker pool
# (--jobs 2) computes the same plan with injected faults -- worker w0
# SIGKILLed on its first cell, worker w1 stalled on its second -- and the
# two run records must agree cell for cell on every pinned metric.  The
# pool logs one WARNING per reaped worker on stderr; the leg requires w0's,
# so a chaos spec that fires nothing cannot "pass" vacuously.
# ---------------------------------------------------------------------------
chaos_smoke() {
    echo "=== chaos smoke: pool (killed + stalled worker) vs serial ==="
    local chaos_dir
    chaos_dir=$(mktemp -d)
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.eval -e fig27 \
        --jobs 1 --store "$chaos_dir/serial.db" | tail -2
    REPRO_CHAOS="kill-worker@worker=w0,cell=1;stall@worker=w1,cell=2,s=1.2" \
        PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.eval -e fig27 \
        --jobs 2 --store "$chaos_dir/chaos.db" \
        2>"$chaos_dir/stderr.txt" | tail -2
    cat "$chaos_dir/stderr.txt" >&2
    grep -Eq "^worker w0 exited with code -9; [1-9][0-9]* batch\(es\) resubmitted$" \
        "$chaos_dir/stderr.txt" || {
        echo "ci.sh: FAIL — chaos run never reaped a killed worker (faults did not fire?)" >&2
        exit 1
    }
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - "$chaos_dir" <<'PY'
import sys
from repro.store import ExperimentStore

def cells(db):
    with ExperimentStore(db) as store:
        (run,) = store.list_runs()
        return {
            key: (r["approach"], r["status"], r["depth"], r["swap_count"])
            for key, r in store.run_results(run["id"]).items()
        }

base = sys.argv[1]
serial, chaotic = cells(f"{base}/serial.db"), cells(f"{base}/chaos.db")
assert len(serial) == 10, f"serial run recorded {len(serial)} cells"
assert chaotic == serial, f"chaos run != serial run: {chaotic} vs {serial}"
print(f"chaos smoke ok: {len(serial)} cells bit-equal under a killed + a stalled worker")
PY
    rm -rf "$chaos_dir"
}

if [ "${1:-}" = "--chaos-only" ]; then
    chaos_smoke
    echo "ci.sh: chaos-only run complete"
    exit 0
fi

# ---------------------------------------------------------------------------
# Store smoke: the SQLite experiment store end to end.  fig27 is recorded
# twice, each run into its own .db: serially (also caching into its store)
# and on the pool (--jobs 2).  The two run records must agree cell for cell
# and name what ran (serial/1 and pool/2), the serial run resumes from its
# record, its cache serves the sweep warm, and the query/info CLI reads it.
# ---------------------------------------------------------------------------
store_smoke() {
    echo "=== store smoke: fig27 through the SQLite experiment store ==="
    local store_dir
    store_dir=$(mktemp -d)
    local db="$store_dir/s.db"
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.eval -e fig27 \
        --store "$db" --cache "$db" | tail -3
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.eval -e fig27 \
        --jobs 2 --store "$store_dir/pool.db" | tail -2
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - "$store_dir" <<'PY'
import sys
from repro.store import ExperimentStore

def record(db):
    with ExperimentStore(db) as store:
        (run,) = store.list_runs()
        cells = {
            key: (r["approach"], r["status"], r["depth"], r["swap_count"])
            for key, r in store.run_results(run["id"]).items()
        }
        return (run["executor"], run["jobs"]), cells

base = sys.argv[1]
(s_ran, serial), (p_ran, pooled) = record(f"{base}/s.db"), record(f"{base}/pool.db")
assert s_ran == ("serial", 1), f"serial run recorded executor/jobs {s_ran}"
assert p_ran == ("pool", 2), f"pool run recorded executor/jobs {p_ran}"
assert len(serial) == 10, f"serial run recorded {len(serial)} cells"
assert pooled == serial, f"pool run record != serial run record: {pooled} vs {serial}"
print(f"store smoke ok: {len(serial)} cells, pool run record == serial run record")
PY
    # A crashed run resumes from its run record: every recorded cell is
    # served, none re-run.
    local resume_out
    resume_out=$(PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.eval \
        -e fig27 --store "$db" --resume)
    echo "$resume_out" | tail -1
    echo "$resume_out" | grep -Eq "resumed=[1-9]" || {
        echo "ci.sh: FAIL — --resume did not serve the recorded cells" >&2
        exit 1
    }
    # The cache the serial run filled serves the whole sweep warm (0 misses).
    local warm_out
    warm_out=$(PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
        python -m repro.eval -e fig27 --jobs 2 --cache "$db")
    echo "$warm_out" | tail -2
    echo "$warm_out" | grep -Eq "cache: [0-9]+ hits, 0 misses" || {
        echo "ci.sh: FAIL — the recorded cache did not serve the sweep warm" >&2
        exit 1
    }
    # The query/info CLI smoke.
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.store \
        query "$db" --approach sabre --status ok --limit 3
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.store info "$db"
    rm -rf "$store_dir"
}

if [ "${1:-}" = "--store-only" ]; then
    store_smoke
    echo "ci.sh: store-only run complete"
    exit 0
fi

# ---------------------------------------------------------------------------
# Serve smoke: the compilation service under real traffic.  serve_bench.py
# boots `python -m repro.serve` (warm pool, ephemeral port), drives the
# closed- and open-loop load shapes against it, and SIGTERMs it afterwards
# (a hung drain fails the script).  The leg asserts zero request errors and
# a hard p99 ceiling, then runs the perf gate against the committed serve
# baseline -- the serve cells are pinned exactly like the compile cells.
# ---------------------------------------------------------------------------
serve_smoke() {
    echo "=== serve smoke: traffic generator vs python -m repro.serve ==="
    local serve_json
    serve_json=$(mktemp --suffix=.json)
    python scripts/serve_bench.py --smoke --out "$serve_json"
    python - "$serve_json" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
for shape in data["shapes"]:
    assert shape["errors"] == 0, f"{shape['mode']}-loop had errors: {shape}"
    # Hard ceiling, not a regression gate: a served compile of a prewarmed
    # 4x4 grid must never take seconds (perf_gate handles the 1.5x drift).
    assert shape["p99_ms"] < 2000, f"{shape['mode']}-loop p99 {shape['p99_ms']}ms"
print("serve smoke ok: " + ", ".join(
    f"{s['mode']} p50 {s['p50_ms']}ms p99 {s['p99_ms']}ms "
    f"{s['throughput_rps']} req/s" for s in data["shapes"]))
PY
    python scripts/perf_gate.py "$serve_json" \
        --baseline BENCH_baseline_serve_smoke.json
    rm -f "$serve_json"
}

if [ "${1:-}" = "--serve-only" ]; then
    echo "=== serve tests: tests/test_serve/ + public-surface contract ==="
    # Under -X dev: asyncio debug mode on the batcher, and ResourceWarning
    # shown.  A leaked file, socket or connection fails the leg -- most
    # surface from a finalizer, as an unraisable-exception warning.
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -X dev -m pytest \
        tests/test_serve tests/test_public_api.py -q \
        -W error::ResourceWarning \
        -W error::pytest.PytestUnraisableExceptionWarning
    serve_smoke
    echo "ci.sh: serve-only run complete"
    exit 0
fi

# ---------------------------------------------------------------------------
# SABRE kernel leg.  CI runs this script twice per Python version:
#   - compiled leg:  REPRO_SABRE_KERNEL=c      (extension built, required)
#   - fallback leg:  REPRO_SABRE_KERNEL=python (extension never consulted)
# Unset, it builds best-effort and lets kernel="auto" pick (local dev runs).
# ---------------------------------------------------------------------------
leg="${REPRO_SABRE_KERNEL:-auto}"
echo "=== SABRE kernel leg: $leg ==="
if [ "$leg" != "python" ]; then
    if [ "$leg" = "c" ]; then
        # The compiled leg must fail loudly if the toolchain regresses --
        # otherwise it would silently test the fallback twice.
        REPRO_REQUIRE_KERNEL=1 python setup.py build_ext --inplace > /dev/null
    else
        python setup.py build_ext --inplace > /dev/null || true
    fi
fi
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - <<'PY'
import os
from repro.baselines.sabre_kernel import kernel_available
leg = os.environ.get("REPRO_SABRE_KERNEL", "auto")
print(f"compiled kernel available: {kernel_available()} (leg: {leg})")
if leg == "c" and not kernel_available():
    raise SystemExit("ci.sh: FAIL — compiled leg requested but extension missing")
PY

echo
echo "=== tier-1: pytest from the repo root ==="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q

echo
echo "=== benchmark self-tests: perfbench/tests ==="
# They resolve every name the benchmark's traced run wraps (fast_metrics,
# result_from_mapped, run_cell, ...), so a rename under src/ fails here
# instead of silently zeroing a per-layer metric.  They pick the SABRE
# engine per call (kernel="python") and check that it was honoured, so they
# run without this leg's REPRO_SABRE_KERNEL override, which would replace
# that per-call choice.
env -u REPRO_SABRE_KERNEL PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} \
    python -m pytest perfbench/tests -q

echo
echo "=== examples smoke: the new repro.compile() API end to end ==="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python examples/quickstart.py > /dev/null
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python examples/compare_backends.py > /dev/null
echo "examples ok"

echo
echo "=== benchmarks: the figure sweeps' depth bounds, timing off ==="
# Several of them call depth()/unit_depth() or assert depth bounds.  The
# SATMAP heavy-hex 10 cell is deselected: it waits out a 60 s SATMAP budget.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest benchmarks/ \
    --benchmark-disable -q \
    --deselect benchmarks/bench_table1.py::test_table1_satmap_heavyhex_10

echo
echo "=== large-QFT smoke: a 1,089-qubit lattice compile verifies ==="
# Tier-1 stays below 1,025 qubits, the size at which qft_angle overflowed
# (distance 1,024) while it divided by float(2 ** d).  About 5 s and 210 MB.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - <<'PY'
import repro
res = repro.compile(workload="qft", architecture="lattice", size=33)
if not (res.ok and res.verified):
    raise SystemExit(
        f"ci.sh: FAIL — lattice 33 QFT: status={res.status} "
        f"verified={res.verified} {res.message}"
    )
print(f"lattice 33 QFT ok: {res.num_qubits} qubits, {len(res.mapped)} ops, verified")
PY

echo
echo "=== workload smoke: --workload qaoa registry cross-product sweep ==="
# Short SATMAP budget: its cells time out (typed) instead of eating 20s each.
sweep_out=$(REPRO_SATMAP_TIMEOUT_S=2 \
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.eval --workload qaoa)
echo "$sweep_out" | tail -3
# Every cell must come back typed: ok / unsupported / timeout -- no crashes,
# and at least one approach must actually compile QAOA per architecture.
echo "$sweep_out" | grep -Eq "qaoa .* sabre .* ok " || {
    echo "ci.sh: FAIL — no ok sabre qaoa cell in the sweep" >&2
    exit 1
}

echo
chaos_smoke

echo
store_smoke

echo
serve_smoke

echo
echo "=== perf smoke: fixed compile-time micro-suite ==="
bench_out=$(mktemp --suffix=.json)
trap 'rm -f "$bench_out"' EXIT
python scripts/bench.py --smoke --out "$bench_out"
python - "$bench_out" <<'PY'
import json, sys
data = json.load(open(sys.argv[1]))
bad = [c for g in data["groups"] for c in g["cells"] if c["status"] == "error"]
assert not bad, f"bench cells errored: {bad}"
print(f"bench smoke ok: {data['total_wall_s']}s over {sum(len(g['cells']) for g in data['groups'])} cells")
PY

echo
echo "=== perf gate: smoke bench vs committed baseline ==="
# Fails (listing the offending cells) when any pinned cell's wall-clock
# regressed beyond 1.5x (+0.05 s) its committed baseline.  The compiled leg
# is gated against BENCH_baseline_smoke_c.json, recorded on the C kernel;
# every other leg against BENCH_baseline_smoke.json, recorded on the
# reference loop, whose SABRE cells the kernel routes 10-200x faster.  Slow
# shared runners can widen it via REPRO_PERF_GATE_FACTOR, or skip with
# REPRO_PERF_GATE=off.
if [ "$leg" = "c" ]; then
    python scripts/perf_gate.py "$bench_out" --baseline BENCH_baseline_smoke_c.json
else
    python scripts/perf_gate.py "$bench_out"
fi

echo
echo "ci.sh: all green"
