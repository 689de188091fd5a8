"""Spans around each layer's public entry points, and the per-layer metrics.

The traced run installs wrappers from this file only; nothing under ``src/``
changes.  Each wrapper replaces the attribute its caller actually resolves
(``repro.compile_api.make_mapper``, not ``repro.approaches.make_mapper``),
and only public names are wrapped, so a rewrite of a layer's internals
cannot break the trace.  :data:`MODULE_TARGETS`, :data:`CLASS_TARGETS`,
:data:`WORKLOAD_METHODS` and :data:`MAPPER_CLASSES` list every name; the
tests resolve each one, so a rename fails a test instead of yielding zeros.

A span records its name, start and end (``perf_counter_ns``, one monotonic
clock shared by every process of the host), its parent span, the op id the
benchmark set, and a few counts.  Spans stay in memory.  The benchmark
process writes them out at the end; a forked worker (the eval pool, the
serve pool) appends its finished spans to ``spans-<pid>.jsonl`` each time
its outermost call returns, because those processes leave through
``os._exit``.  A worker forked inside an open span keeps that span as the
parent of its own, which links pool work to the call that forked it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .stats import median, nearest_rank

#: (module, attribute, span name): functions wrapped where callers resolve them
MODULE_TARGETS = (
    ("repro.compile_api", "make_architecture", "arch.build"),
    ("repro.eval.runners", "make_architecture", "arch.build"),
    ("repro.compile_api", "make_mapper", "approaches.make_mapper"),
    ("repro.eval.metrics", "result_from_mapped", "eval.metrics"),
    ("repro.eval.metrics", "fast_metrics", "eval.fast_metrics"),
    ("repro.eval.executors", "run_specs", "executors.run_specs"),
    ("repro.eval.executors", "run_cell", "executors.run_cell"),
    ("repro.serve.pool", "execute_request", "serve.execute_request"),
)
#: (module, class, method, span name): methods wrapped on the class
CLASS_TARGETS = (
    ("repro.eval.cache", "ResultCache", "get", "cache.get"),
    ("repro.eval.cache", "ResultCache", "put", "cache.put"),
    ("repro.store", "RunRecorder", "append", "store.record"),
)
#: methods wrapped on every instance in ``repro.workloads.WORKLOADS``
WORKLOAD_METHODS = ("map_with", "verify", "build", "build_cached")
#: (module, class, span name) deciding which layer a ``map_with`` call
#: belongs to; any other mapper is one of the paper's (``core.ours_map``)
MAPPER_CLASSES = (
    ("repro.baselines", "SabreMapper", "baselines.sabre_map"),
    ("repro.baselines", "LNNPathMapper", "baselines.lnn_map"),
    ("repro.core", "GreedyRouterMapper", "core.greedy_map"),
)
OURS_MAP = "core.ours_map"

#: layer of each span name, for the per-op self-time table
LAYER_OF = {
    "arch.build": "arch",
    "workloads.build": "workloads",
    "workloads.build_cached": "workloads",
    "approaches.make_mapper": "approaches",
    OURS_MAP: "core",
    "core.greedy_map": "core",
    "baselines.sabre_map": "baselines",
    "baselines.lnn_map": "baselines",
    "verify.qft": "verify",
    "verify.generic": "verify",
    "eval.metrics": "eval_metrics",
    "eval.fast_metrics": "eval_metrics",
    "cache.get": "cache",
    "cache.put": "cache",
    "store.record": "store",
    "executors.run_specs": "executors",
    "executors.run_cell": "executors",
    "serve.execute_request": "serve",
}
LAYERS = (
    "arch",
    "workloads",
    "approaches",
    "core",
    "baselines",
    "verify",
    "eval_metrics",
    "cache",
    "store",
    "executors",
    "serve",
)


def request_key(fields: Dict[str, object]) -> str:
    """Identity of a compile request, as the client sends it and the serve
    worker receives it (canonical names on both sides)."""

    return json.dumps(
        [
            fields.get("workload"),
            fields.get("architecture"),
            fields.get("size"),
            fields.get("approach"),
            fields.get("num_qubits"),
            dict(fields.get("workload_params") or {}),
            dict(fields.get("options") or {}),
        ],
        sort_keys=True,
    )


class Tracer:
    """In-memory span recorder for one process tree (one per process)."""

    def __init__(self, out_dir: os.PathLike) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.spans: List[dict] = []
        self.op_id: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._next = 0
        self._worker = False
        self._base_depth = 0
        self._restore: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------
    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        self.spans = []
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._next = 0
        self._worker = True
        self._base_depth = len(self._stack())

    def begin(self, name: str) -> dict:
        stack = self._stack()
        with self._lock:
            self._next += 1
            span_id = f"{self._pid}.{self._next}"
        span = {
            "name": name,
            "id": span_id,
            "parent": stack[-1]["id"] if stack else None,
            "op": self.op_id,
            "pid": self._pid,
            "start": time.perf_counter_ns(),
            "end": None,
        }
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)
        if self._worker and len(stack) <= self._base_depth:
            self.flush()

    def flush(self) -> None:
        """Append the finished spans to this process's spans file."""

        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    # -- wrappers ----------------------------------------------------------
    def _wrap(
        self,
        fn: Callable,
        name_of: Callable[..., str],
        annotate: Optional[Callable[..., None]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name_of(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:  # before end(): a worker flushes there
                    annotate(span, result, *args, **kwargs)
                return result
            finally:
                tracer.end(span)

        return traced

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target listed at the top of this module."""

        for module, attr, name in MODULE_TARGETS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self._wrap(getattr(mod, attr), _const(name), _ANNOTATE.get(name)))
        for module, cls_name, method, name in CLASS_TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, method, self._wrap(getattr(cls, method), _const(name), _ANNOTATE.get(name)))

        mapper_names = [
            (getattr(importlib.import_module(m), c), name) for m, c, name in MAPPER_CLASSES
        ]

        def map_name(mapper, *args, **kwargs) -> str:
            for cls, name in mapper_names:
                if isinstance(mapper, cls):
                    return name
            return OURS_MAP

        from repro.workloads import WORKLOADS, workload_names

        for wl_name in workload_names():
            wl = WORKLOADS.get(wl_name)
            verify_name = "verify.qft" if wl.name == "qft" else "verify.generic"
            names = {
                "map_with": (map_name, _annotate_map),
                "verify": (_const(verify_name), _annotate_verify),
                "build": (_const("workloads.build"), None),
                "build_cached": (_const("workloads.build_cached"), None),
            }
            for method in WORKLOAD_METHODS:
                name_of, annotate = names[method]
                self._patch(wl, method, self._wrap(getattr(wl, method), name_of, annotate))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore = []


_MISSING = object()


def _const(name: str) -> Callable[..., str]:
    return lambda *args, **kwargs: name


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _annotate_map(span, mapped, mapper, *args, **kwargs) -> None:
    span["ops"] = len(mapped.ops)
    kernel = getattr(mapper, "last_kernel", None)
    if kernel is not None:
        stats = getattr(mapper, "last_routing_stats", None) or {}
        span["kernel"] = kernel
        span["iters"] = int(stats.get("iterations", 0))


def _annotate_verify(span, result, *args, **kwargs) -> None:
    span["ops"] = len(_arg(args, kwargs, 0, "mapped").ops)
    span["unitary"] = bool(result.unitary_checked)


def _annotate_metrics(span, row, *args, **kwargs) -> None:
    span["ops"] = len(_arg(args, kwargs, 2, "mapped").ops)


def _annotate_cache_get(span, result, *args, **kwargs) -> None:
    span["hit"] = result is not None


def _annotate_request(span, row, *args, **kwargs) -> None:
    span["key"] = request_key(vars(_arg(args, kwargs, 0, "req")))


_ANNOTATE = {
    "eval.metrics": _annotate_metrics,
    "cache.get": _annotate_cache_get,
    "serve.execute_request": _annotate_request,
}


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def load_spans(trace_dir: os.PathLike) -> List[dict]:
    """Every finished span written by the processes of a traced run."""

    spans: List[dict] = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return [s for s in spans if s.get("end") is not None]


def _covered_ns(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""

    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[dict]) -> Dict[str, int]:
    """Span id -> its duration minus the time its child spans cover (ns)."""

    children: Dict[str, List[Tuple[int, int]]] = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered_ns(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


#: every per-layer metric the traced run prints, with its unit
PER_LAYER_UNITS = {
    "arch.build_s": "s",
    "arch.builds": "count",
    "workloads.build_s": "s",
    "workloads.builds": "count",
    "workloads.memo_hit_ratio": "ratio",
    "approaches.make_mapper_s": "s",
    "core.ours_map_s": "s",
    "core.greedy_map_s": "s",
    "circuit.ops_emitted": "count",
    "baselines.sabre_map_s": "s",
    "baselines.sabre_swap_iters": "count",
    "baselines.sabre_us_per_iter": "us",
    "baselines.sabre_c_engine_frac": "ratio",
    "baselines.lnn_map_s": "s",
    "verify.qft_s": "s",
    "verify.generic_s": "s",
    "verify.ops_checked": "count",
    "verify.statevector_checks": "count",
    "eval.metrics_s": "s",
    "eval.metrics_us_per_op": "us",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_ms_mean": "ms",
    "cache.put_ms_mean": "ms",
    "store.record_ms_mean": "ms",
    "executors.pool_calls": "count",
    "executors.worker_busy_s": "s",
    "executors.pool_util": "ratio",
    "executors.overhead_ms_per_call": "ms",
    "serve.lru_hits": "count",
    "serve.store_hits": "count",
    "serve.computed": "count",
    "serve.batches": "count",
    "serve.batch_size_mean": "count",
    "serve.rejected": "count",
    "serve.respawns": "count",
    "serve.lru_ms_p50": "ms",
    "serve.store_ms_p50": "ms",
    "serve.computed_ms_p50": "ms",
    "serve.worker_ms_p50": "ms",
    "serve.overhead_ms_p50": "ms",
    **{f"layer.{layer}.self_ms_per_op": "ms" for layer in LAYERS},
    "trace.op_ms_mean": "ms",
    "trace.unattributed_ms_per_op": "ms",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50(values: Sequence[float]) -> float:
    return nearest_rank(values, 50) if values else 0.0


def layer_metrics(
    spans: Sequence[dict],
    *,
    main_pid: int,
    jobs: int,
    op_count: int,
    op_ms_mean: float,
) -> Dict[str, float]:
    """Every per-layer metric computable from spans (serve counters, the
    client latency split and ``trace.overhead_frac`` are added by the
    caller; they default to 0 here)."""

    selfs = self_times(spans)
    by_name: Dict[str, List[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(*names: str) -> List[dict]:
        return [s for n in names for s in by_name.get(n, [])]

    def self_s(*names: str) -> float:
        return sum(selfs[s["id"]] for s in named(*names)) / 1e9

    def dur_ms(s: dict) -> float:
        return (s["end"] - s["start"]) / 1e6

    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}

    m["arch.build_s"] = self_s("arch.build")
    m["arch.builds"] = len(named("arch.build"))

    builds = named("workloads.build")
    cached = named("workloads.build_cached")
    built_under = {s["parent"] for s in builds}
    m["workloads.build_s"] = self_s("workloads.build", "workloads.build_cached")
    m["workloads.builds"] = len(builds)
    m["workloads.memo_hit_ratio"] = _ratio(
        sum(1 for s in cached if s["id"] not in built_under), len(cached)
    )

    m["approaches.make_mapper_s"] = self_s("approaches.make_mapper")
    m["core.ours_map_s"] = self_s(OURS_MAP)
    m["core.greedy_map_s"] = self_s("core.greedy_map")
    maps = named(OURS_MAP, "core.greedy_map", "baselines.sabre_map", "baselines.lnn_map")
    m["circuit.ops_emitted"] = sum(s.get("ops", 0) for s in maps)

    sabre = named("baselines.sabre_map")
    m["baselines.sabre_map_s"] = self_s("baselines.sabre_map")
    iters = sum(s.get("iters", 0) for s in sabre)
    m["baselines.sabre_swap_iters"] = iters
    m["baselines.sabre_us_per_iter"] = _ratio(m["baselines.sabre_map_s"] * 1e6, iters)
    m["baselines.sabre_c_engine_frac"] = _ratio(
        sum(1 for s in sabre if s.get("kernel") == "c"), len(sabre)
    )
    m["baselines.lnn_map_s"] = self_s("baselines.lnn_map")

    verifies = named("verify.qft", "verify.generic")
    m["verify.qft_s"] = self_s("verify.qft")
    m["verify.generic_s"] = self_s("verify.generic")
    m["verify.ops_checked"] = sum(s.get("ops", 0) for s in verifies)
    m["verify.statevector_checks"] = sum(1 for s in verifies if s.get("unitary"))

    m["eval.metrics_s"] = self_s("eval.metrics", "eval.fast_metrics")
    m["eval.metrics_us_per_op"] = _ratio(
        m["eval.metrics_s"] * 1e6, sum(s.get("ops", 0) for s in named("eval.metrics"))
    )

    gets = named("cache.get")
    puts = named("cache.put")
    records = named("store.record")
    m["cache.hits"] = sum(1 for s in gets if s.get("hit"))
    m["cache.misses"] = len(gets) - m["cache.hits"]
    m["cache.hit_ratio"] = _ratio(m["cache.hits"], len(gets))
    m["cache.get_ms_mean"] = _ratio(sum(dur_ms(s) for s in gets), len(gets))
    m["cache.put_ms_mean"] = _ratio(sum(dur_ms(s) for s in puts), len(puts))
    m["store.record_ms_mean"] = _ratio(sum(dur_ms(s) for s in records), len(records))

    # A pool call is a run_specs call whose cells ran in forked workers.
    worker_cells: Dict[str, List[dict]] = {}
    for s in named("executors.run_cell"):
        if s["pid"] != main_pid:
            worker_cells.setdefault(s["parent"], []).append(s)
    pool_calls = [s for s in named("executors.run_specs") if s["id"] in worker_cells]
    busy_s = sum(dur_ms(c) for cells in worker_cells.values() for c in cells) / 1e3
    pool_wall_s = sum(dur_ms(s) for s in pool_calls) / 1e3
    overheads = []
    for call in pool_calls:
        per_worker: Dict[int, float] = {}
        for c in worker_cells[call["id"]]:
            per_worker[c["pid"]] = per_worker.get(c["pid"], 0.0) + dur_ms(c)
        overheads.append(dur_ms(call) - max(per_worker.values()))
    m["executors.pool_calls"] = len(pool_calls)
    m["executors.worker_busy_s"] = busy_s
    m["executors.pool_util"] = _ratio(busy_s, jobs * pool_wall_s)
    m["executors.overhead_ms_per_call"] = _ratio(sum(overheads), len(overheads))

    m["serve.worker_ms_p50"] = _p50([dur_ms(s) for s in named("serve.execute_request")])

    per_layer = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = LAYER_OF.get(s["name"])
        if layer is not None:
            per_layer[layer] += selfs[s["id"]] / 1e6
    for layer, total_ms in per_layer.items():
        m[f"layer.{layer}.self_ms_per_op"] = _ratio(total_ms, op_count)
    m["trace.op_ms_mean"] = op_ms_mean
    m["trace.unattributed_ms_per_op"] = op_ms_mean - sum(
        m[f"layer.{layer}.self_ms_per_op"] for layer in LAYERS
    )
    return m


def serve_metrics(
    spans: Sequence[dict],
    client: Sequence[dict],
    stats_delta: Dict[str, float],
) -> Dict[str, float]:
    """Server counters, the client latency split by the response's
    ``cache`` field, and computed latency minus worker time per request."""

    m: Dict[str, float] = {
        "serve.lru_hits": stats_delta.get("lru_hits", 0),
        "serve.store_hits": stats_delta.get("store_hits", 0),
        "serve.computed": stats_delta.get("computed", 0),
        "serve.batches": stats_delta.get("batches", 0),
        "serve.rejected": sum(
            stats_delta.get(k, 0) for k in ("rejected_400", "rejected_429", "rejected_503")
        ),
        "serve.respawns": stats_delta.get("respawns", 0),
    }
    m["serve.batch_size_mean"] = _ratio(m["serve.computed"], m["serve.batches"])
    split: Dict[Optional[str], List[float]] = {}
    for rec in client:
        split.setdefault(rec.get("cache"), []).append(rec["latency_ms"])
    m["serve.lru_ms_p50"] = _p50(split.get("lru", []))
    m["serve.store_ms_p50"] = _p50(split.get("store", []))
    m["serve.computed_ms_p50"] = _p50(split.get(None, []))

    worker_ms: Dict[str, List[float]] = {}
    for s in spans:
        if s["name"] == "serve.execute_request" and "key" in s:
            worker_ms.setdefault(s["key"], []).append((s["end"] - s["start"]) / 1e6)
    overheads = [
        rec["latency_ms"] - median(worker_ms[rec["key"]])
        for rec in client
        if rec.get("cache") is None and rec.get("key") in worker_ms
    ]
    m["serve.overhead_ms_p50"] = _p50(overheads)
    return m
