"""The traced run's wrappers and span arithmetic.

Every wrapped name must resolve to a public attribute of the repository:
a rename then fails here instead of leaving the traced run with zeros.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from benchlib import tracing  # noqa: E402


@pytest.mark.parametrize("module,attr,name", tracing.MODULE_TARGETS)
def test_module_targets_are_public_functions(module, attr, name):
    assert not attr.startswith("_")
    assert callable(getattr(importlib.import_module(module), attr))
    assert name in tracing.LAYER_OF


@pytest.mark.parametrize("module,cls,method,name", tracing.CLASS_TARGETS)
def test_class_targets_are_public_methods(module, cls, method, name):
    owner = getattr(importlib.import_module(module), cls)
    assert not cls.startswith("_") and not method.startswith("_")
    assert callable(getattr(owner, method))
    assert name in tracing.LAYER_OF


@pytest.mark.parametrize("module,cls,name", tracing.MAPPER_CLASSES)
def test_mapper_classes_are_public(module, cls, name):
    assert not cls.startswith("_")
    assert isinstance(getattr(importlib.import_module(module), cls), type)
    assert name in tracing.LAYER_OF


def test_workload_methods_exist_on_every_registered_workload():
    from repro.workloads import WORKLOADS, workload_names

    assert {"qft", "qaoa", "random"} <= set(workload_names())
    for name in workload_names():
        for method in tracing.WORKLOAD_METHODS:
            assert not method.startswith("_")
            assert callable(getattr(WORKLOADS.get(name), method))


def test_callers_resolve_the_wrapped_attributes():
    """The wrapped attribute is the one the caller looks up at call time."""

    import repro.compile_api
    import repro.eval.executors
    import repro.serve.pool

    for module, attr in (
        (repro.compile_api, "make_architecture"),
        (repro.compile_api, "make_mapper"),
        (repro.eval.executors, "run_cell"),
        (repro.eval.executors, "run_specs"),
        (repro.serve.pool, "execute_request"),
    ):
        assert attr in module.__dict__


def test_install_records_each_layer_and_uninstall_restores(tmp_path):
    import repro
    import repro.compile_api

    original = repro.compile_api.make_mapper
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        span = tracer.begin("op")
        repro.compile(workload="qaoa", architecture="grid", size=3, approach="sabre",
                      num_qubits=5, kernel="python").metrics()
        repro.compile(workload="qft", architecture="grid", size=4, approach="sabre",
                      kernel="python").metrics()
        repro.compile(workload="qft", architecture="lattice", size=3, approach="ours").metrics()
        tracer.end(span)
    finally:
        tracer.uninstall()
    assert repro.compile_api.make_mapper is original
    names = {s["name"] for s in tracer.spans}
    assert {
        "op",
        "arch.build",
        "approaches.make_mapper",
        "workloads.build",
        "workloads.build_cached",
        "baselines.sabre_map",
        "core.ours_map",
        "verify.generic",
        "verify.qft",
        "eval.metrics",
        "eval.fast_metrics",
    } <= names
    sabre = [s for s in tracer.spans if s["name"] == "baselines.sabre_map"]
    assert {s["kernel"] for s in sabre} == {"python"}
    assert max(s["iters"] for s in sabre) > 0 and min(s["ops"] for s in sabre) > 0
    m = tracing.layer_metrics(
        tracer.spans, main_pid=tracer.spans[0]["pid"], jobs=1, op_count=3, op_ms_mean=1.0
    )
    assert set(m) == set(tracing.PER_LAYER_UNITS)
    assert m["workloads.memo_hit_ratio"] == 0.5  # verify reuses the built circuit
    assert m["verify.statevector_checks"] == 1  # the 5-qubit QAOA kernel
    assert m["baselines.sabre_c_engine_frac"] == 0.0


def _span(sid, parent, start, end, name="x", pid=1, **extra):
    return {"id": sid, "parent": parent, "start": start, "end": end, "name": name,
            "pid": pid, **extra}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("a", None, 0, 100),
        _span("b", "a", 10, 40),
        _span("c", "a", 30, 60),  # overlaps b
        _span("d", "a", 90, 120),  # runs past the parent's end
        _span("e", "b", 15, 20),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {"a": 100 - 50 - 10, "b": 30 - 5, "c": 30, "d": 30, "e": 5}


def test_pool_calls_are_run_specs_with_worker_cells():
    ms = 1_000_000
    spans = [
        _span("op", None, 0, 100 * ms, "op"),
        _span("rs", "op", 0, 100 * ms, "executors.run_specs"),
        _span("w1", "rs", 10 * ms, 50 * ms, "executors.run_cell", pid=2),
        _span("w2", "rs", 10 * ms, 40 * ms, "executors.run_cell", pid=3),
        _span("w3", "rs", 50 * ms, 70 * ms, "executors.run_cell", pid=2),
        _span("op2", None, 200 * ms, 210 * ms, "op"),
        _span("rs2", "op2", 200 * ms, 210 * ms, "executors.run_specs"),  # hit-only
    ]
    m = tracing.layer_metrics(spans, main_pid=1, jobs=2, op_count=2, op_ms_mean=55.0)
    assert m["executors.pool_calls"] == 1
    assert m["executors.worker_busy_s"] == pytest.approx(0.09)
    assert m["executors.pool_util"] == pytest.approx(0.09 / (2 * 0.1))
    assert m["executors.overhead_ms_per_call"] == pytest.approx(100 - 60)


def test_serve_metrics_split_by_cache_field_and_match_worker_time():
    key = tracing.request_key({"workload": "qft", "architecture": "grid", "size": 3,
                               "approach": "ours", "num_qubits": None})
    client = [
        {"cache": "lru", "latency_ms": 1.0},
        {"cache": "store", "latency_ms": 3.0},
        {"cache": None, "latency_ms": 20.0, "key": key},
    ]
    spans = [_span("w", None, 0, 5_000_000, "serve.execute_request", key=key)]
    m = tracing.serve_metrics(spans, client, {"computed": 4, "batches": 2, "rejected_429": 1})
    assert (m["serve.lru_ms_p50"], m["serve.store_ms_p50"], m["serve.computed_ms_p50"]) == (
        1.0, 3.0, 20.0)
    assert m["serve.overhead_ms_p50"] == pytest.approx(15.0)
    assert m["serve.batch_size_mean"] == 2.0 and m["serve.rejected"] == 1


def test_worker_spans_are_flushed_per_outermost_call(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    tracer._after_fork()  # as in a forked pool worker
    outer = tracer.begin("serve.execute_request")
    inner = tracer.begin("eval.metrics")
    tracer.end(inner)
    assert not list(tmp_path.glob("spans-*.jsonl"))
    tracer.end(outer)
    (path,) = tmp_path.glob("spans-*.jsonl")
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [s["name"] for s in lines] == ["eval.metrics", "serve.execute_request"]
    assert lines[0]["parent"] == lines[1]["id"]
