"""The versioned request/response schema: strict, shared, key-compatible."""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

import repro
from repro.eval.cache import ResultCache, cell_cache_key
from repro.registry import UnknownNameError
from repro.serve import (
    API_VERSION,
    ApiError,
    CompileRequest,
    CompileResponse,
    execute_request,
)


# ---------------------------------------------------------------------------
# Round trip + strictness
# ---------------------------------------------------------------------------


def test_request_json_round_trip():
    req = CompileRequest(
        workload="qaoa",
        architecture="grid",
        size=4,
        approach="sabre",
        workload_params={"seed": 5},
        options={"seed": 2},
        timeout_s=30.0,
    )
    back = CompileRequest.from_json(req.to_json())
    # the wire carries verify as its policy string; everything else verbatim
    assert back == dataclasses.replace(req, verify=req.verify_policy())


def test_unknown_field_rejected_with_suggestion():
    with pytest.raises(ApiError, match="did you mean 'architecture'"):
        CompileRequest.from_json(json.dumps({"archtecture": "grid"}))


def test_wrong_types_rejected():
    with pytest.raises(ApiError, match="size"):
        CompileRequest.from_json(json.dumps({"size": "five"}))
    with pytest.raises(ApiError, match="boolean"):
        CompileRequest.from_json(json.dumps({"size": True}))
    with pytest.raises(ApiError, match="not valid JSON"):
        CompileRequest.from_json(b"{nope")
    with pytest.raises(ApiError, match="JSON object"):
        CompileRequest.from_json(json.dumps([1, 2]))


def test_api_version_pinned():
    with pytest.raises(ApiError, match="api_version"):
        CompileRequest.from_json(json.dumps({"api_version": "0"}))
    with pytest.raises(ApiError, match="api_version"):
        CompileResponse.from_json(
            json.dumps({"api_version": "99", "status": "ok"})
        )
    assert CompileRequest().api_version == API_VERSION


def test_verify_policy_normalization():
    assert CompileRequest(verify=True).verify_policy() == "full"
    assert CompileRequest(verify=False).verify_policy() == "off"
    assert CompileRequest(verify="sample").verify_policy() == "sample"
    with pytest.raises(ApiError, match="verify"):
        CompileRequest(verify="sometimes").verify_policy()


def test_response_round_trip():
    row = repro.compile(
        workload="qft", architecture="grid", size=3, approach="ours"
    ).metrics()
    resp = CompileResponse.from_result(row, cache="lru")
    back = CompileResponse.from_json(resp.to_json())
    assert back == resp
    assert back.ok and back.cache == "lru"
    assert back.metrics == row.to_dict()


# ---------------------------------------------------------------------------
# Registry normalization
# ---------------------------------------------------------------------------


def test_normalized_resolves_synonyms_and_validates():
    req = CompileRequest(architecture="Line", size=5, approach="our-approach")
    norm = req.normalized()
    assert norm.architecture == "lnn"
    assert norm.approach == "ours"
    assert norm.verify == "full"
    assert norm.group_key() == ("lnn", 5)


def test_normalized_rejects_unknown_names_with_hints():
    with pytest.raises(UnknownNameError, match="did you mean"):
        CompileRequest(architecture="gird", size=4).normalized()
    with pytest.raises(ValueError, match="unknown option"):
        CompileRequest(
            architecture="grid", size=4, approach="sabre", options={"sede": 1}
        ).normalized()
    with pytest.raises(ApiError, match="size is required"):
        CompileRequest(architecture="grid").normalized()


# ---------------------------------------------------------------------------
# Shared-verbatim contract with repro.compile
# ---------------------------------------------------------------------------


def test_fields_mirror_compile_signature():
    """Every repro.compile parameter is a CompileRequest field, verbatim."""

    params = inspect.signature(repro.compile).parameters
    compile_names = {
        name for name, p in params.items() if p.kind is not p.VAR_KEYWORD
    }
    envelope = {"options", "api_version"}  # wire-only: **opts + the pin
    assert set(CompileRequest._FIELDS) - envelope == compile_names


def test_to_compile_kwargs_reproduces_library_result():
    req = CompileRequest(
        workload="qft",
        architecture="grid",
        size=4,
        approach="sabre",
        options={"seed": 3},
    ).normalized()
    via_request = repro.compile(**req.to_compile_kwargs()).metrics().to_dict()
    direct = repro.compile(
        workload="qft", architecture="grid", size=4, approach="sabre", seed=3
    ).metrics().to_dict()
    for row in (via_request, direct):
        row.pop("compile_time_s")
    assert via_request == direct


def test_execute_request_bit_equal_to_serial_compile():
    req = CompileRequest(
        workload="qft", architecture="grid", size=4,
        approach="sabre", options={"seed": 1},
    ).normalized()
    served = execute_request(req).to_dict()
    serial = repro.compile(
        workload="qft", architecture="grid", size=4, approach="sabre", seed=1
    ).metrics().to_dict()
    serial["architecture"] = repro.architecture_label("grid", 4)
    for row in (served, serial):
        row.pop("compile_time_s")
        row.get("extra", {}).pop("kernel", None)
    assert served == serial


def test_execute_request_honors_num_qubits():
    req = CompileRequest(
        workload="qft", architecture="grid", size=4,
        approach="sabre", num_qubits=9, options={"seed": 1},
    ).normalized()
    row = execute_request(req)
    assert row.status == "ok"
    assert row.num_qubits == 9


# ---------------------------------------------------------------------------
# Cache-key compatibility with the batch harness
# ---------------------------------------------------------------------------


def test_cache_key_matches_result_cache_key(tmp_path):
    """A full-device request derives the exact key a batch sweep writes."""

    cache = ResultCache(tmp_path / "cache.db")
    req = CompileRequest(
        workload="qft", architecture="grid", size=4,
        approach="sabre", options={"seed": 2}, timeout_s=60.0,
    ).normalized()
    sweep_key = cache.key(
        "sabre",
        "grid",
        4,
        kwargs=(("seed", 2),),
        timeout_s=60.0,
        workload="qft",
        verify="full",
    )
    assert req.cache_key() == sweep_key


def test_cache_key_excludes_engine_kwargs():
    base = CompileRequest(
        architecture="grid", size=4, approach="sabre", options={"seed": 2}
    ).normalized()
    forked = CompileRequest(
        architecture="grid", size=4, approach="sabre",
        options={"seed": 2, "kernel": "python"},
    ).normalized()
    assert base.cache_key() == forked.cache_key()


def test_cache_key_forks_on_num_qubits():
    full = CompileRequest(architecture="grid", size=4).normalized()
    partial = CompileRequest(architecture="grid", size=4, num_qubits=9).normalized()
    assert full.cache_key() != partial.cache_key()


def test_cell_cache_key_defaults_to_current_code_version():
    key = cell_cache_key("sabre", "grid", 4, kwargs=(("seed", 2),))
    pinned = cell_cache_key("sabre", "grid", 4, kwargs=(("seed", 2),), code="deadbeef")
    assert key != pinned
