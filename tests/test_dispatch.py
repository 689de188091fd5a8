"""Tests for the fault-tolerant work-stealing dispatcher (repro.eval.dispatch).

Covers the protocol core (leases, heartbeats, stale rejection, retry
accounting) against the server object directly, the HTTP layer + client
backoff against a live localhost server, and the registered ``dispatch``
executor end-to-end -- including chaos runs (worker SIGKILL, frozen
heartbeats) asserted bit-equal to an uninterrupted serial run.
"""

import sqlite3
import threading
import time

import pytest

from repro.eval import (
    CellSpec,
    adhoc_plan,
    chaos,
    execute,
    executor_names,
    get_executor,
)
from repro.eval.dispatch import (
    DispatchClient,
    DispatchError,
    DispatchServer,
    DispatchUnreachable,
    run_worker,
    spec_from_wire,
    spec_to_wire,
)
from repro.eval.executors import retry_spec
from repro.eval.metrics import CompilationResult
from repro.store import ExperimentStore


def _specs(n=2):
    return [CellSpec.make("sabre", "grid", 2, seed=s) for s in range(n)]


def _result(status="ok"):
    return CompilationResult(
        "sabre", "grid 2", 4, status=status, depth=5, swap_count=1
    )


def _metrics(results):
    return [
        (r.approach, r.architecture, r.status, r.depth, r.swap_count, r.verified)
        for r in results
    ]


def _recorded(db):
    """The newest run's record: (run row, results by cell key)."""

    with ExperimentStore(db) as store:
        run = store.list_runs()[0]
        return run, store.run_results(run["id"])


@pytest.fixture
def chaos_env(monkeypatch):
    """Set REPRO_CHAOS for this test (parent process included) and clean up."""

    def _set(spec):
        monkeypatch.setenv(chaos.ENV_VAR, spec)
        chaos.reload()

    yield _set
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.reload()


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


class TestWireFormat:
    def test_roundtrip_is_identity(self):
        spec = CellSpec.make(
            "satmap",
            "sycamore",
            4,
            seed=3,
            timeout_s=1.5,
            rename="satmap*",
            workload="qaoa",
            verify="sample",
        )
        assert spec_from_wire(spec_to_wire(spec)) == spec

    def test_roundtrip_survives_json(self):
        import json

        spec = _specs(1)[0]
        wire = json.loads(json.dumps(spec_to_wire(spec)))
        assert spec_from_wire(wire) == spec


# ---------------------------------------------------------------------------
# Protocol core (no HTTP)
# ---------------------------------------------------------------------------


class TestLeaseProtocol:
    def test_lease_submit_roundtrip(self):
        server = DispatchServer(_specs(2), lease_s=5.0)
        for _ in range(2):
            reply = server.lease("a")
            accepted = server.submit("a", reply["lease"]["id"], _result().to_dict())
            assert accepted["accepted"]
        assert server.done()
        assert server.lease("a")["empty"] and server.lease("a")["done"]
        assert len(server.results_in_order()) == 2

    def test_results_in_order_refuses_incomplete_run(self):
        server = DispatchServer(_specs(2), lease_s=5.0)
        with pytest.raises(RuntimeError, match="never finished"):
            server.results_in_order()

    def test_expired_lease_is_stolen_and_revenant_rejected(self):
        server = DispatchServer(_specs(1), lease_s=0.05)
        dead = server.lease("slow")["lease"]
        time.sleep(0.1)
        assert server.reap() == 1
        stolen = server.lease("fast")["lease"]
        assert stolen["index"] == dead["index"]
        # The presumed-dead worker resurfaces with its old lease: rejected.
        late = server.submit("slow", dead["id"], _result().to_dict())
        assert not late["accepted"] and late["reason"] == "stale-lease"
        assert server.submit("fast", stolen["id"], _result().to_dict())["accepted"]
        assert server.reassigned == 1 and server.stale_results == 1
        assert server.dead_worker_count == 1
        assert server.done() and len(server.results_in_order()) == 1

    def test_heartbeats_keep_a_slow_lease_alive(self):
        server = DispatchServer(_specs(1), lease_s=0.25)
        lease = server.lease("a")["lease"]
        for _ in range(5):  # 0.4 s total: outlives lease_s only via beats
            time.sleep(0.08)
            assert server.heartbeat("a", lease["id"])["ok"]
        assert server.reap() == 0
        assert server.submit("a", lease["id"], _result().to_dict())["accepted"]

    def test_heartbeat_for_stale_lease_says_so(self):
        server = DispatchServer(_specs(1), lease_s=0.05)
        lease = server.lease("a")["lease"]
        time.sleep(0.1)
        server.reap()
        assert not server.heartbeat("a", lease["id"])["ok"]

    def test_another_workers_lease_cannot_be_used(self):
        server = DispatchServer(_specs(1), lease_s=5.0)
        lease = server.lease("a")["lease"]
        assert not server.heartbeat("b", lease["id"])["ok"]
        assert not server.submit("b", lease["id"], _result().to_dict())["accepted"]

    def test_malformed_result_rejected(self):
        server = DispatchServer(_specs(1), lease_s=5.0)
        lease = server.lease("a")["lease"]
        assert not server.submit("a", lease["id"], "not a dict")["accepted"]
        assert not server.submit("a", lease["id"], {"nope": 1})["accepted"]
        # the lease survived both garbage submissions
        assert server.heartbeat("a", lease["id"])["ok"]

    def test_timeout_cells_get_their_retry_budget(self):
        server = DispatchServer(_specs(1), lease_s=5.0, retry_timeouts=1)
        first = server.lease("a")["lease"]
        assert first["attempt"] == 0
        reply = server.submit("a", first["id"], _result("timeout").to_dict())
        # the retry pass queued it again, and the reply must not tell the
        # worker to exit while the retry is owed
        assert reply == {"accepted": True, "done": False}
        assert not server.done()
        retry = server.lease("a")["lease"]
        assert retry["attempt"] == 1 and retry["index"] == first["index"]
        reply = server.submit("a", retry["id"], _result("timeout").to_dict())
        assert reply == {"accepted": True, "done": True}
        assert server.done()  # budget exhausted: the timeout is final
        final = server.results_in_order()[0]
        assert final.status == "timeout" and final.extra["retries"] == 1
        assert server.retried == 1 and server.recovered == 0

    def test_recovered_retry_accounted(self):
        server = DispatchServer(_specs(1), lease_s=5.0, retry_timeouts=1)
        first = server.lease("a")["lease"]
        server.submit("a", first["id"], _result("timeout").to_dict())
        retry = server.lease("a")["lease"]
        server.submit("a", retry["id"], _result("ok").to_dict())
        assert server.done()
        assert server.retried == 1 and server.recovered == 1
        assert server.results_in_order()[0].status == "ok"

    def test_retry_lease_carries_scaled_timeout(self):
        spec = CellSpec.make("satmap", "sycamore", 4, timeout_s=0.5)
        server = DispatchServer(
            [spec], lease_s=5.0, retry_timeouts=1, retry_timeout_multiplier=4.0
        )
        first = server.lease("a")["lease"]
        assert first["spec"]["timeout_s"] == 0.5
        server.submit("a", first["id"], _result("timeout").to_dict())
        retry = server.lease("a")["lease"]
        assert retry["spec"]["timeout_s"] == 2.0

    def test_status_snapshot(self):
        server = DispatchServer(_specs(2), lease_s=5.0)
        server.lease("a")
        snapshot = server.status()
        assert snapshot["cells"] == 2 and snapshot["active"] == 1
        assert snapshot["pending"] == 1 and snapshot["workers"] == ["a"]
        assert not snapshot["done"]


class TestRetrySpec:
    def test_default_multiplier_returns_spec_unchanged(self):
        spec = CellSpec.make("satmap", "sycamore", 4, timeout_s=0.5)
        assert retry_spec(spec, 1, 1.0) is spec

    def test_budget_scales_per_attempt(self):
        spec = CellSpec.make("satmap", "sycamore", 4, timeout_s=0.5)
        assert retry_spec(spec, 1, 2.0).timeout_s == 1.0
        assert retry_spec(spec, 2, 2.0).timeout_s == 2.0

    def test_untimed_cells_and_first_attempts_unscaled(self):
        untimed = CellSpec.make("sabre", "grid", 2)
        assert retry_spec(untimed, 1, 2.0) is untimed
        timed = CellSpec.make("satmap", "sycamore", 4, timeout_s=0.5)
        assert retry_spec(timed, 0, 2.0) is timed


# ---------------------------------------------------------------------------
# HTTP layer + client backoff
# ---------------------------------------------------------------------------


class TestHttpLayer:
    def test_worker_drains_a_live_server(self):
        with DispatchServer(_specs(2), lease_s=5.0) as server:
            stats = run_worker(server.url, worker_id="t0")
            assert stats == {"cells": 2, "stale": 0, "leased": 2}
            assert server.done()
            assert _metrics(server.results_in_order()) == _metrics(
                [r for r in execute(adhoc_plan("m", _specs(2))).results]
            )

    def test_worker_stops_at_the_result_that_finishes_the_run(self, monkeypatch):
        # The reply to the run's last /result carries done: true.  A worker
        # that asks for another lease after it races the dispatcher's
        # shutdown and can retry into DispatchUnreachable.
        calls = []
        post = DispatchClient.post

        def recording_post(client, path, payload):
            reply = post(client, path, payload)
            if path != "/heartbeat":
                calls.append((path, reply.get("done") is True))
            return reply

        monkeypatch.setattr(DispatchClient, "post", recording_post)
        with DispatchServer(_specs(2), lease_s=5.0) as server:
            stats = run_worker(server.url, worker_id="t0")
            assert server.done()
        assert stats == {"cells": 2, "stale": 0, "leased": 2}
        finished = calls.index(("/result", True))
        assert "/lease" not in [path for path, _ in calls[finished + 1 :]], calls

    def test_unknown_endpoint_is_a_protocol_error_not_retried(self):
        with DispatchServer(_specs(1), lease_s=5.0) as server:
            client = DispatchClient(server.url, "w0", backoff_base_s=0.01)
            with pytest.raises(DispatchError, match="HTTP 404"):
                client.post("/bogus", {"worker": "w0"})
            assert client.retries == 0

    def test_unreachable_dispatcher_exhausts_backoff(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        client = DispatchClient(
            f"http://127.0.0.1:{dead_port}", "w0",
            max_tries=2, backoff_base_s=0.01, timeout_s=0.5,
        )
        with pytest.raises(DispatchUnreachable, match="after 2 tries"):
            client.post("/join", {"worker": "w0"})

    def test_dropped_response_is_retried_transparently(self, chaos_env):
        chaos_env("drop-response@path=/join,times=1")
        with DispatchServer(_specs(1), lease_s=5.0) as server:
            client = DispatchClient(server.url, "w0", backoff_base_s=0.01)
            assert client.post("/join", {"worker": "w0"})["ok"]
            assert client.retries >= 1

    def test_delayed_response_arrives_late_but_intact(self, chaos_env):
        chaos_env("delay-response@path=/join,s=0.2,times=1")
        with DispatchServer(_specs(1), lease_s=5.0) as server:
            client = DispatchClient(server.url, "w0")
            start = time.monotonic()
            assert client.post("/join", {"worker": "w0"})["ok"]
            assert time.monotonic() - start >= 0.2


class TestBackoff:
    def test_deterministic_per_worker(self):
        a = DispatchClient("http://localhost:1", "w0")
        b = DispatchClient("http://localhost:1", "w0")
        assert [a.backoff_s(i) for i in range(1, 6)] == [
            b.backoff_s(i) for i in range(1, 6)
        ]

    def test_different_workers_get_different_jitter(self):
        a = DispatchClient("http://localhost:1", "w0")
        b = DispatchClient("http://localhost:1", "w1")
        assert [a.backoff_s(i) for i in range(1, 6)] != [
            b.backoff_s(i) for i in range(1, 6)
        ]

    def test_exponential_then_capped(self):
        client = DispatchClient(
            "http://localhost:1", "w0", backoff_base_s=0.1, backoff_cap_s=1.0
        )
        for attempt, raw in ((1, 0.1), (2, 0.2), (3, 0.4), (20, 1.0)):
            delay = client.backoff_s(attempt)
            assert raw * 0.5 <= delay <= raw  # jitter scales into [0.5, 1.0]


# ---------------------------------------------------------------------------
# The registered executor, end to end
# ---------------------------------------------------------------------------


class TestDispatchExecutor:
    def test_registered_with_synonyms(self):
        assert "dispatch" in executor_names()
        assert get_executor("dispatch").name == "dispatch"
        assert get_executor("dispatcher").name == "dispatch"
        assert get_executor("work-stealing").name == "dispatch"

    def test_bit_equal_to_serial_and_journaled(self, tmp_path):
        p = adhoc_plan("mini", _specs(6))
        serial = execute(p, executor="serial")
        report = execute(
            p, executor="dispatch", jobs=2, store=str(tmp_path / "s.db")
        )
        assert report.executor == "dispatch"
        assert _metrics(report.results) == _metrics(serial.results)
        assert report.status_counts == serial.status_counts
        run, recorded = _recorded(tmp_path / "s.db")
        assert run["executor"] == "dispatch"
        # the single writer recorded every cell exactly once
        assert run["appended"] == len(recorded) == len(p.cells)

    def test_chaos_kill_and_freeze_bit_equal_to_serial(self, chaos_env, tmp_path):
        # One worker SIGKILLed mid-run, the other frozen (heartbeats stop)
        # while stalled past its lease: both cells must be stolen back and
        # the final table must be indistinguishable from a serial run.
        chaos_env(
            "kill-worker@worker=w0,cell=1;"
            "freeze-heartbeat@worker=w1,cell=2;"
            "stall@worker=w1,cell=2,s=1.2"
        )
        p = adhoc_plan("chaotic", _specs(8))
        report = execute(
            p,
            executor="dispatch",
            jobs=2,
            store=str(tmp_path / "s.db"),
            dispatch={"lease_s": 0.4, "heartbeat_s": 0.1},
        )
        chaos_env("")  # serial reference runs clean
        serial = execute(p, executor="serial")
        assert _metrics(report.results) == _metrics(serial.results)
        assert report.reassigned >= 2  # the killed cell and the frozen cell
        assert report.dead_workers >= 1
        # no duplicates: stale revenant results are never recorded
        run, recorded = _recorded(tmp_path / "s.db")
        assert run["appended"] == len(recorded) == len(p.cells)

    def test_timeout_keeps_retry_budget_accounting(self):
        p = adhoc_plan(
            "slow", [CellSpec.make("satmap", "sycamore", 4, timeout_s=0.2)]
        )
        report = execute(
            p, executor="dispatch", jobs=1, retry_timeout_multiplier=1.0
        )
        assert report.status_counts == {"timeout": 1}
        assert report.retried == 1 and report.recovered == 0
        assert report.results[0].extra.get("retries") == 1
        assert report.retry_timeout_multiplier == 1.0

    def test_resume_serves_journaled_prefix(self, tmp_path):
        p = adhoc_plan("mini", _specs(4))
        db = str(tmp_path / "s.db")
        clean = execute(p, executor="dispatch", jobs=2, store=db)
        # crash after two recorded cells, run row unfinished
        conn = sqlite3.connect(db)
        with conn:
            conn.execute("DELETE FROM run_cells WHERE seq >= 2")
            conn.execute("UPDATE runs SET finished_at = NULL")
        conn.close()
        resumed = execute(p, executor="dispatch", jobs=2, store=db, resume=True)
        assert resumed.resumed == 2
        assert _metrics(resumed.results) == _metrics(clean.results)

    def test_resume_refuses_other_code_version(self, tmp_path):
        p = adhoc_plan("mini", _specs(2))
        db = str(tmp_path / "s.db")
        execute(p, executor="dispatch", jobs=1, store=db)
        conn = sqlite3.connect(db)
        with conn:
            conn.execute("UPDATE runs SET code = 'deadbeefcafe'")
        conn.close()
        with pytest.raises(ValueError, match="code version"):
            execute(p, executor="dispatch", jobs=1, store=db, resume=True)

    def test_serve_only_with_external_worker(self):
        # spawn_workers=0: the executor serves and waits; an "external"
        # worker (here: a thread in this process) joins by URL and drains
        # the queue -- the dynamic-join path the --serve/--join CLI uses.
        p = adhoc_plan("mini", _specs(3))
        url_ready = threading.Event()
        url_box = {}

        def on_start(url):
            url_box["url"] = url
            url_ready.set()

        def external_worker():
            assert url_ready.wait(timeout=10.0)
            run_worker(url_box["url"], worker_id="ext0")

        joiner = threading.Thread(target=external_worker, daemon=True)
        joiner.start()
        report = execute(
            p,
            executor="dispatch",
            jobs=1,
            dispatch={"spawn_workers": 0, "on_start": on_start},
        )
        joiner.join(timeout=10.0)
        assert not joiner.is_alive()
        assert report.status_counts.get("ok") == 3
        assert _metrics(report.results) == _metrics(
            execute(p, executor="serial").results
        )

    def test_cache_hits_short_circuit_the_queue(self, tmp_path):
        from repro.eval.cache import ResultCache

        cache = ResultCache(str(tmp_path / "cache.db"))
        p = adhoc_plan("mini", _specs(3))
        execute(p, executor="dispatch", jobs=1, cache=cache)
        warm = execute(
            p, executor="dispatch", jobs=1, cache=cache,
            store=str(tmp_path / "s.db"),
        )
        assert warm.cache_stats["hits"] == 3
        # hits are recorded dispatcher-side so a resume still sees them
        run, recorded = _recorded(tmp_path / "s.db")
        assert run["appended"] == len(recorded) == 3


class TestDispatchCli:
    def test_serve_and_join_conflict(self):
        from repro.eval.experiments import main

        with pytest.raises(SystemExit):
            main(["--serve", "8765", "--join", "http://localhost:8765"])

    def test_jobs_zero_requires_serve(self):
        from repro.eval.experiments import main

        with pytest.raises(SystemExit):
            main(["-e", "fig27", "--jobs", "0"])

    def test_bad_serve_address_rejected(self):
        from repro.eval.experiments import main

        with pytest.raises(SystemExit):
            main(["-e", "fig27", "--serve", "not-a-port"])

    def test_serve_with_executor_conflict(self):
        from repro.eval.experiments import main

        with pytest.raises(SystemExit):
            main(["-e", "fig27", "--serve", "0", "--executor", "serial"])

    def test_serve_runs_the_plan(self, capsys):
        from repro.eval.experiments import main

        code = main(["-e", "fig27", "--serve", "127.0.0.1:0", "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dispatcher serving at http://127.0.0.1:" in out
        assert "[dispatch]" in out and "ok=10" in out
