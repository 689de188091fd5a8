"""Tests for the declarative run API (repro.eval.runs / executors / run record)."""

import json
import pickle
import sqlite3

import pytest

from repro.eval import (
    CellSpec,
    ExecutionContext,
    adhoc_plan,
    cell_key,
    execute,
    executor_names,
    experiment_names,
    get_executor,
    get_experiment,
    plan,
    run_cell,
    sample_verifies,
)
from repro.eval.cache import ResultCache
from repro.eval.experiments import QUICK, main
from repro.eval.metrics import CompilationResult
from repro.registry import UnknownNameError
from repro.store import ExperimentStore


def _metrics(results):
    return [
        (r.approach, r.architecture, r.status, r.depth, r.swap_count, r.verified)
        for r in results
    ]


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------


class TestExperimentRegistry:
    def test_builtin_experiments_registered(self):
        names = experiment_names()
        for expected in (
            "table1", "fig17", "fig18", "fig19", "fig27",
            "relaxed", "partition", "linearity", "sweep",
        ):
            assert expected in names

    def test_synonyms_resolve(self):
        assert get_experiment("figure27").name == "fig27"
        assert get_experiment("t1").name == "table1"
        assert get_experiment("workload-sweep").name == "sweep"

    def test_unknown_experiment_suggests(self):
        with pytest.raises(UnknownNameError, match="did you mean"):
            plan("fig172")

    def test_entries_carry_figure_anchor(self):
        assert get_experiment("table1").figure == "Table 1"
        assert get_experiment("fig27").figure == "Fig. 27"

    def test_sweep_excluded_from_all(self):
        assert "sweep" not in experiment_names(in_all_only=True)
        assert not get_experiment("sweep").in_all

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            plan("fig17", workload="qaoa")

    def test_sweep_accepts_workload_option(self):
        p = plan("sweep", workload="qaoa")
        assert all(c.workload == "qaoa" for c in p.cells)

    def test_registry_direct_import_registers_builtins(self):
        # plan() must work without an explicit `import repro.eval.experiments`
        from repro.eval import runs

        assert runs.get_experiment("fig17").name == "fig17"


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class TestRunPlan:
    def test_plan_matches_specs_builder(self):
        from repro.eval.experiments import specs_table1

        p = plan("table1")
        assert list(p.cells) == specs_table1(QUICK)
        assert p.profile == "quick"

    def test_plan_is_picklable_and_fingerprint_stable(self):
        p = plan("fig27", "paper")
        clone = pickle.loads(pickle.dumps(p))
        assert clone == p
        assert clone.fingerprint() == p.fingerprint()

    def test_fingerprint_depends_on_identity(self):
        assert plan("fig27").fingerprint() != plan("fig17").fingerprint()
        assert plan("fig27").fingerprint() != plan("fig27", "paper").fingerprint()
        assert (
            plan("fig27", verify="off").fingerprint() != plan("fig27").fingerprint()
        )

    def test_verify_policy_applied_to_every_cell(self):
        p = plan("fig17", verify="off")
        assert all(c.verify == "off" for c in p.cells)
        assert plan("fig17").cells[0].verify == "full"

    def test_invalid_verify_policy(self):
        with pytest.raises(ValueError, match="verify policy"):
            plan("fig17", verify="some")

    def test_adhoc_plan_wraps_cells(self):
        cells = [CellSpec.make("sabre", "grid", 2, seed=0)]
        p = adhoc_plan("bench", cells)
        assert p.experiment == "bench" and p.cells == tuple(cells)


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class TestExecutors:
    def test_builtin_executors_registered(self):
        assert set(executor_names()) == {"serial", "pool"}
        assert get_executor("parallel").name == "pool"
        with pytest.raises(UnknownNameError):
            get_executor("dispatch")

    def test_unknown_executor_suggests(self):
        p = adhoc_plan("x", [CellSpec.make("sabre", "grid", 2)])
        with pytest.raises(UnknownNameError, match="did you mean"):
            execute(p, executor="serail")

    def test_serial_and_pool_agree(self):
        p = plan("fig27")
        serial = execute(p, executor="serial")
        pool = execute(p, executor="pool", jobs=2)
        assert _metrics(serial.results) == _metrics(pool.results)
        assert serial.executor == "serial" and pool.executor == "pool"

    def test_default_executor_choice(self):
        p = adhoc_plan("x", [CellSpec.make("sabre", "grid", 2)])
        assert execute(p).executor == "serial"
        assert execute(p, jobs=2).executor == "pool"

    def test_report_counts_and_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        specs = [
            CellSpec.make("sabre", "grid", 2, seed=0),
            CellSpec.make("sabre", "lattice", 10, max_qubits=50),  # skipped
        ]
        report = execute(adhoc_plan("mix", specs), cache=cache)
        assert report.status_counts == {"ok": 1, "skipped": 1}
        assert report.ok
        data = json.loads(json.dumps(report.to_dict()))
        assert data["cells"] == 2 and data["cache_stats"]["misses"] == 2
        slim = report.to_dict(include_results=False)
        assert "results" not in slim

    def test_resume_requires_a_store(self):
        p = adhoc_plan("x", [CellSpec.make("sabre", "grid", 2)])
        with pytest.raises(ValueError, match="store="):
            execute(p, resume=True)


# ---------------------------------------------------------------------------
# Run record (the store's run journal) + resume + straggler retry
# ---------------------------------------------------------------------------


def _runs(db):
    with ExperimentStore(db) as store:
        return store.list_runs()


def _sql(db, statement, *params):
    conn = sqlite3.connect(str(db))
    with conn:
        conn.execute(statement, params)
    conn.close()


class TestJournalResume:
    """``execute(store=...)`` records every cell as it lands; ``resume=True``
    continues the newest run of the same plan in that store."""

    def _plan(self, seeds=(0, 1, 2, 3)):
        return adhoc_plan(
            "mini", [CellSpec.make("sabre", "grid", 2, seed=s) for s in seeds]
        )

    def _slow_plan(self):
        return adhoc_plan(
            "slow", [CellSpec.make("satmap", "sycamore", 4, timeout_s=0.2)]
        )

    def test_journal_streams_every_cell(self, tmp_path):
        p = self._plan()
        db = tmp_path / "s.db"
        report = execute(p, store=str(db))
        assert report.executor == "serial" and report.store == str(db)
        (run,) = _runs(db)
        assert run["appended"] == len(p.cells)
        assert run["plan"] == p.fingerprint()
        assert run["finished_at"] is not None

    def test_fresh_journal_refuses_to_clobber(self, tmp_path):
        # A fresh (non-resume) run into a store that already holds a run of
        # the plan opens a new run row; the earlier record is never touched.
        p = self._plan()
        db = tmp_path / "s.db"
        execute(p, store=str(db))
        with ExperimentStore(db) as store:
            first = store.run_results(store.list_runs()[0]["id"])
        execute(p, store=str(db))
        runs = _runs(db)
        assert len(runs) == 2 and [r["appended"] for r in runs] == [4, 4]
        with ExperimentStore(db) as store:
            assert store.run_results(runs[-1]["id"]) == first

    def test_resume_after_crash_matches_clean_run(self, tmp_path):
        p = self._plan()
        db = tmp_path / "s.db"
        clean = execute(p, store=str(db))
        # Simulate a crash after two cells: later appends never landed and
        # the run row was never finished.
        run_id = _runs(db)[0]["id"]
        _sql(db, "DELETE FROM run_cells WHERE run_id = ? AND seq >= 2", run_id)
        _sql(db, "UPDATE runs SET finished_at = NULL WHERE id = ?", run_id)

        resumed = execute(p, store=str(db), resume=True)
        assert _metrics(resumed.results) == _metrics(clean.results)
        assert resumed.resumed == 2
        # the same run row holds the full run again, and is finished
        (run,) = _runs(db)
        assert run["appended"] == len(p.cells) and run["finished_at"]

    def test_resume_refuses_other_plan(self, tmp_path):
        execute(self._plan(), store=str(tmp_path / "s.db"))
        with pytest.raises(ValueError, match="no run of plan"):
            execute(
                self._plan(seeds=(7, 8)), store=str(tmp_path / "s.db"), resume=True
            )

    def test_resume_refuses_other_code_version(self, tmp_path):
        p = self._plan()
        db = tmp_path / "s.db"
        execute(p, store=str(db))
        _sql(db, "UPDATE runs SET code = 'deadbeefcafe'")
        with pytest.raises(ValueError, match="code version"):
            execute(p, store=str(db), resume=True)

    def test_resume_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            execute(self._plan(), store=str(tmp_path / "nope.db"), resume=True)

    def test_straggler_timeout_retried_once_and_accounted(self, tmp_path):
        report = execute(self._slow_plan(), store=str(tmp_path / "s.db"))
        assert report.status_counts == {"timeout": 1}
        assert report.retried == 1 and report.recovered == 0
        assert report.results[0].extra.get("retries") == 1

    def test_unrecorded_run_reports_timeouts_without_retrying(self):
        report = execute(self._slow_plan())
        assert report.status_counts == {"timeout": 1}
        assert report.retried == 0
        assert "retries" not in report.results[0].extra

    def test_straggler_recovery_accounted(self, monkeypatch, tmp_path):
        from repro.eval import executors as ex

        calls = {"n": 0}

        def flaky_run_cell(approach, kind, size, **kwargs):
            calls["n"] += 1
            status = "timeout" if calls["n"] == 1 else "ok"
            return CompilationResult(
                approach, f"{kind} {size}", size * size, status=status,
                depth=7, swap_count=1,
            )

        monkeypatch.setattr(ex, "run_cell", flaky_run_cell)
        p = adhoc_plan("flaky", [CellSpec.make("sabre", "grid", 2)])
        report = execute(p, store=str(tmp_path / "s.db"))
        assert calls["n"] == 2
        assert report.retried == 1 and report.recovered == 1
        assert report.results[0].status == "ok"
        assert report.results[0].extra.get("retries") == 1

    def test_resumed_already_retried_timeout_is_final(self, tmp_path):
        # The first run recorded both the timeout and its (failed) retry;
        # resuming must serve the retried result, not re-dispatch again.
        p = self._slow_plan()
        first = execute(p, store=str(tmp_path / "s.db"))
        assert first.retried == 1
        report = execute(p, store=str(tmp_path / "s.db"), resume=True)
        assert report.resumed == 1 and report.retried == 0

    def test_resumed_unretried_timeout_gets_its_retry(self, tmp_path):
        # A crash between a timeout and its retry pass must not make the
        # timeout permanent: the resuming run owes the cell its re-dispatch,
        # matching what an uninterrupted run would have done.
        p = self._slow_plan()
        db = tmp_path / "s.db"
        execute(p, store=str(db))
        (run,) = _runs(db)
        assert run["appended"] == 2  # attempt, retry
        # keep the *first* (pre-retry) attempt only
        _sql(db, "DELETE FROM run_cells WHERE run_id = ? AND seq >= 1", run["id"])
        report = execute(p, store=str(db), resume=True)
        assert report.resumed == 1 and report.retried == 1
        assert report.results[0].extra.get("retries") == 1

    def test_retry_budget_is_respected(self, monkeypatch, tmp_path):
        from repro.eval import executors as ex

        calls = {"n": 0}

        def always_timeout(approach, kind, size, **kwargs):
            calls["n"] += 1
            return CompilationResult(
                approach, f"{kind} {size}", size * size, status="timeout"
            )

        monkeypatch.setattr(ex, "run_cell", always_timeout)
        p = adhoc_plan("t", [CellSpec.make("sabre", "grid", 2)])
        report = execute(p, store=str(tmp_path / "s.db"))
        assert calls["n"] == 2  # first attempt + one re-dispatch
        assert report.retried == 1 and report.recovered == 0
        assert report.results[0].extra["retries"] == 1

    def test_default_multiplier_retries_with_same_budget(self, monkeypatch, tmp_path):
        from repro.eval import executors as ex

        budgets = []

        def always_timeout(approach, kind, size, timeout_s=None, **kwargs):
            budgets.append(timeout_s)
            return CompilationResult(
                approach, f"{kind} {size}", size * size, status="timeout"
            )

        monkeypatch.setattr(ex, "run_cell", always_timeout)
        p = adhoc_plan(
            "marginal", [CellSpec.make("sabre", "grid", 2, timeout_s=0.5)]
        )
        execute(p, store=str(tmp_path / "s.db"))
        assert budgets == [0.5, 0.5]


# ---------------------------------------------------------------------------
# Verification policy
# ---------------------------------------------------------------------------


class TestVerifyPolicy:
    def test_off_skips_verification(self):
        res = run_cell("sabre", "grid", 2, verify="off")
        assert res.ok and res.verified is None
        assert res.extra["verify_policy"] == "off"

    def test_bool_compat(self):
        assert run_cell("sabre", "grid", 2, verify=False).verified is None
        assert run_cell("sabre", "grid", 2, verify=True).verified is True

    def test_full_is_default_and_not_annotated(self):
        res = run_cell("sabre", "grid", 2)
        assert res.verified is True
        assert "verify_policy" not in res.extra

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="verify policy"):
            run_cell("sabre", "grid", 2, verify="some")

    def test_sample_is_deterministic(self):
        decisions = [sample_verifies("sabre", "grid", s) for s in range(64)]
        assert decisions == [sample_verifies("sabre", "grid", s) for s in range(64)]
        # the hash split actually samples: neither all-on nor all-off
        assert 0 < sum(decisions) < len(decisions)

    def test_sample_decision_varies_within_a_seed_sweep(self):
        # a single-topology seed sweep must not share one all-or-nothing
        # decision: the cell's options are part of the sampled identity
        decisions = [
            sample_verifies("sabre", "grid", 6, params=(("seed", s),))
            for s in range(64)
        ]
        assert 0 < sum(decisions) < len(decisions)

    def test_sample_cell_records_policy(self):
        res = run_cell("sabre", "grid", 2, verify="sample")
        assert res.extra["verify_policy"] == "sample"
        expected = sample_verifies("sabre", "grid", 2)
        assert (res.verified is not None) == expected

    def test_policy_is_part_of_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        base = dict(kwargs=(), rename=None, timeout_s=None)
        full = cache.key("sabre", "grid", 2, **base)
        off = cache.key("sabre", "grid", 2, **base, verify="off")
        sample = cache.key("sabre", "grid", 2, **base, verify="sample")
        assert len({full, off, sample}) == 3

    def test_spec_make_validates_policy(self):
        with pytest.raises(ValueError, match="verify policy"):
            CellSpec.make("sabre", "grid", 2, verify="maybe")

    def test_cell_key_includes_policy(self):
        a = CellSpec.make("sabre", "grid", 2)
        b = CellSpec.make("sabre", "grid", 2, verify="off")
        assert cell_key(a) != cell_key(b)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCLI:
    def test_list_prints_registry_table(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "Fig. 27" in out and "sweep" in out

    def test_jobs_zero_refused(self, capsys):
        with pytest.raises(SystemExit):
            main(["-e", "fig27", "--jobs", "0"])
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_unknown_experiment_errors_with_suggestion(self, capsys):
        with pytest.raises(SystemExit):
            main(["-e", "fig172"])
        assert "did you mean" in capsys.readouterr().err

    def test_synonym_accepted(self, capsys):
        assert main(["-e", "figure27", "--profile", "paper"]) == 0
        assert "run: fig27" in capsys.readouterr().out

    def test_journal_and_resume_flags(self, tmp_path, capsys):
        db = str(tmp_path / "s.db")
        assert main(["-e", "fig27", "--profile", "paper", "--store", db]) == 0
        capsys.readouterr()
        assert main(
            ["-e", "fig27", "--profile", "paper", "--store", db, "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed=10" in out

    def test_journal_requires_single_experiment(self, tmp_path):
        db = str(tmp_path / "s.db")
        with pytest.raises(SystemExit):
            main(["-e", "fig27", "-e", "fig17", "--store", db, "--resume"])
        with pytest.raises(SystemExit):  # --resume continues a --store run
            main(["-e", "fig27", "--resume"])

    def test_verify_flag_threaded(self, tmp_path, capsys):
        assert main(["-e", "fig27", "--profile", "paper", "--verify", "off"]) == 0
        out = capsys.readouterr().out
        assert "verify=off" in out
