"""Tests for the deterministic fault-injection harness (repro.eval.chaos)."""

import pytest

from repro.eval import chaos


class TestDirectiveParsing:
    def test_single_directive(self):
        cfg = chaos.ChaosConfig.from_spec("kill-worker@worker=w0,cell=1")
        assert len(cfg.directives) == 1
        d = cfg.directives[0]
        assert d.kind == "kill-worker"
        assert d.params == {"worker": "w0", "cell": "1"}
        assert d.times == 1 and d.fired == 0

    def test_multiple_directives(self):
        cfg = chaos.ChaosConfig.from_spec(
            "kill-worker@worker=w0,cell=1;"
            "stall@worker=w1,cell=2,s=1.2;"
            "kill-worker@worker=w2,cell=3"
        )
        assert [d.kind for d in cfg.directives] == [
            "kill-worker", "stall", "kill-worker",
        ]

    def test_empty_spec_is_falsy(self):
        assert not chaos.ChaosConfig.from_spec("")
        assert not chaos.ChaosConfig.from_spec(" ; ; ")
        assert chaos.ChaosConfig.from_spec("stall@s=1")

    def test_unknown_kind_raises_at_parse_time(self):
        # A typo'd spec that silently injects nothing would "pass" every test.
        with pytest.raises(ValueError, match="unknown chaos directive kind"):
            chaos.ChaosConfig.from_spec("kill-wroker@worker=w0")
        # kinds with no hook in the pool's worker loop are refused too
        for gone in ("freeze-heartbeat", "delay-response", "drop-response"):
            with pytest.raises(ValueError, match="unknown chaos directive kind"):
                chaos.ChaosConfig.from_spec(f"{gone}@worker=w0")

    def test_malformed_parameter_raises(self):
        with pytest.raises(ValueError, match="key=value"):
            chaos.ChaosConfig.from_spec("stall@nonsense")

    def test_times_budget_parsed(self):
        cfg = chaos.ChaosConfig.from_spec("stall@worker=w1,s=0.1,times=3")
        assert cfg.directives[0].times == 3

    def test_describe_roundtrips_params(self):
        cfg = chaos.ChaosConfig.from_spec("stall@worker=w1,cell=2,s=1.2")
        assert cfg.directives[0].describe() == "stall@cell=2,s=1.2,worker=w1"


class TestFiring:
    def test_exact_match_required(self):
        cfg = chaos.ChaosConfig.from_spec("kill-worker@worker=w0,cell=1")
        assert cfg.fires("kill-worker", worker="w1", cell=1) is None
        assert cfg.fires("kill-worker", worker="w0", cell=0) is None
        assert cfg.fires("stall", worker="w0", cell=1) is None  # other kind
        assert cfg.fires("kill-worker", worker="w0", cell=1) is not None

    def test_context_values_compared_as_strings(self):
        cfg = chaos.ChaosConfig.from_spec("stall@cell=2,s=0.5")
        fired = cfg.fires("stall", worker="w9", cell=2)  # int context value
        assert fired is not None and fired["s"] == "0.5"

    def test_action_params_do_not_constrain_matching(self):
        cfg = chaos.ChaosConfig.from_spec("stall@worker=w0,s=1.0,times=2")
        assert cfg.fires("stall", worker="w0") is not None

    def test_budget_consumed(self):
        cfg = chaos.ChaosConfig.from_spec("stall@worker=w1,s=0.1,times=2")
        assert cfg.fires("stall", worker="w1", cell=1) is not None
        assert cfg.fires("stall", worker="w1", cell=2) is not None
        assert cfg.fires("stall", worker="w1", cell=3) is None

    def test_default_budget_is_once(self):
        cfg = chaos.ChaosConfig.from_spec("kill-worker@worker=w0,cell=0")
        assert cfg.fires("kill-worker", worker="w0", cell=0) is not None
        assert cfg.fires("kill-worker", worker="w0", cell=0) is None

    def test_firing_is_deterministic_in_call_sequence(self):
        spec = "stall@worker=w0,s=0.1;stall@worker=w0,s=0.2"
        a = chaos.ChaosConfig.from_spec(spec)
        b = chaos.ChaosConfig.from_spec(spec)
        seq_a = [a.fires("stall", worker="w0")["s"] for _ in range(2)]
        seq_b = [b.fires("stall", worker="w0")["s"] for _ in range(2)]
        assert seq_a == seq_b == ["0.1", "0.2"]


class TestProcessConfig:
    def test_active_parses_env_once_and_reload_resets(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, "stall@worker=w0,s=0.1")
        cfg = chaos.reload()
        assert cfg.fires("stall", worker="w0") is not None
        assert cfg.fires("stall", worker="w0") is None  # budget spent
        assert chaos.active() is cfg  # cached, counters preserved
        fresh = chaos.reload()  # what a spawned worker does on entry
        assert fresh is not cfg
        assert fresh.fires("stall", worker="w0") is not None
        monkeypatch.delenv(chaos.ENV_VAR)
        assert not chaos.reload()

    def test_unset_env_means_no_chaos(self, monkeypatch):
        monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        assert not chaos.ChaosConfig.from_env()


class TestTearTail:
    def test_tears_to_exact_offset(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b"0123456789")
        removed = chaos.tear_tail(path, 4)
        assert removed == 6
        assert path.read_bytes() == b"0123"

    def test_keep_bytes_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b"abc")
        with pytest.raises(ValueError, match="keep_bytes"):
            chaos.tear_tail(path, 4)
        with pytest.raises(ValueError, match="keep_bytes"):
            chaos.tear_tail(path, -1)
        assert path.read_bytes() == b"abc"  # rejected tears change nothing
