"""Tests for the QFT verifier: it must accept correct circuits and pinpoint
every class of defect (the paper's 'open-source simulator to check correctness')."""

import pytest

from repro.arch import LNNTopology
from repro.circuit import GateKind, MappingBuilder, Op, qft_angle
from repro.core import LNNQFTMapper
from repro.verify import (
    VerificationResult,
    check_mapped_qft_structure,
    verify_mapped_qft,
)

from helpers import with_ops


def good_mapped_qft(n=4):
    return LNNQFTMapper(LNNTopology(n)).map_qft()


class TestAcceptsCorrectCircuits:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_structure_ok(self, n):
        rep = check_mapped_qft_structure(good_mapped_qft(n), n)
        assert rep.ok, rep.summary()
        assert rep.h_count == n
        assert rep.cphase_count == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_unitary_check_runs_for_small_instances(self, n):
        res = verify_mapped_qft(good_mapped_qft(n), n)
        assert res.ok and res.unitary_checked and res.unitary_ok

    def test_unitary_check_skipped_for_large_instances(self):
        res = verify_mapped_qft(good_mapped_qft(12), 12, statevector_limit=8)
        assert res.ok and not res.unitary_checked
        assert "skipped" in res.summary()

    def test_summary_mentions_ok(self):
        rep = check_mapped_qft_structure(good_mapped_qft(3), 3)
        assert "OK" in rep.summary()


def _manual_builder(n=3):
    topo = LNNTopology(n)
    return topo, MappingBuilder(topo, list(range(n)))


class TestDetectsDefects:
    def test_missing_pair(self):
        topo, b = _manual_builder(3)
        b.h(0)
        b.cphase(0, 1, qft_angle(0, 1))
        b.h(1)
        b.cphase(1, 2, qft_angle(1, 2))
        b.h(2)
        # pair (0, 2) missing
        rep = check_mapped_qft_structure(b.build(), 3)
        assert not rep.ok
        assert rep.missing_pairs == 1
        assert any("missing CPHASE" in e for e in rep.errors)

    def test_duplicate_pair(self):
        topo, b = _manual_builder(2)
        b.h(0)
        b.cphase(0, 1, qft_angle(0, 1))
        b.cphase(0, 1, qft_angle(0, 1))
        b.h(1)
        rep = check_mapped_qft_structure(b.build(), 2)
        assert not rep.ok and rep.duplicate_pairs == 1

    def test_missing_hadamard(self):
        topo, b = _manual_builder(2)
        b.h(0)
        b.cphase(0, 1, qft_angle(0, 1))
        rep = check_mapped_qft_structure(b.build(), 2)
        assert not rep.ok
        assert any("missing H" in e for e in rep.errors)

    def test_double_hadamard(self):
        topo, b = _manual_builder(2)
        b.h(0)
        b.cphase(0, 1, qft_angle(0, 1))
        b.h(1)
        b.h(1)
        rep = check_mapped_qft_structure(b.build(), 2)
        assert not rep.ok

    def test_wrong_angle(self):
        topo, b = _manual_builder(2)
        b.h(0)
        b.cphase(0, 1, 0.123)
        b.h(1)
        rep = check_mapped_qft_structure(b.build(), 2)
        assert not rep.ok
        assert any("angle" in e for e in rep.errors)

    def test_type2_violation_cphase_before_h(self):
        topo, b = _manual_builder(2)
        b.cphase(0, 1, qft_angle(0, 1))
        b.h(0)
        b.h(1)
        rep = check_mapped_qft_structure(b.build(), 2)
        assert not rep.ok
        assert any("Type II" in e for e in rep.errors)

    def test_type2_violation_cphase_after_h_of_larger(self):
        topo, b = _manual_builder(2)
        b.h(0)
        b.h(1)
        b.cphase(0, 1, qft_angle(0, 1))
        rep = check_mapped_qft_structure(b.build(), 2)
        assert not rep.ok

    def test_non_adjacent_two_qubit_op(self):
        topo = LNNTopology(3)
        mapped = LNNQFTMapper(topo).map_qft()
        # tamper: replace the first CPHASE with one on non-adjacent qubits
        bad_ops = list(mapped.ops)
        for i, op in enumerate(bad_ops):
            if op.kind == GateKind.CPHASE:
                bad_ops[i] = Op(GateKind.CPHASE, (0, 2), op.logical, op.angle)
                break
        rep = check_mapped_qft_structure(with_ops(mapped, bad_ops), 3)
        assert not rep.ok
        assert any("non-adjacent" in e for e in rep.errors)

    def test_dishonest_logical_stamp(self):
        mapped = good_mapped_qft(3)
        bad_ops = list(mapped.ops)
        for i, op in enumerate(bad_ops):
            if op.kind == GateKind.CPHASE:
                bad_ops[i] = Op(op.kind, op.physical, (op.logical[1], op.logical[0]), op.angle)
                break
        rep = check_mapped_qft_structure(with_ops(mapped, bad_ops), 3)
        assert not rep.ok

    def test_cphase_with_two_equal_logical_stamps_is_reported(self):
        mapped = good_mapped_qft(3)
        bad_ops = list(mapped.ops)
        pos, op = next(
            (i, op) for i, op in enumerate(bad_ops) if op.kind == GateKind.CPHASE
        )
        bad_ops[pos] = Op(op.kind, op.physical, (0, 0), op.angle)
        rep = check_mapped_qft_structure(with_ops(mapped, bad_ops), 3)
        assert not rep.ok
        assert f"op {pos}: CPHASE on one logical qubit 0" in rep.errors

    def test_strict_order_check_flags_relaxed_schedules(self):
        # our mappers use relaxed ordering; a strict-order check should
        # eventually flag some circuit produced from the relaxed rules
        mapped = LNNQFTMapper(LNNTopology(6)).map_qft()
        relaxed = check_mapped_qft_structure(mapped, 6, strict_order=False)
        assert relaxed.ok
        # (the LNN cascade actually follows textbook order per qubit, so use a
        # hand-built counterexample for the strict check)
        topo, b = _manual_builder(3)
        b.h(0)
        b.cphase(0, 1, qft_angle(0, 1))
        b.swap(1, 2)
        b.cphase(0, 1, qft_angle(0, 2))   # physically adjacent: logical (0, 2)
        b.swap(1, 2)
        b.h(1)
        b.cphase(1, 2, qft_angle(1, 2))
        b.h(2)
        ok_relaxed = check_mapped_qft_structure(b.build(), 3, strict_order=False)
        assert ok_relaxed.ok

    def test_verification_result_ok_property(self):
        res = verify_mapped_qft(good_mapped_qft(3), 3)
        assert isinstance(res, VerificationResult)
        assert res.ok == (res.structure.ok and res.unitary_ok)
