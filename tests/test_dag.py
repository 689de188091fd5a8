"""Tests for the QFT dependence-order checkers (Section 3.1: Type I vs Type II)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import qft_circuit, qft_type1_order_ok, qft_type2_order_ok


def _events_of(circuit):
    evs = []
    for g in circuit.gates:
        if g.kind == "h":
            evs.append(("h", g.qubits))
        elif g.kind == "cphase":
            evs.append(("cphase", g.qubits))
    return evs


class TestQftOrderCheckers:
    def test_textbook_order_satisfies_both(self):
        evs = _events_of(qft_circuit(6))
        assert qft_type2_order_ok(6, evs)[0]
        assert qft_type1_order_ok(6, evs)[0]

    def test_cphase_before_h_of_smaller_is_rejected(self):
        evs = [("cphase", (0, 1)), ("h", (0,)), ("h", (1,))]
        ok, msg = qft_type2_order_ok(2, evs)
        assert not ok and "before H(0)" in msg

    def test_cphase_after_h_of_larger_is_rejected(self):
        evs = [("h", (0,)), ("h", (1,)), ("cphase", (0, 1))]
        ok, msg = qft_type2_order_ok(2, evs)
        assert not ok and "after H(1)" in msg

    def test_type1_violation_detected_but_type2_ok(self):
        # swap the order of CP(0,1) and CP(0,2): fine under relaxed rules,
        # a violation under strict rules
        evs = [("h", (0,)), ("cphase", (0, 2)), ("cphase", (0, 1)), ("h", (1,)), ("h", (2,)), ]
        assert qft_type2_order_ok(3, evs)[0]
        ok, msg = qft_type1_order_ok(3, evs)
        assert not ok and "Type I" in msg

    def test_type1_violation_on_shared_larger_qubit(self):
        evs = [
            ("h", (0,)),
            ("h", (1,)),
            ("cphase", (1, 2)),
            ("cphase", (0, 2)),
            ("h", (2,)),
        ]
        assert qft_type2_order_ok(3, evs)[0]
        assert not qft_type1_order_ok(3, evs)[0]

    def test_unknown_event_kind_raises(self):
        with pytest.raises(ValueError):
            qft_type2_order_ok(2, [("swap", (0, 1))])

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=2, max_value=6), seed=st.integers(0, 10_000))
    def test_random_commuting_reorder_still_satisfies_type2(self, n, seed):
        """Randomly permuting gates while respecting Type II stays valid."""

        import random

        rng = random.Random(seed)
        # schedule gates greedily: maintain eligible set under Type II
        h_done = [False] * n
        pending = {(i, j) for i in range(n) for j in range(i + 1, n)}
        events = []
        while pending or not all(h_done):
            eligible = []
            for q in range(n):
                if not h_done[q] and all((i, q) not in pending for i in range(q)):
                    eligible.append(("h", (q,)))
            for (i, j) in sorted(pending):
                if h_done[i] and not h_done[j]:
                    eligible.append(("cphase", (i, j)))
            ev = rng.choice(eligible)
            events.append(ev)
            if ev[0] == "h":
                h_done[ev[1][0]] = True
            else:
                pending.discard(ev[1])
        assert qft_type2_order_ok(n, events)[0]
