"""Tests for the QFTDependenceTracker (relaxed Type II bookkeeping)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import qft_angle
from repro.core import QFTDependenceTracker


class TestBasicRules:
    def test_initial_state(self):
        t = QFTDependenceTracker(4)
        assert t.can_h(0)
        assert not t.can_h(1)
        assert not t.can_cphase(0, 1)  # H(0) not yet emitted
        assert not t.all_done()
        assert t.total_pairs == 6

    def test_single_qubit_kernel(self):
        t = QFTDependenceTracker(1)
        assert t.can_h(0)
        t.mark_h(0)
        assert t.all_done()

    def test_h_then_cphase_then_h(self):
        t = QFTDependenceTracker(2)
        t.mark_h(0)
        assert t.can_cphase(0, 1) and t.can_cphase(1, 0)
        t.mark_cphase(0, 1)
        assert t.can_h(1)
        t.mark_h(1)
        assert t.all_done()

    def test_cphase_before_h_rejected(self):
        t = QFTDependenceTracker(2)
        with pytest.raises(ValueError):
            t.mark_cphase(0, 1)

    def test_cphase_after_h_of_larger_rejected(self):
        t = QFTDependenceTracker(3)
        t.mark_h(0)
        t.mark_cphase(0, 1)
        t.mark_h(1)
        t.mark_cphase(0, 2)
        t.mark_cphase(1, 2)
        t.mark_h(2)
        with pytest.raises(ValueError):
            t.mark_cphase(1, 2)

    def test_double_h_rejected(self):
        t = QFTDependenceTracker(2)
        t.mark_h(0)
        with pytest.raises(ValueError):
            t.mark_h(0)

    def test_premature_h_rejected(self):
        t = QFTDependenceTracker(2)
        with pytest.raises(ValueError):
            t.mark_h(1)

    def test_double_cphase_rejected(self):
        t = QFTDependenceTracker(2)
        t.mark_h(0)
        t.mark_cphase(0, 1)
        with pytest.raises(ValueError):
            t.mark_cphase(1, 0)

    def test_cphase_same_qubit_rejected(self):
        t = QFTDependenceTracker(2)
        assert not t.can_cphase(1, 1)
        with pytest.raises(ValueError):
            t.mark_cphase(1, 1)


class TestQueries:
    def test_pending_partners(self):
        t = QFTDependenceTracker(4)
        t.mark_h(0)
        t.mark_cphase(0, 1)
        assert t.pending_partners(0) == [2, 3]
        assert 0 not in t.pending_partners(1)

    def test_pending_pairs_count(self):
        t = QFTDependenceTracker(4)
        assert len(t.pending_pairs()) == 6
        t.mark_h(0)
        t.mark_cphase(0, 3)
        assert len(t.pending_pairs()) == 5
        assert (0, 3) not in t.pending_pairs()

    def test_is_active(self):
        t = QFTDependenceTracker(3)
        assert not t.is_active(0)
        t.mark_h(0)
        assert t.is_active(0)
        t.mark_cphase(0, 1)
        t.mark_cphase(0, 2)
        assert not t.is_active(0)

    def test_all_pairs_done_within(self):
        t = QFTDependenceTracker(4)
        t.mark_h(0)
        t.mark_cphase(0, 1)
        assert t.all_pairs_done_within([0, 1])
        assert not t.all_pairs_done_within([0, 1, 2])
        assert t.all_pairs_done_within([3])

    def test_progress(self):
        t = QFTDependenceTracker(3)
        assert t.progress() == (0, 3)
        t.mark_h(0)
        t.mark_cphase(0, 1)
        assert t.progress() == (1, 3)

    def test_has_pending_pairs(self):
        t = QFTDependenceTracker(2)
        assert t.has_pending_pairs(0) and t.has_pending_pairs(1)
        t.mark_h(0)
        t.mark_cphase(0, 1)
        assert not t.has_pending_pairs(0)

    def test_needs_at_least_one_qubit(self):
        with pytest.raises(ValueError):
            QFTDependenceTracker(0)


class TestFullKernelProperty:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=8), seed=st.integers(0, 10_000))
    def test_any_greedy_completion_is_accepted_and_terminates(self, n, seed):
        """Randomly interleaving eligible actions always completes the kernel."""

        import random

        rng = random.Random(seed)
        t = QFTDependenceTracker(n)
        steps = 0
        while not t.all_done():
            steps += 1
            assert steps < 10 * n * n + 10
            choices = []
            for q in range(n):
                if t.can_h(q):
                    choices.append(("h", q, None))
            for i in range(n):
                for j in range(i + 1, n):
                    if t.can_cphase(i, j):
                        choices.append(("cp", i, j))
            assert choices, "tracker deadlocked"
            kind, a, b = rng.choice(choices)
            if kind == "h":
                t.mark_h(a)
            else:
                t.mark_cphase(a, b)
        assert t.pairs_completed == t.total_pairs
        assert t.h_completed == n


def _state(t):
    return (
        bytes(t.pair_done),
        list(t.h_done),
        list(t.pending_smaller),
        list(t.pending_larger),
        t.pairs_completed,
        t.h_completed,
    )


def _attempt(mark):
    try:
        mark()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


class TestBatchedMarks:
    """``mark_cphases`` equals ``mark_cphase`` called pair by pair."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_batch_raises_and_marks_what_single_marks_do(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        qubit = st.integers(0, n - 1)
        step = st.one_of(
            st.tuples(st.just("h"), qubit),
            st.tuples(st.just("cphases"), st.lists(st.tuples(qubit, qubit), max_size=4)),
        )
        single, batched = QFTDependenceTracker(n), QFTDependenceTracker(n)
        for kind, arg in data.draw(st.lists(step, max_size=12), label="steps"):
            if kind == "h":
                got = _attempt(lambda: batched.mark_h(arg))
                want = _attempt(lambda: single.mark_h(arg))
            else:
                got = _attempt(lambda: batched.mark_cphases([a for a, _ in arg], [b for _, b in arg]))

                def one_by_one():
                    for a, b in arg:
                        single.mark_cphase(a, b)

                want = _attempt(one_by_one)
            assert got == want
            assert _state(batched) == _state(single)
            if want is not None:
                break

    def test_pair_table_and_angle_table(self):
        t = QFTDependenceTracker(4)
        t.mark_h(0)
        t.mark_cphases([2], [0])
        assert t.pair_done[0 * 4 + 2] == 1 and sum(t.pair_done) == 1
        assert t.pair_is_done(2, 0) and not t.pair_is_done(0, 0)
        assert [t.angles[d] for d in range(1, 4)] == [qft_angle(0, d) for d in range(1, 4)]
