"""Shared dependence bookkeeping for the constructive QFT mappers.

Every mapper in :mod:`repro.core` tracks the same three pieces of state while
it emits gates:

* which logical qubits have received their Hadamard,
* which logical pairs have received their CPHASE,
* which pairs are still pending for a given qubit.

:class:`QFTDependenceTracker` centralises that bookkeeping together with the
*relaxed* (Type II) eligibility rules of Section 3.1:

* ``H(q)`` may fire once every ``CPHASE(x, q)`` with ``x < q`` has fired,
* ``CPHASE(a, b)`` (``a < b``) may fire once ``H(a)`` has fired (and before
  ``H(b)``, which is guaranteed because ``H(b)`` cannot become eligible while
  the pair is still pending).

The tracker is deliberately independent of any physical placement so the same
instance can be threaded through nested primitives (intra-unit QFT, inter-unit
interactions, fix-ups, routed fallbacks) without double-counting gates.

Two flat tables serve the engines' inner loops:

* ``pair_done`` is a ``bytearray`` of ``n * n`` flags: ``pair_done[lo*n + hi]``
  is 1 once ``CPHASE(lo, hi)`` (``lo < hi``) has fired.  Engines read it
  directly; only :meth:`QFTDependenceTracker.mark_cphases` writes it.  At
  1,024 qubits it takes 1 MiB.
* ``angles[d]`` is :func:`~repro.circuit.gates.qft_angle` at distance ``d``
  (``angles[0]`` is unused), built once per tracker, so an engine looks a
  CPHASE's angle up as ``angles[hi - lo]``.

:meth:`QFTDependenceTracker.mark_cphases` marks a whole layer's CPHASEs in one
call, with the checks and messages of :meth:`~QFTDependenceTracker.mark_cphase`
(its one-pair case), pair by pair in order.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from ..circuit.gates import qft_angle

__all__ = ["QFTDependenceTracker"]


class QFTDependenceTracker:
    """Tracks H / CPHASE progress for an ``n``-qubit QFT kernel."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        self.h_done: List[bool] = [False] * n
        # pending_smaller[q] = number of pending CPHASE(x, q) with x < q
        self.pending_smaller: List[int] = list(range(n))
        # pending_larger[q] = number of pending CPHASE(q, y) with y > q
        self.pending_larger: List[int] = [n - 1 - q for q in range(n)]
        self.pair_done = bytearray(n * n)
        self.angles: List[float] = [0.0] + [qft_angle(0, d) for d in range(1, n)]
        self.total_pairs = n * (n - 1) // 2
        self.pairs_completed = 0
        self.h_completed = 0

    # -- queries -----------------------------------------------------------
    def _code(self, a: int, b: int) -> int:
        """The ``pair_done`` index of the unordered pair ``{a, b}``."""

        return a * self.n + b if a < b else b * self.n + a

    def pair_is_done(self, a: int, b: int) -> bool:
        return a != b and self.pair_done[self._code(a, b)] == 1

    def pair_is_pending(self, a: int, b: int) -> bool:
        return a != b and not self.pair_done[self._code(a, b)]

    def can_h(self, q: int) -> bool:
        """H(q) is eligible (all smaller-index interactions done, not yet H'd)."""

        return not self.h_done[q] and self.pending_smaller[q] == 0

    def can_cphase(self, a: int, b: int) -> bool:
        """CPHASE(a, b) is eligible under the relaxed (Type II) rules."""

        if a == b or self.pair_done[self._code(a, b)]:
            return False
        lo, hi = (a, b) if a < b else (b, a)
        return self.h_done[lo] and not self.h_done[hi]

    def is_active(self, q: int) -> bool:
        """A qubit is *active* once hadamarded and still owing interactions."""

        return self.h_done[q] and self.pending_larger[q] > 0

    def has_pending_pairs(self, q: int) -> bool:
        return (self.pending_smaller[q] + self.pending_larger[q]) > 0

    def pending_pairs(self) -> List[Tuple[int, int]]:
        n, done = self.n, self.pair_done
        return [(i, j) for i in range(n) for j in range(i + 1, n) if not done[i * n + j]]

    def pending_partners(self, q: int) -> List[int]:
        return [p for p in range(self.n) if self.pair_is_pending(p, q)]

    def all_done(self) -> bool:
        return self.pairs_completed == self.total_pairs and self.h_completed == self.n

    def all_pairs_done_within(self, qubits: Iterable[int]) -> bool:
        n, done = self.n, self.pair_done
        qs = sorted(set(qubits))
        for idx, a in enumerate(qs):
            for b in qs[idx + 1 :]:
                if not done[a * n + b]:
                    return False
        return True

    # -- state updates ---------------------------------------------------
    def mark_h(self, q: int) -> None:
        if self.h_done[q]:
            raise ValueError(f"H({q}) emitted twice")
        if self.pending_smaller[q] != 0:
            raise ValueError(
                f"H({q}) emitted before its {self.pending_smaller[q]} smaller-index "
                "interactions completed (Type II violation)"
            )
        self.h_done[q] = True
        self.h_completed += 1

    def mark_cphase(self, a: int, b: int) -> None:
        self.mark_cphases((a,), (b,))

    def mark_cphases(self, los: Sequence[int], his: Sequence[int]) -> None:
        """Mark ``CPHASE(los[i], his[i])`` for each ``i``, in order.

        Each pair may come in either order.  A pair that breaks a rule raises
        the :exc:`ValueError` that :meth:`mark_cphase` raises for it, with the
        pairs before it marked.
        """

        n = self.n
        done = self.pair_done
        h_done = self.h_done
        pending_larger = self.pending_larger
        pending_smaller = self.pending_smaller
        marked = 0
        try:
            for lo, hi in zip(los, his):
                if hi < lo:
                    lo, hi = hi, lo
                code = lo * n + hi
                if lo == hi or done[code] or not h_done[lo] or h_done[hi]:
                    self._refuse(lo, hi)
                done[code] = 1
                pending_larger[lo] -= 1
                pending_smaller[hi] -= 1
                marked += 1
        finally:
            self.pairs_completed += marked

    def _refuse(self, lo: int, hi: int) -> None:
        if lo == hi:
            raise ValueError("CPHASE needs two distinct qubits")
        if self.pair_done[lo * self.n + hi]:
            raise ValueError(f"CPHASE({lo},{hi}) emitted twice")
        if not self.h_done[lo]:
            raise ValueError(f"CPHASE({lo},{hi}) emitted before H({lo}) (Type II violation)")
        raise ValueError(f"CPHASE({lo},{hi}) emitted after H({hi}) (Type II violation)")

    # -- convenience -----------------------------------------------------
    def progress(self) -> Tuple[int, int]:
        return self.pairs_completed, self.total_pairs

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"QFTDependenceTracker(n={self.n}, pairs={self.pairs_completed}/"
            f"{self.total_pairs}, h={self.h_completed}/{self.n})"
        )
