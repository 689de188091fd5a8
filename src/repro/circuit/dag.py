"""Dependence analysis for QFT-like circuits (Section 3.1).

The paper distinguishes two dependence types between gates of the QFT kernel,
writing ``G(t, c)`` for a CPHASE with target ``t`` and control ``c`` and
modelling the Hadamard on ``q`` as the degenerate gate ``G(q, q)``:

* **Type I** (relaxable): two gates sharing the same control (or the same
  target) are ordered by their other operand.  Because CPHASE gates are
  diagonal they commute, so this ordering is an artefact of the textbook
  circuit and can be dropped.
* **Type II** (essential): if one gate's control is another gate's target the
  former must precede the latter.  The Hadamard between them does not commute
  with CPHASE, so this ordering is real.

For the QFT kernel the Type II relation boils down to a very compact partial
order which every mapper and the verifier use directly::

    H(i)  <  CPHASE(i, j)  <  H(j)        for all i < j

This module checks that order over a QFT's event sequence, for the QFT
verifier (:mod:`repro.verify.coverage`): :func:`qft_type2_order_ok` under
relaxed (Type II only) and :func:`qft_type1_order_ok` under strict (Type I +
II) semantics.
"""

from __future__ import annotations

from typing import Sequence, Tuple

__all__ = ["qft_type2_order_ok", "qft_type1_order_ok"]


def qft_type2_order_ok(
    n: int, events: Sequence[Tuple[str, Tuple[int, ...]]]
) -> Tuple[bool, str]:
    """Check the relaxed (Type II) QFT ordering over an event sequence.

    ``events`` is a list of ``("h", (i,))`` and ``("cphase", (i, j))`` tuples
    given in execution order (events in the same parallel layer may appear in
    any order because dependent gates always share a qubit and therefore can
    never share a layer).

    Returns ``(ok, message)``; ``message`` names the first violation.
    """

    h_done = [False] * n
    for pos, (kind, qubits) in enumerate(events):
        if kind == "h":
            (q,) = qubits
            h_done[q] = True
        elif kind == "cphase":
            a, b = qubits
            lo, hi = (a, b) if a < b else (b, a)
            if not h_done[lo]:
                return False, f"event {pos}: CPHASE({lo},{hi}) before H({lo})"
            if h_done[hi]:
                return False, f"event {pos}: CPHASE({lo},{hi}) after H({hi})"
        else:
            raise ValueError(f"unknown event kind {kind!r}")
    return True, "ok"


def qft_type1_order_ok(
    n: int, events: Sequence[Tuple[str, Tuple[int, ...]]]
) -> Tuple[bool, str]:
    """Check the *strict* (Type I + II) textbook QFT ordering.

    Strict order demands that the CPHASE gates sharing a smaller qubit ``i``
    appear with increasing larger operand, and symmetrically for gates sharing
    the larger qubit.  Combined with Type II this forces the exact textbook
    ordering of the per-qubit interaction lists.
    """

    ok, msg = qft_type2_order_ok(n, events)
    if not ok:
        return ok, msg
    last_as_small = [-1] * n  # largest j seen so far for gates (i, j) keyed by i
    last_as_large = [-1] * n  # largest i seen so far for gates (i, j) keyed by j
    for pos, (kind, qubits) in enumerate(events):
        if kind != "cphase":
            continue
        a, b = qubits
        lo, hi = (a, b) if a < b else (b, a)
        if hi <= last_as_small[lo]:
            return False, (
                f"event {pos}: CPHASE({lo},{hi}) violates Type I order on qubit {lo} "
                f"(already saw partner {last_as_small[lo]})"
            )
        if lo <= last_as_large[hi]:
            return False, (
                f"event {pos}: CPHASE({lo},{hi}) violates Type I order on qubit {hi} "
                f"(already saw partner {last_as_large[hi]})"
            )
        last_as_small[lo] = hi
        last_as_large[hi] = lo
    return True, "ok"
