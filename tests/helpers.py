"""Importable test helpers.

Lives in a regular module (not ``conftest.py``) so that test modules can
``from helpers import assert_valid_qft`` without depending on which
``conftest`` pytest happens to put first on ``sys.path`` — the seed repo
broke root-level collection because ``benchmarks/conftest.py`` shadowed
``tests/conftest.py`` under the shared module name ``conftest``.
"""

from __future__ import annotations

from repro.circuit import MappedCircuit
from repro.verify import verify_mapped_qft

__all__ = ["assert_valid_qft", "with_ops"]


def assert_valid_qft(mapped, n=None, *, strict=False, statevector_limit=7):
    """Assert a mapped circuit is a correct QFT (structure + small-n unitary)."""

    result = verify_mapped_qft(
        mapped, n, strict_order=strict, statevector_limit=statevector_limit
    )
    assert result.ok, result.summary()
    return result


def with_ops(mapped, ops):
    """A copy of ``mapped`` carrying the op list ``ops`` instead (a mapped
    circuit's op stream is read-only, so fault injection edits a copy)."""

    return MappedCircuit(
        mapped.topology,
        mapped.num_logical,
        mapped.initial_layout,
        ops,
        mapped.name,
        dict(mapped.metadata),
    )
