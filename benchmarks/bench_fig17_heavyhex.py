"""Figure 17: depth and #SWAP vs qubit count on heavy-hex, ours vs SABRE."""

import pytest

from conftest import FULL, bench_cell

GROUPS = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20] if FULL else [2, 4, 6, 8, 10]
SABRE_GROUPS = GROUPS if FULL else [2, 4, 6, 8]


@pytest.mark.parametrize("groups", GROUPS)
def test_fig17_ours(benchmark, groups):
    result = bench_cell(benchmark, "ours", "heavyhex", groups)
    n = result.num_qubits
    # linear-depth guarantee of Section 4 (measured: exactly 5N - 3)
    assert result.depth <= 5 * n


@pytest.mark.parametrize("groups", SABRE_GROUPS)
def test_fig17_sabre(benchmark, groups):
    bench_cell(benchmark, "sabre", "heavyhex", groups)
