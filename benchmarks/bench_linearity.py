"""The linear-depth guarantee (abstract / Sections 4-6 complexity claims).

Compiles growing instances of each architecture with the analytical mapper and
records depth / N; the assertion is that the ratio stays bounded (heavy-hex
~5-6, Sycamore ~8-10, lattice surgery ~13-16 with our constants; the
comparison against the paper's 5N / 7N / 5N is the ROADMAP "Paper-claim
conformance" item)."""

import pytest

from conftest import FULL, bench_cell

HEAVYHEX_GROUPS = [4, 8, 16, 32, 64] if FULL else [4, 8, 16, 24]
SYCAMORE_SIZES = [4, 6, 8, 10, 12] if FULL else [4, 6, 8, 10]
LATTICE_SIZES = [6, 8, 12, 16, 24, 32] if FULL else [6, 8, 12, 16]


@pytest.mark.parametrize("groups", HEAVYHEX_GROUPS)
def test_linearity_heavyhex(benchmark, groups):
    result = bench_cell(benchmark, "ours", "heavyhex", groups)
    ratio = result.depth / result.num_qubits
    benchmark.extra_info["depth_per_qubit"] = round(ratio, 2)
    assert ratio <= 7.0

@pytest.mark.parametrize("m", SYCAMORE_SIZES)
def test_linearity_sycamore(benchmark, m):
    result = bench_cell(benchmark, "ours", "sycamore", m)
    ratio = result.depth / result.num_qubits
    benchmark.extra_info["depth_per_qubit"] = round(ratio, 2)
    assert ratio <= 12.0


@pytest.mark.parametrize("m", LATTICE_SIZES)
def test_linearity_lattice(benchmark, m):
    result = bench_cell(benchmark, "ours", "lattice", m)
    ratio = result.depth / result.num_qubits
    benchmark.extra_info["depth_per_qubit"] = round(ratio, 2)
    assert ratio <= 20.0
