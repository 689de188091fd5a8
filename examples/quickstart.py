#!/usr/bin/env python
"""Quickstart: one `repro.compile()` call per backend (and per workload).

Run with:  python examples/quickstart.py
"""

import repro


def demo(workload: str, architecture: str, size: int, approach: str = "ours") -> None:
    result = repro.compile(
        workload=workload, architecture=architecture, size=size, approach=approach
    )
    print(f"\n=== {workload} on {result.architecture}  via {approach} ===")
    if not result.ok:
        print(f"  status          : {result.status} ({result.message})")
        return
    mapped = result.mapped
    depth = mapped.depth()
    print(f"  mapper          : {mapped.name}")
    print(f"  qubits          : {result.num_qubits}")
    print(f"  depth (cycles)  : {depth}")
    print(f"  SWAP gates      : {mapped.swap_count()}")
    print(f"  depth / qubit   : {depth / result.num_qubits:.2f}")
    print(f"  compile wall    : {result.wall_s * 1000:.1f} ms")
    verification = result.verification
    print(f"  verification    : {'OK' if verification.ok else 'FAILED'}"
          f" (unitary cross-check: "
          f"{'yes' if verification.unitary_checked else 'skipped, too large'})")


def main() -> None:
    # The paper's QFT kernel on its three backends (Sections 4-6).
    demo("qft", "heavyhex", 4)      # IBM heavy-hex, 20 qubits
    demo("qft", "sycamore", 6)      # Google Sycamore patch, 36 qubits
    demo("qft", "lattice", 8)       # FT lattice-surgery grid, 64 qubits

    # The same entry point covers the other registered workloads; the
    # analytic QFT specialists refuse them (typed "unsupported"), so they
    # route through a general approach such as SABRE.
    demo("qaoa", "grid", 4, approach="sabre")
    demo("random", "grid", 4, approach="sabre")
    demo("qaoa", "heavyhex", 2, approach="ours")  # typed unsupported


if __name__ == "__main__":
    main()
