"""Pinned output metrics for representative evaluation cells.

Every optimisation in the mapper stack (delta-scored SABRE, counter-based
cascade bookkeeping, pending-set inter-unit interactions, topology-grouped
execution) is required to leave compiled circuits unchanged.  These values
were recorded from the PR-1 code (see BENCH_baseline_pr1.json) and must never
drift: a failure here means an "optimisation" changed an algorithm.
"""

import hashlib

import pytest

import repro
from repro.eval import run_cell

# (approach, kind, size) -> (depth, swap_count), recorded at PR 1.
PINNED = {
    ("sabre", "grid", 5): (187, 261),
    ("sabre", "grid", 7): (468, 976),
    ("sabre", "heavyhex", 6): (393, 702),
    ("ours", "heavyhex", 10): (247, 999),
    ("ours", "lattice", 10): (1507, 4515),
    ("lnn", "lattice", 10): (1149, 4949),
}


@pytest.mark.parametrize(
    "approach,kind,size", sorted(PINNED), ids=lambda v: str(v)
)
def test_cell_metrics_match_pr1_baseline(approach, kind, size):
    depth, swaps = PINNED[(approach, kind, size)]
    res = run_cell(approach, kind, size)
    assert res.ok and res.verified
    assert (res.depth, res.swap_count) == (depth, swaps)


def _stream_digest(mapped) -> str:
    """sha256 over every op's (kind, physical, logical, angle, tag), then the
    initial and final layouts."""

    h = hashlib.sha256()
    for op in mapped.ops:
        h.update(repr((op.kind, op.physical, op.logical, op.angle, op.tag)).encode())
    h.update(repr((list(mapped.initial_layout), mapped.final_layout())).encode())
    return h.hexdigest()


# (approach, kind, size, compile options) -> op-stream digest, recorded while
# mapped circuits still held lists of Op objects.  Depth and SWAP count alone
# would not notice an engine rewrite that reorders or retags ops.
STREAM_PINS = {
    ("ours", "heavyhex", 4, ()): "d2d588d33039403c0335c9a53c441d61ecf00a9a1b3985996321f502288ecdec",
    ("ours", "heavyhex", 8, ()): "633425c5ae2e067e0213bbb8ede5ef0ed2df8de15df98236da8e02d9c2e5a5e4",
    ("ours", "heavyhex", 20, ()): "883aa4eec5687ea786d77259f00de944600ca55f4d9d814c08089cf1be77a917",
    # 17 logical qubits on a 40-site device: the engine scans empty sites
    ("ours", "heavyhex", 8, (("num_qubits", 17),)): "98293405f869f0a6657b3503756c5e60320a4419b98f7df834232b8599c68104",
    ("ours", "sycamore", 4, ()): "be9ddf24586adbad7c066a4632c0987fb20300e9c111c6d5704cae402a49b29e",
    ("ours", "sycamore", 8, ()): "2cbd521b8de2e33c296dbcf1149b3fd36cdd64c82bbdacfb64b0347556ae48b7",
    ("ours", "sycamore", 6, (("strict_ie", True),)): "f6025f715d860427627c9d8d6b71f9c92754ccb26147e9d7544fb8113cec22b7",
    ("ours", "lattice", 6, ()): "801bcd83a54404c80639941e9d5bb2ae0b97454162c309d34236abcf3593d821",
    ("ours", "lattice", 10, ()): "c5440cff91183d208e7306be0155c5a6c4a168002b5f8004a554b79905210b72",
    ("ours", "grid", 5, ()): "c9d40fed9866cff6751d9d11e28230ddb8dc9115f86d8d0869c7a33aa34cec76",
    ("lnn", "lattice", 6, ()): "91b9a7c459f322bab0134a73205945b8e46f688223e352a272dec61f9786cd22",
    ("lnn", "lattice", 10, ()): "e4a7a7894366174404285d36a7a685f045649a4847120cef8bca49f06e0d2c1b",
    ("greedy", "grid", 5, ()): "2944e359d2d66a042ce5e708dd92087671c5c619ccb7e51e15610b8fd4b0d958",
}


@pytest.mark.parametrize(
    "approach,kind,size,opts", list(STREAM_PINS), ids=lambda v: str(v)
)
def test_paper_mapper_op_streams_are_pinned(approach, kind, size, opts):
    res = repro.compile(
        architecture=kind, size=size, approach=approach, verify=False, **dict(opts)
    )
    assert res.ok
    assert _stream_digest(res.mapped) == STREAM_PINS[(approach, kind, size, opts)]
