"""Pinned output metrics for representative evaluation cells.

Every optimisation in the mapper stack (delta-scored SABRE, counter-based
cascade bookkeeping, pending-set inter-unit interactions, topology-grouped
execution) is required to leave compiled circuits unchanged.  These values
were recorded from the PR-1 code (see BENCH_baseline_pr1.json) and must never
drift: a failure here means an "optimisation" changed an algorithm.
"""

import hashlib
import random

import pytest

import repro
from repro.arch import CaterpillarTopology, LNNTopology
from repro.circuit import MappingBuilder
from repro.core import HeavyHexQFTMapper, QFTDependenceTracker, cascade_on_line
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



def _engine_digest(mapped, stats) -> str:
    """sha256 over the op-stream digest, then the engine's stats dict."""

    h = hashlib.sha256(_stream_digest(mapped).encode())
    h.update(repr(sorted(stats.items())).encode())
    return h.hexdigest()


def _paper_cell(kind, size):
    mapped = repro.compile(architecture=kind, size=size, verify=False).mapped
    return _engine_digest(mapped, mapped.metadata)


def _caterpillar(main_length, junctions, fewer):
    topo = CaterpillarTopology(main_length, list(junctions))
    mapped = HeavyHexQFTMapper(topo).map_qft(topo.num_qubits - fewer)
    return _engine_digest(mapped, mapped.metadata)


def _shuffled_cascade(n, seed):
    """The whole-line cascade from a shuffled start: orientation flips and,
    from 13 qubits up, routed completion."""

    order = list(range(n))
    random.Random(seed).shuffle(order)
    builder = MappingBuilder(LNNTopology(n), [order.index(q) for q in range(n)], num_logical=n)
    stats = cascade_on_line(builder, QFTDependenceTracker(n), list(range(n)))
    return _engine_digest(builder.build(), stats)


_ENGINE_RUNS = {"cell": _paper_cell, "caterpillar": _caterpillar, "cascade": _shuffled_cascade}

# Op streams, layouts and engine stats, recorded before the paper engines
# emitted a layer per builder call and scanned only the sites the previous
# layer touched.  The caterpillars are the irregular inputs of
# test_heavy_hex_mapper.py plus three longer lines, each at full size and with
# three sites left empty.  Lines on both sides of WHOLE_SCAN_MAX_SITES are
# covered: Sycamore 16 runs its cascades on 32-site unit lines.
ENGINE_PINS = {
    ('cell', ('heavyhex', 50)): "f3aaec820555db3dd0efadc60cb5ffa14a8660fb3377cda89da6c8f8d36fa589",
    ('cell', ('sycamore', 12)): "158475654d4a92bc3d0dca8b44c67e4f12a731cc8beb2be80def65a141c47335",
    ('cell', ('lattice', 14)): "24d3618496487060bd74957a01f5fcffbeaa00aa4e2c0e90c0ab496560473b8b",
    ('cell', ('sycamore', 16)): "a6940604fe093c0b9346506f29304489e1c3b4824661aafaf0bb16a1f7b7bd4c",
    ('cell', ('heavyhex', 8)): "20ac2718695d06e9d2e983542abfd95e341009311b7ae98a0fc86bafd873f836",
    ('caterpillar', (6, (0,), 0)): "2c593c0270fd57debc5c63af4b74000e2f664d93022aea8bb65088da4d06f146",
    ('caterpillar', (6, (0,), 3)): "860107298badd5df17cf8f130846e23a55086289e45f60a0fbb4be0923d8b33d",
    ('caterpillar', (8, (2, 5), 0)): "e2287d0498ae6d96ba821174868495c8acaa560c8483450e8c3f69d1b7c349e8",
    ('caterpillar', (8, (2, 5), 3)): "20685b3798289da4828fede57073e723efb7399e2f8388262eebe555bc4ccd1f",
    ('caterpillar', (9, (1, 2, 7), 0)): "8f554d88b0aa894ab356ccae2b93956e73f2674cac7d046bc03308528941cfe7",
    ('caterpillar', (9, (1, 2, 7), 3)): "a2ccc7801092b5b05ac060d498576d359fe45592c44b2bf87fd49b2171348980",
    ('caterpillar', (12, (0, 1, 2, 3), 0)): "dbd20e3a12a1e050c616fc95b7561d848ffcc783baaf16bbc507e4e891f28e07",
    ('caterpillar', (12, (0, 1, 2, 3), 3)): "84b42a069f32ca115d5cc91a5c3654e3c2a822b81741de6aec1d83bbc883ccf7",
    ('caterpillar', (10, (9,), 0)): "b73ee289a2f1b9ae6fc9a53d87e4254b18d75ebfe8128f7f200df40f8fa46361",
    ('caterpillar', (10, (9,), 3)): "81fbf027558ea75cdbcc49bc28e05cd95a3815f940411321c394428087e5f5c5",
    ('caterpillar', (8, (), 0)): "81fbf027558ea75cdbcc49bc28e05cd95a3815f940411321c394428087e5f5c5",
    ('caterpillar', (8, (), 3)): "4400e6b8849044cb089269f35894cae1a4243d24647d111242e1e6c286c7ef54",
    ('caterpillar', (36, (), 0)): "ec03b2ea88a53d8e2e27bd91c32481a78be2983e31ed62151b5eee1d467f292c",
    ('caterpillar', (36, (), 3)): "b15b73b1e43c77d3d5aca9b7dc76a1f8df1e40a786a9f6b77fd0d75c3fefe0fe",
    ('caterpillar', (40, (0, 1, 2, 3, 20, 39), 0)): "772a77a6d7bb1f1292ab41e40e8d25ad28a30255ee39def6ef13b926ab5b4801",
    ('caterpillar', (40, (0, 1, 2, 3, 20, 39), 3)): "28a50b8343a53ad45be3981252bbe8c18bb292312b93f0c8c982c3d099ff5527",
    ('caterpillar', (48, (5, 9, 10, 30, 31), 0)): "bc491e332ba7a6b80b5c88205fd72e76f137a0f5b72fbce83608eea927d89ac4",
    ('caterpillar', (48, (5, 9, 10, 30, 31), 3)): "675c1f28b1257907f4946c177f9aacc7bd214f8716ad8c2a6035df2cc9c6a8e0",
    ('cascade', (5, 0)): "acd819f541f131dec3a06e4b6b0851de471381ff1a015335f0280f89bc955b96",
    ('cascade', (5, 1)): "3741aa1a7baef2b5061f550f2ce6d5da601119e517ca9f1702f0ba9465345df2",
    ('cascade', (5, 2)): "3f2f4a6f4d8a9ade06d2491cfe8905fb6d90a235f57365759ead0003daa36a2f",
    ('cascade', (5, 3)): "6ffc3ff884b99885a84c52e5a0484eba49fd7a8c2b76f59a06e2b46c19568a90",
    ('cascade', (8, 0)): "7ac31dcfcd13c7a088a5bca9dd1bca4ce9205961554d69d4e632b65411437fb2",
    ('cascade', (8, 1)): "0fad7f9281735cc576788e9539a769309b3224ee93362dda16dc7e66a39f6df4",
    ('cascade', (8, 2)): "aa0d4629bec3522abbc348acb81ec42117cd5638d88695e61e619e3331043853",
    ('cascade', (8, 3)): "fb5b38d7e00e027204b92d33e11239c3298a4c0048b996ef9077dbc5b6300273",
    ('cascade', (13, 0)): "02951bca5ae3d7fa56351aae447006fe3f849b20317489a5e98a2ffe83f6638c",
    ('cascade', (13, 1)): "f6e30126e8a70f1540104b7ff917602c6e41b4d447b88c3730e2da585b2e8eb1",
    ('cascade', (13, 2)): "508644510da3df2d79dc92a8d8c91590fd7bad56b1c58f94e5673e14a41f0f7d",
    ('cascade', (13, 3)): "f282e36b17b765ecd89d9349ec647c0d2f2f93ce81c8458ebdf5e462fd79c610",
    ('cascade', (40, 0)): "db46b667fa4f7cf025a72402fb495b5f94de8fc8e48202cf7342a7b110c55821",
    ('cascade', (40, 1)): "6f35cc87d96dc604f2917a23a6b608a9d68cc957e026a85b46eb6dd2248e9f9f",
    ('cascade', (40, 2)): "9e7a4129b78e611739faec9078e668d2bec86ded830d5d59aa3f0ef17b0ba99b",
    ('cascade', (40, 3)): "f0ff4ecd319c25dc018a36cf8d7ee802cfba73ae4c8b732683b5d07c6d9dc9f6",
}


@pytest.mark.parametrize("run,args", list(ENGINE_PINS), ids=lambda v: str(v))
def test_paper_engine_outputs_are_pinned(run, args):
    assert _ENGINE_RUNS[run](*args) == ENGINE_PINS[(run, args)]
