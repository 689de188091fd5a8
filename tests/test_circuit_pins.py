"""Pins of the built logical circuits and of the ``Circuit`` API.

The digests, messages and results below were recorded when a circuit was
still a list of ``Gate`` objects; the columnar circuit must reproduce every
one of them.  The last test checks that compiling the routed workloads
builds no ``Gate`` at all.
"""

import hashlib

import pytest

import repro
from repro.arch.topology import clear_distance_cache
from repro.circuit import CNOT, CPHASE, RZ, SWAP, Circuit, Gate, GateKind, H, qft_circuit
from repro.workloads import get_workload


def _rows(circuit):
    return [(g.kind, g.qubits, g.angle) for g in circuit.gates]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def pinned_circuits():
    """``{label: circuit}`` of every pinned build."""

    out = {f"qft{n}": qft_circuit(n) for n in (1, 2, 5, 16, 100)}
    for n in (2, 5, 16):
        out[f"qft{n}-swaps"] = qft_circuit(n, include_final_swaps=True)
    for name in ("qaoa", "random"):
        for n in (4, 9, 24):
            for seed in (0, 1, 7):
                out[f"{name}{n}-s{seed}"] = get_workload(name).build(n, seed=seed)
    out["qaoa10-p3-e0.3"] = get_workload("qaoa").build(10, seed=3, layers=3, edge_prob=0.3)
    out["random10-d5-sq0.6"] = get_workload("random").build(
        10, seed=3, layers=5, single_qubit_prob=0.6
    )
    return out


def api_results(circuit):
    """What every read-only ``Circuit`` method returns on ``circuit``."""

    kinds = (GateKind.H, GateKind.RZ, GateKind.CPHASE, GateKind.CNOT, GateKind.SWAP, GateKind.BARRIER)
    n = circuit.num_qubits
    derived = {
        "copy": circuit.copy(),
        "reversed": circuit.reversed(),
        "without-cphase": circuit.without([GateKind.CPHASE]),
        "without-1q": circuit.without((GateKind.H, GateKind.RZ, "unknown")),
        "remapped": circuit.remapped([n - 1 - q for q in range(n)]),
    }
    return [
        len(circuit),
        [circuit.count(kind) for kind in kinds],
        circuit.depth(),
        [(g.kind, g.qubits, g.angle) for g in circuit.two_qubit_gates()],
        circuit.qubits_used(),
        sorted(circuit.interaction_pairs()),
        [(label, c.num_qubits, c.name, _rows(c)) for label, c in derived.items()],
    ]


#: sha256 of ``_rows(circuit)`` per pinned build
GATE_PINS = {
    "qaoa10-p3-e0.3": "09562af1b43c8bee2f0ff91a4984446aaaa94d1c4a8cefb07abfa136284a816a",
    "qaoa24-s0": "ba31616bb9b78c8673cd173451cc6d6a528f1564657fb3eef6d2067067b601cf",
    "qaoa24-s1": "616575379f71b6204ebde66b03cd6a5c512c470647bd49b00fea3e923260483e",
    "qaoa24-s7": "b2fb2503a74ff45d729e78ef56ca966282a366b2f4bfef2350d0a051b1410183",
    "qaoa4-s0": "45f922f1ee034d4db8d4f1be99527a7188b159ac34a8a5dd5aebe7856f1831f1",
    "qaoa4-s1": "bbe06dcf559033ef2a71a707d2b1a856aa4373dd9dd619b66cca0dc50d355d89",
    "qaoa4-s7": "ff4147b7b23edc311725032a0ab213bb5028a5aa7a40a0d7766b30f681b699df",
    "qaoa9-s0": "713dd586933fd3b42c9c66721625c1c4402cbd1f4424bb08115df9bb8969555d",
    "qaoa9-s1": "9e4eab6a59d5fdb7fd9dfbe28e6584ba1c6997d598f61a00cb3a07896afb342a",
    "qaoa9-s7": "4bcdceb64b7766da7c084f21a77c163e749d94d11437f149850da54596866fda",
    "qft1": "cdef2d74ebb5e4245933480e4bac25082126ecf80a3ca721e65f633f02cbafd7",
    "qft100": "7ed2103af82c72b3674ae4738e113ebbee3de86d6a0392dcb6a40bcbeacc97f3",
    "qft16": "3f8fcfcd226a07e7c65b00d93df468a17291ccf344a46fb5002095c0a01bdcef",
    "qft16-swaps": "9d057b3dc5668e20726e03ae74f3ac08d8c60e4344306ed0be7b10dd9db1fe93",
    "qft2": "852924eb8d4dd8ccbfac065ad11f62327dbca25d6352f1b3a316567dfeabcede",
    "qft2-swaps": "a451ee57258ef624724b2a1ecc6f92009c3ceedb770e3fd8e3ec53c1a8a2d1b3",
    "qft5": "dc0115dfc71516ea9531b4aa02125cf48b263465d49b583993b1141d08bebffd",
    "qft5-swaps": "d8221ad888596b1846f3b91c63906f8efc3456bb378316d1a17b7b37cce95ac0",
    "random10-d5-sq0.6": "631141e09b699fbd5ed4c51817ec2b73f2842c202af80fd8b4e9bb2a00491d27",
    "random24-s0": "2d9fe67f08f12298c2cdf9cb9ba03ed6b8b4bf71d859d9520763b61cd51fe7cd",
    "random24-s1": "f2f5213460ca40b08296669a0c7d0df98393b0906b5655863fd6aeeb4fa713a1",
    "random24-s7": "32a1166602c0b8b9a189ad77ff83ddc5ae317192c746cc81320d6a14887f227e",
    "random4-s0": "8a47f372beb60a8d5e53415252fe2d009b1cfebcc5ab9f2759f7de930507c74d",
    "random4-s1": "ef0e5d539fab6ec431482e659d6773c70af2346b5f894417039d08b88ca87ce8",
    "random4-s7": "38a0933578f21abc04559616df0b895518c68d811372265ce7f198956fae81e5",
    "random9-s0": "eba5f1442b15c9c0e2033254a4eb50d7bb89e6b0e7156778393d43463de13e1f",
    "random9-s1": "8d042ace95bacd4e87980bf7461dd78871f7d423604fba832e54c9dbe0310e81",
    "random9-s7": "784a29d15555ddb8ac1c035a934ba54140f2976762085ee6589d611746507b3e",
}

#: sha256 of ``api_results(circuit)`` per pinned build
API_PINS = {
    "qaoa10-p3-e0.3": "7061d9d84ff839cceda2bdae7bbe147c49f07ae63e224ad7dae37f8591685faf",
    "qaoa24-s0": "f26b506cb59acccef5094169102babda5ebeb39ff7f81562e9242b8e3338d8a3",
    "qaoa24-s1": "47cddee8374ecebc7b032a5a2eaf89d4197bf3323d26f47a98a283d89ef5595a",
    "qaoa24-s7": "1e34ad278cdc2a7130c0a1d74fe78a81bed0e6325bcde869b6cefa632fba57a0",
    "qaoa4-s0": "e9e70b132fbe408637a06b1399a99f53f11b38b113b02e0d487a130c2239d6f0",
    "qaoa4-s1": "0fbe56ea32cf697e2db10cd0bfec034c9750f75cc3a446699c1026d993f79328",
    "qaoa4-s7": "b0e22a27ca4921b00507e89be611bef2c2d9f5f25506ac4941cc65b1ec13f2fb",
    "qaoa9-s0": "d95b55edf3d1b4446829d6c6de631509b94aea76b04a812745b073431674a550",
    "qaoa9-s1": "3f3e2ea92e4c0dea9bddb800d759f3a20c8ca9fe253835123981fb171b607c59",
    "qaoa9-s7": "af8f896f3a7e3d51ce9d9e5f05fb4e7183a9dcbd7effab1ccf389699d4b14933",
    "qft1": "0f6cdbfaddae0c80780f84147227d878288f896703a62c4618e70a2ab7e5bb2c",
    "qft100": "090d7929e2d757faba348fba1bf9dbf5cb34644f63427a2f9e9e86ea183d6e17",
    "qft16": "1f3e5bf4eab6794ba244d964058a9acf233ea32e22860921ff4fa5e8af8e9956",
    "qft16-swaps": "c574501a91a7cb7c83a7371f7c4ca9ab6600071324d4e710083b8a7a2f06b853",
    "qft2": "b0db88a26bda9c2b44adbd5c719731be25bb251594a619b800e0cc8581eba63f",
    "qft2-swaps": "b5e3da18c1267124a2626fd6bf3cccaace1177d52eb8eecb98a8cfd4f38e2c86",
    "qft5": "fa3e3a95c84f52deb6ad481245697c5ebd54436dc6bf5307ed4679a2014aafe0",
    "qft5-swaps": "8b3c471fd07b2b930590cd74a0fc4e92b5b38dd6ab907a08f6b38c233b64eb22",
    "random10-d5-sq0.6": "6248f28fa2ab9b797ba6379714101133cb914a78df3968294eaec0adbfbdfa83",
    "random24-s0": "e62942ec1e88344b4286eb67325145393cce5f93d3b8a5cd547d16288b8d264c",
    "random24-s1": "a1554f1f362a9b0c8e64664b2253f7ccdad4ccc112bc8c37a47efbba0b8b3959",
    "random24-s7": "f8211c6fbfc956f18a21b946ceb1727c0b35a653093504b9b7b81e81bf50d4fd",
    "random4-s0": "987ba81f525abb2f5f8bd2fd71d8ca41695414d2b1c2e1307e943abba4eff822",
    "random4-s1": "fde9504a756947fcae113fcda3e9267b7da2d5673908537248c988b3b55a56e2",
    "random4-s7": "784cf6868af95b5ec8c70d4c2077f26c4dc46d1744f1a7b244e63d274a6de0bf",
    "random9-s0": "959ee2bdb8b6fc40bf763a4d06da37e57c933b8421f7b3b8c9b8f23f95b81bc0",
    "random9-s1": "8edfccff6f429ef4b3080a1c1829e5cd75e6ec8a37358981ee9aa07ea781522b",
    "random9-s7": "9e1dc8ebf3a3d8cf272462f362fc0f5245aaf2bd66eb704213ff67cddd8f0495",
}


def _raises(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the type is what is pinned
        return type(exc).__name__, str(exc)
    return None


#: what each rejected call raises: an operand off the circuit, equal operands
#: and a wrong arity, through every emitter, ``append``, ``extend`` and the
#: constructor
ERROR_CASES = {
    "h-range": lambda: Circuit(3).h(3),
    "h-negative": lambda: Circuit(3).h(-1),
    "rz-range": lambda: Circuit(3).rz(5, 0.25),
    "cphase-range": lambda: Circuit(3).cphase(0, 5, 0.1),
    "cphase-range-first": lambda: Circuit(3).cphase(7, 5, 0.1),
    "cphase-range-qft-angle": lambda: Circuit(3).cphase(0, 5),
    "cphase-equal": lambda: Circuit(3).cphase(1, 1, 0.3),
    "cphase-equal-qft-angle": lambda: Circuit(3).cphase(1, 1),
    "cphase-equal-off": lambda: Circuit(3).cphase(4, 4, 0.3),
    "cnot-range": lambda: Circuit(3).cnot(2, 3),
    "cnot-equal": lambda: Circuit(3).cnot(2, 2),
    "swap-range": lambda: Circuit(3).swap(-1, 1),
    "swap-equal": lambda: Circuit(3).swap(0, 0),
    "h-arity": lambda: Circuit(3).h(0, 1),
    "cnot-arity": lambda: Circuit(3).cnot(0),
    "append-range": lambda: Circuit(2).append(H(2)),
    "append-range-2q": lambda: Circuit(2).append(CNOT(0, 2)),
    "append-range-angle": lambda: Circuit(2).append(RZ(4, 1.5)),
    "append-equal": lambda: Circuit(2).append(SWAP(1, 1)),
    "append-arity-1q": lambda: Circuit(2).append(Gate(GateKind.H, (0, 1))),
    "append-arity-2q": lambda: Circuit(2).append(Gate(GateKind.CPHASE, (0,), 0.5)),
    "extend-range": lambda: Circuit(2).extend([H(0), CPHASE(0, 3, 0.5)]),
    "constructor-range": lambda: Circuit(2, [H(0), CPHASE(0, 5, 0.1)]),
    "constructor-equal": lambda: Circuit(2, [CNOT(1, 1)]),
    "constructor-no-qubits": lambda: Circuit(0),
    "constructor-negative": lambda: Circuit(-3, [H(0)]),
}

#: ``_raises(case)`` per entry of ``ERROR_CASES``
ERROR_PINS = {
    "append-arity-1q": ("ValueError", "h gate takes exactly one qubit, got (0, 1)"),
    "append-arity-2q": ("ValueError", "cphase gate takes exactly two qubits, got (0,)"),
    "append-equal": ("ValueError", "swap gate needs two distinct qubits, got (1, 1)"),
    "append-range": ("ValueError", "gate h(2,) uses qubit 2 outside range [0, 2)"),
    "append-range-2q": ("ValueError", "gate cnot(0, 2) uses qubit 2 outside range [0, 2)"),
    "append-range-angle": ("ValueError", "gate rz(4,)@1.5000 uses qubit 4 outside range [0, 2)"),
    "cnot-arity": ("TypeError", "Circuit.cnot() missing 1 required positional argument: 't'"),
    "cnot-equal": ("ValueError", "cnot gate needs two distinct qubits, got (2, 2)"),
    "cnot-range": ("ValueError", "gate cnot(2, 3) uses qubit 3 outside range [0, 3)"),
    "constructor-equal": ("ValueError", "cnot gate needs two distinct qubits, got (1, 1)"),
    "constructor-negative": ("ValueError", "Circuit needs at least one qubit"),
    "constructor-no-qubits": ("ValueError", "Circuit needs at least one qubit"),
    "constructor-range": (
        "ValueError",
        "gate cphase(0, 5)@0.1000 uses qubit 5 outside range [0, 2)",
    ),
    "cphase-equal": ("ValueError", "cphase gate needs two distinct qubits, got (1, 1)"),
    "cphase-equal-off": ("ValueError", "cphase gate needs two distinct qubits, got (4, 4)"),
    "cphase-equal-qft-angle": ("ValueError", "qft_angle requires two distinct qubits"),
    "cphase-range": ("ValueError", "gate cphase(0, 5)@0.1000 uses qubit 5 outside range [0, 3)"),
    "cphase-range-first": (
        "ValueError",
        "gate cphase(7, 5)@0.1000 uses qubit 7 outside range [0, 3)",
    ),
    "cphase-range-qft-angle": (
        "ValueError",
        "gate cphase(0, 5)@0.0982 uses qubit 5 outside range [0, 3)",
    ),
    "extend-range": ("ValueError", "gate cphase(0, 3)@0.5000 uses qubit 3 outside range [0, 2)"),
    "h-arity": ("TypeError", "Circuit.h() takes 2 positional arguments but 3 were given"),
    "h-negative": ("ValueError", "gate h(-1,) uses qubit -1 outside range [0, 3)"),
    "h-range": ("ValueError", "gate h(3,) uses qubit 3 outside range [0, 3)"),
    "rz-range": ("ValueError", "gate rz(5,)@0.2500 uses qubit 5 outside range [0, 3)"),
    "swap-equal": ("ValueError", "swap gate needs two distinct qubits, got (0, 0)"),
    "swap-range": ("ValueError", "gate swap(-1, 1) uses qubit -1 outside range [0, 3)"),
}


@pytest.fixture(scope="module")
def circuits():
    return pinned_circuits()


class TestBuiltCircuits:
    def test_every_build_is_pinned(self, circuits):
        assert sorted(circuits) == sorted(GATE_PINS) == sorted(API_PINS)

    @pytest.mark.parametrize("label", sorted(GATE_PINS))
    def test_gate_list(self, circuits, label):
        assert _digest(_rows(circuits[label])) == GATE_PINS[label]

    @pytest.mark.parametrize("label", sorted(API_PINS))
    def test_api_results(self, circuits, label):
        assert _digest(api_results(circuits[label])) == API_PINS[label]


class TestErrors:
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_error(self, case):
        assert _raises(ERROR_CASES[case]) == ERROR_PINS[case]

    def test_extend_keeps_the_gates_before_a_bad_one(self):
        c = Circuit(2)
        with pytest.raises(ValueError):
            c.extend([H(0), H(1), CPHASE(0, 3, 0.5), H(0)])
        assert list(c.gates) == [H(0), H(1)]


class TestNoGateOnTheHotPath:
    @pytest.mark.parametrize("workload", ["qft", "qaoa", "random"])
    @pytest.mark.parametrize("approach", ["sabre", "greedy"])
    def test_compiling_builds_no_gate(self, monkeypatch, workload, approach):
        from repro.baselines.sabre_kernel import kernel_available

        if approach == "sabre" and not kernel_available():
            pytest.skip("the compiled SABRE kernel is not built")
        monkeypatch.setenv("REPRO_SABRE_KERNEL", "c")
        clear_distance_cache()  # and the workload memos: the build is counted too
        built = []
        post_init = Gate.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Gate, "__post_init__", counting)
        res = repro.compile(
            workload=workload, architecture="grid", size=4, approach=approach, verify=True
        )
        assert res.status == "ok" and res.verified
        assert res.num_qubits == 16
        assert built == []
