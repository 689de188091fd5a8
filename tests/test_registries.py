"""Registry behaviour: suggestions, duplicates, synonyms, cache policy."""

from pathlib import Path

import pytest

from repro import (
    DuplicateRegistrationError,
    Registry,
    UnknownNameError,
    approach_names,
    architecture_names,
    get_approach,
    get_workload,
    make_architecture,
    workload_names,
)
from repro.approaches import APPROACH_REGISTRY
from repro.arch.registry import ARCHITECTURES
from repro.core.mapper import _SPECIALISTS
from repro.eval import CellSpec, ResultCache, run_specs
from repro.eval.runs import EXPERIMENT_REGISTRY
from repro.lint import CHECKERS
from repro.workloads import WORKLOADS

TESTS_ROOT = Path(__file__).resolve().parent


class TestRegistryCore:
    def test_register_get_and_synonyms(self):
        reg = Registry("thing")
        reg.register("alpha", 1, synonyms=("first", "a"))
        assert reg.get("alpha") == 1
        assert reg.get("FIRST") == 1  # case-insensitive
        assert reg.canonical("a") == "alpha"
        assert reg.names() == ("alpha",)
        assert set(reg.synonyms("alpha")) == {"first", "a"}

    def test_unknown_name_lists_registered_and_suggests(self):
        reg = Registry("thing")
        reg.register("sycamore", 1)
        reg.register("lattice", 2)
        with pytest.raises(UnknownNameError) as exc:
            reg.get("sycamor")
        msg = str(exc.value)
        assert "sycamore" in msg and "lattice" in msg
        assert "did you mean" in msg
        assert exc.value.suggestions == ("sycamore",)

    def test_duplicate_name_raises(self):
        reg = Registry("thing")
        reg.register("x", 1)
        with pytest.raises(DuplicateRegistrationError):
            reg.register("x", 2)

    def test_duplicate_synonym_raises(self):
        reg = Registry("thing")
        reg.register("x", 1, synonyms=("ex",))
        with pytest.raises(DuplicateRegistrationError):
            reg.register("y", 2, synonyms=("EX",))

    def test_unknown_name_error_survives_pickling(self):
        import pickle

        err = UnknownNameError("thing", "grd", ["grid", "lnn"])
        back = pickle.loads(pickle.dumps(err))
        assert back.name == "grd" and "did you mean" in str(back)


class TestBuiltinRegistries:
    def test_builtin_names(self):
        assert set(workload_names()) >= {"qft", "qaoa", "random"}
        assert set(approach_names()) == {"ours", "sabre", "satmap", "lnn", "greedy"}
        assert set(architecture_names()) == {
            "sycamore",
            "heavyhex",
            "lattice",
            "grid",
            "lnn",
        }

    def test_synonyms_resolve_everywhere(self):
        assert get_approach("our-approach").name == "ours"
        assert get_workload("random-circuit").name == "random"
        assert make_architecture("heavy-hex", 2).num_qubits == 10
        assert ARCHITECTURES.canonical("caterpillar") == "heavyhex"

    def test_unknown_names_raise_with_suggestions(self):
        with pytest.raises(UnknownNameError, match="did you mean 'qaoa'"):
            get_workload("qoaa")
        with pytest.raises(UnknownNameError, match="did you mean 'sabre'"):
            get_approach("sabrre")
        with pytest.raises(UnknownNameError, match="did you mean 'sycamore'"):
            make_architecture("sycamoar", 2)

    def test_duplicate_builtin_registration_raises(self):
        with pytest.raises(DuplicateRegistrationError):
            APPROACH_REGISTRY.register("sabre", object())
        with pytest.raises(DuplicateRegistrationError):
            WORKLOADS.register("qft", object())
        with pytest.raises(DuplicateRegistrationError):
            ARCHITECTURES.register("heavy-hex", object())

    def test_every_builtin_entry_is_documented_and_named_by_a_test(self):
        """Each registered object carries a docstring (an experiment may
        give a ``description=`` instead; ``--list`` output and the README
        tables are generated from registrations), and each
        canonical name is spelled in quotes somewhere under ``tests/``, so a
        name cannot break or vanish without a test noticing.  Colliding
        synonyms need no check here: ``Registry.register`` refuses them at
        import time."""

        docs = {
            APPROACH_REGISTRY: lambda entry: entry.factory.__doc__,
            ARCHITECTURES: lambda entry: entry.factory.__doc__,
            WORKLOADS: lambda entry: type(entry).__doc__,
            EXPERIMENT_REGISTRY: lambda entry: entry.description,
            CHECKERS: lambda entry: type(entry).__doc__,
        }
        tests = "\n".join(
            path.read_text(encoding="utf-8")
            for path in sorted(TESTS_ROOT.rglob("*.py"))
        )
        undocumented, unnamed = [], []
        for registry, doc in docs.items():
            for name, entry in registry.items():
                if not (doc(entry) or "").strip():
                    undocumented.append(f"{registry.kind} {name!r}")
                if f'"{name}"' not in tests and f"'{name}'" not in tests:
                    unnamed.append(f"{registry.kind} {name!r}")
        for topology, factory in _SPECIALISTS.items():
            if not (factory.__doc__ or "").strip():
                undocumented.append(f"specialist for {topology.__name__}")
        assert undocumented == []
        assert unnamed == []

    def test_approach_entry_carries_allowed_kwargs(self):
        assert get_approach("sabre").allowed_kwargs == {
            "seed",
            "passes",
            "kernel",
        }
        assert get_approach("satmap").max_qubits is not None


class TestUnsupportedNeverCached:
    def test_unsupported_cells_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db")
        specs = [
            CellSpec.make("ours", "grid", 3, workload="qaoa"),  # unsupported
            CellSpec.make("sabre", "grid", 3, workload="qaoa"),  # ok
        ]
        first = run_specs(specs, cache=cache)
        assert first[0].status == "unsupported"
        assert first[1].status == "ok"
        assert len(cache) == 1  # only the ok cell persisted

        second = run_specs(specs, cache=cache)
        assert second[0].status == "unsupported"
        assert second[1].extra.get("cache") == "hit"
        assert second[0].extra.get("cache") is None

    def test_workload_is_part_of_the_cache_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache.db", version="pinned")
        qft_key = cache.key("sabre", "grid", 3)
        qaoa_key = cache.key("sabre", "grid", 3, workload="qaoa")
        assert qft_key != qaoa_key
        params_key = cache.key(
            "sabre", "grid", 3, workload="qaoa", workload_params=(("seed", 1),)
        )
        assert params_key != qaoa_key
