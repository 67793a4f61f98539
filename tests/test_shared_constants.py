"""The ideal scenario's input-independent parts: built once, on first use, and read-only."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import starcert
from starcert.bell import ideal_observables
from starcert.measurements import (
    MixedStateSpec,
    Povm,
    embed_rank1_povm,
    ghz_basis_measurement,
    trine_povm,
)
from starcert.network import BinaryObservableTriple, Scenario, born_table
from starcert.presets import PHI_PLUS, ideal_scenario
from starcert.tensor import PAULI_X, PAULI_Y, PAULI_Z


def test_ideal_observables_are_the_same_two_triples_at_every_n():
    first, rest = ideal_observables(2)
    for n in range(2, 8):
        triples = ideal_observables(n)
        assert len(triples) == n and triples[0] is first
        assert all(t is rest for t in triples[1:])


def test_the_shared_constants_are_read_only():
    scen = ideal_scenario(3)
    assert scen.sources[0] is ideal_scenario(2).sources[1]
    assert scen.eve[1] is ideal_scenario(3).eve[1]
    arrays = [a for t in scen.alice_observables for a in t.observables()]
    for a in arrays + [scen.sources[0], scen.eve[1].effects]:
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 2.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_second_ideal_scenario_builds_no_triple_and_no_dense_povm(n, monkeypatch):
    ideal_scenario(n)
    calls = []
    for cls, name in ((BinaryObservableTriple, "__post_init__"), (Povm, "__init__")):
        original = getattr(cls, name)

        def counting(self, *args, original=original, name=name, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counting)
    scen = ideal_scenario(n)
    assert calls == []
    assert scen.eve[1].outcome_count == 1 and scen.n_parties == n


def test_importing_the_cli_builds_no_shared_constant():
    code = ("import starcert.cli, starcert.bell as b, starcert.presets as p\n"
            "caches = (b._ideal_triples, p._phi_plus_source, p._trivial_measurement)\n"
            "print([c.cache_info().currsize for c in caches])")
    src = os.path.dirname(os.path.dirname(starcert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[0, 0, 0]\n"


def _fresh_scenario(n, eve_second):
    """The ideal scenario from triples, sources and a default e = 1 measurement built here."""
    s = np.sqrt(2.0)
    first = BinaryObservableTriple((PAULI_X + PAULI_Z) / s, (PAULI_X - PAULI_Z) / s, PAULI_Y)
    rest = [BinaryObservableTriple(PAULI_Z, PAULI_X, PAULI_Y) for _ in range(n - 1)]
    if eve_second is None:
        eve_second = Povm((np.eye(2**n, dtype=complex),))
    return Scenario(
        n_parties=n,
        sources=tuple(np.outer(PHI_PLUS, PHI_PLUS.conj()) for _ in range(n)),
        alice_observables=(first, *rest),
        eve=(ghz_basis_measurement(n), eve_second),
    )


@pytest.mark.parametrize("second", ["default", "ghz"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_born_table_of_the_shared_constants_is_bit_identical(n, second):
    eve_second = None if second == "default" else ghz_basis_measurement(n)
    shared = born_table(ideal_scenario(n, eve_second=eve_second))
    fresh = born_table(_fresh_scenario(n, eve_second))
    assert shared.p0.tobytes() == fresh.p0.tobytes()
    assert shared.p1.tobytes() == fresh.p1.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_second_ideal_scenario_builds_no_measurement(n, monkeypatch):
    ideal_scenario(n)
    calls = []
    init, rank_one = Povm.__init__, Povm.rank_one.__func__

    def counting_init(self, *args, **kwargs):
        calls.append("__init__")
        return init(self, *args, **kwargs)

    def counting_rank_one(cls, *args, **kwargs):
        calls.append("rank_one")
        return rank_one(cls, *args, **kwargs)
    monkeypatch.setattr(Povm, "__init__", counting_init)
    monkeypatch.setattr(Povm, "rank_one", classmethod(counting_rank_one))
    scen = ideal_scenario(n)
    assert calls == []
    assert scen.eve[0] is ideal_scenario(n).eve[0] and scen.eve[0].outcome_count == 2**n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_second_born_table_expands_only_the_new_measurement(n, monkeypatch):
    # N = 5 expands both measurements from their nonzero amplitudes, N <= 4 densely
    spec = MixedStateSpec(2, (0.75, 0.25), (np.array([1, 1j]) / np.sqrt(2),
                                            np.array([1, -1j]) / np.sqrt(2)))
    born_table(ideal_scenario(n, eve_second=embed_rank1_povm(trine_povm(spec), n)))
    expanded = []
    coefficients = Povm._born_coefficients

    def counting(meas, dims):
        if dims not in meas._coefficients:
            expanded.append(meas)
        return coefficients(meas, dims)
    monkeypatch.setattr(Povm, "_born_coefficients", counting)
    scen = ideal_scenario(n, eve_second=embed_rank1_povm(trine_povm(spec), n))
    table = born_table(scen)
    assert len(expanded) == 1 and expanded[0] is scen.eve[1]
    assert table._factors(0) is scen.eve[0]._born_coefficients(scen.eve_dims)


def test_held_coefficients_are_read_only_and_kept_per_dims():
    povm = ideal_scenario(2).eve[0]
    held = povm._born_coefficients((2, 2))
    assert povm._born_coefficients((2, 2)) is held and held.shape == (4, 4, 4)
    assert povm._born_coefficients((4,)).shape == (4, 16)
    with pytest.raises(ValueError, match="read-only"):
        held[0, 0, 0] = 2.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_shared_ghz_measurement_is_bit_identical_to_a_fresh_one(n):
    born_table(ideal_scenario(n))  # the held coefficients are read on the second table
    shared = ideal_scenario(n)
    dims = shared.eve_dims
    fresh = ghz_basis_measurement(n)
    held = shared.eve[0]._born_coefficients(dims)
    assert held.tobytes() == fresh._born_coefficients(dims).tobytes()
    assert np.array_equal(shared.eve[0].vectors, fresh.vectors)
    tables = [born_table(s) for s in (shared, replace(shared, eve=(fresh, shared.eve[1])))]
    assert tables[0].p0.tobytes() == tables[1].p0.tobytes()
    assert tables[0].p1.tobytes() == tables[1].p1.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ghz_basis_measurement_still_builds_a_new_measurement(n):
    shared = ideal_scenario(n).eve[0]
    shared.effects  # the shared measurement's dense effects, kept alive from here on
    first, second = ghz_basis_measurement(n), ghz_basis_measurement(n)
    assert first is not second and shared not in (first, second)
    assert first._effects is None and second._effects is None


def test_importing_the_cli_builds_no_ghz_measurement():
    code = ("import starcert.cli, starcert.presets as p\n"
            "print(p._ghz_measurement.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(starcert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "0\n"
