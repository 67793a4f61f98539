"""The ideal scenario's input-independent parts: built once, on first use, and read-only."""

import os
import subprocess
import sys

import numpy as np
import pytest

import starcert
from starcert.bell import ideal_observables
from starcert.measurements import Povm, ghz_basis_measurement
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
