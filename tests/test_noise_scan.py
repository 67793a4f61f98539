"""noise_scan, which mixes the expanded factors of a scenario with those of
its v = 0 image, read in closed form, and reads chunks of levels as stacks,
against the per-level route of ``noise_scan_oracle``."""

import importlib
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starcert.network
from starcert.certify import NOISE_MODELS, certify, noise_scan
from starcert.config import Tolerances
from starcert.errors import StarcertError
from starcert.measurements import Povm, ghz_basis_measurement
from starcert.network import BinaryObservableTriple, Scenario, _born_factors
from starcert.presets import (
    ideal_scenario,
    random_projective_measurement,
    random_rank1_extremal_povm,
    random_scenario,
    random_unitary,
)
from starcert.tensor import kron_all

from conftest import noise_scan_oracle, random_scenario_with_dims

GRID = (1.0, 0.0, 0.35, 0.8)
GRID_41 = np.linspace(0.0, 1.0, 41)

certify_module = importlib.import_module("starcert.certify")
network = importlib.import_module("starcert.network")


def assert_same_scan(report, oracle):
    assert report.model == oracle.model
    assert report.bell_monotone == oracle.bell_monotone
    assert len(report.rows) == len(oracle.rows)
    for row, ref in zip(report.rows, oracle.rows):
        assert row.level == ref.level
        values, expected = np.array(row.bell_values), np.array(ref.bell_values)
        npt.assert_array_equal(np.isnan(values), np.isnan(expected))
        npt.assert_allclose(values, expected, rtol=0, atol=1e-12)
        npt.assert_allclose(row.min_bell, ref.min_bell, rtol=0, atol=1e-12)
        npt.assert_allclose(row.pbar_deviation, ref.pbar_deviation, rtol=0, atol=1e-12)
        if ref.part2_max_residual is None:
            assert row.part2_max_residual is None
        else:
            npt.assert_allclose(row.part2_max_residual, ref.part2_max_residual,
                                rtol=0, atol=1e-12)


def zero_effect_scenario(n=2):
    """A zero e = 0 effect, so label 0...01 is unconditionable at every level."""
    scen = ideal_scenario(n, eve_second=ghz_basis_measurement(n))
    units = np.eye(2**n)
    eve0 = Povm((np.diag(units[0] + units[1]), np.zeros((2**n, 2**n)))
                + tuple(np.diag(u) for u in units[2:]))
    return Scenario(n_parties=n, sources=scen.sources,
                    alice_observables=scen.alice_observables, eve=(eve0, scen.eve[1]))


def ghz_scenario(n):
    ref = ghz_basis_measurement(n)
    return ideal_scenario(n, eve_second=tuple(np.conj(m) for m in ref.effects))


SCENARIOS = {
    "ghz-n3": lambda rng: ghz_scenario(3),
    "zero-effect-n2": lambda rng: zero_effect_scenario(),
    "qubits-n2": lambda rng: random_scenario_with_dims((2, 2), (2, 2), rng),
    "qubits-n3": lambda rng: random_scenario_with_dims((2,) * 3, (2,) * 3, rng),
    "qubits-n4": lambda rng: random_scenario_with_dims((2,) * 4, (2,) * 4, rng),
    "dims-23-42": lambda rng: random_scenario_with_dims((2, 3), (4, 2), rng),
    "dims-32-23": lambda rng: random_scenario_with_dims((3, 2), (2, 3), rng),
    "dims-222-322": lambda rng: random_scenario_with_dims((2, 2, 2), (3, 2, 2), rng),
}


def reference_for(scen, rng):
    """Reference effects on N qubits, one per e = 1 outcome of the scenario."""
    n, k = scen.n_parties, scen.eve[1].outcome_count
    if k == 2**n:
        return ghz_basis_measurement(n).effects
    return tuple(random_projective_measurement(2**n, [1] * (k - 1) + [2**n - k + 1], rng))


@pytest.mark.parametrize("mode", [None, "projective", "povm"])
@pytest.mark.parametrize("name", list(SCENARIOS))
@pytest.mark.parametrize("model", sorted(NOISE_MODELS))
def test_noise_scan_matches_per_level_oracle(model, name, mode, rng):
    scen = SCENARIOS[name](rng)
    kwargs = {}
    if mode is not None:
        kwargs = {"reference_effects": reference_for(scen, rng), "mode": mode}
    assert_same_scan(noise_scan(scen, model, GRID, **kwargs),
                     noise_scan_oracle(scen, model, GRID, **kwargs))


@pytest.mark.parametrize("mode", [None, "projective", "povm"])
@pytest.mark.parametrize("name", list(SCENARIOS))
@pytest.mark.parametrize("model", sorted(NOISE_MODELS))
def test_noise_scan_matches_per_level_oracle_one_entry_chunks(one_entry_chunks, model, name,
                                                              mode, rng):
    test_noise_scan_matches_per_level_oracle(model, name, mode, rng)


@pytest.mark.parametrize("mode", [None, "povm"])
@pytest.mark.parametrize("make", [ghz_scenario, zero_effect_scenario],
                         ids=["ghz-n3", "zero-effect-n3"])
@pytest.mark.parametrize("model", sorted(NOISE_MODELS))
def test_noise_scan_41_levels_over_several_chunks(model, make, mode, rng, monkeypatch):
    scen = make(3)
    outcomes = scen.eve[0].outcome_count + scen.eve[1].outcome_count
    if model == "effects":
        # a chunk holds _CHUNK_ENTRIES coefficient entries, 4^3 per outcome and
        # level: 64 levels by default, so narrow it to keep several chunks
        monkeypatch.setattr(certify_module, "_CHUNK_ENTRIES", certify_module._CHUNK_ENTRIES // 4)
        levels_per_chunk = certify_module._CHUNK_ENTRIES // (4**3 * outcomes)
    else:
        levels_per_chunk = starcert.network._CHUNK_ENTRIES // (6**3 * outcomes)
    assert 1 < levels_per_chunk < len(GRID_41)
    kwargs = {}
    if mode is not None:
        kwargs = {"reference_effects": reference_for(scen, rng), "mode": mode}
    assert_same_scan(noise_scan(scen, model, GRID_41, **kwargs),
                     noise_scan_oracle(scen, model, GRID_41, **kwargs))


def test_effects_scan_contracts_as_often_for_5_levels_as_for_41(monkeypatch):
    calls = []

    def counted(contract):
        def contracting(*args):
            calls.append(contract.__name__)
            return contract(*args)
        return contracting

    for name in ("_correlators", "_contract_parties"):
        monkeypatch.setattr(certify_module, name, counted(getattr(certify_module, name)))
    counts = []
    for grid in (GRID_41[::10], GRID_41):
        calls.clear()
        noise_scan(ghz_scenario(3), "effects", grid)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("mode", [None, "povm"])
def test_isotropic_scan_mixes_only_the_steering_maps(mode, rng, monkeypatch):
    # Eve's coefficients and extremes reach every check as one level that all levels share
    calls, check = [], certify_module._check_factors

    def recording(coeffs, w_maps, tol, spectra=None):
        calls.append(([len(c) for c in coeffs] + [len(r) for r in spectra[1:]],
                      {len(w) for w in w_maps} | {len(spectra[0])}))
        return check(coeffs, w_maps, tol, spectra)

    monkeypatch.setattr(certify_module, "_check_factors", recording)
    scen = ghz_scenario(3)
    kwargs = {} if mode is None else {"reference_effects": reference_for(scen, rng), "mode": mode}
    noise_scan(scen, "isotropic", GRID_41, **kwargs)
    assert len(calls) > 1
    assert all(shared == [1] * 4 for shared, _ in calls)
    assert all(len(mixed) == 1 for _, mixed in calls)
    assert sum(mixed.pop() for _, mixed in calls) == len(GRID_41)


@pytest.mark.parametrize("mode", [None, "povm"])
def test_effects_scan_matches_oracle_at_n4_over_41_levels(mode, rng):
    # (K_0 + K_1) 4^4 = 8192 coefficient entries per level: 8 levels per chunk
    scen = ghz_scenario(4)
    kwargs = {}
    if mode is not None:
        kwargs = {"reference_effects": reference_for(scen, rng), "mode": mode}
    assert_same_scan(noise_scan(scen, "effects", GRID_41, **kwargs),
                     noise_scan_oracle(scen, "effects", GRID_41, **kwargs))


@pytest.mark.parametrize("mode", [None, "projective", "povm"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_effects_scan_without_either_end_matches_oracle(name, mode, rng):
    scen, grid = SCENARIOS[name](rng), (0.7, 0.2)
    kwargs = {}
    if mode is not None:
        kwargs = {"reference_effects": reference_for(scen, rng), "mode": mode}
    assert_same_scan(noise_scan(scen, "effects", grid, **kwargs),
                     noise_scan_oracle(scen, "effects", grid, **kwargs))


@pytest.mark.parametrize("mode", [None, "povm"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_effects_scan_streams_like_oracle_when_no_bound_clears(name, mode, rng, monkeypatch):
    streamed, least = [], network._least_entries

    def counted(c, w_maps):
        streamed.append(len(c))
        return least(c, w_maps)

    monkeypatch.setattr(network, "_lower_bounds",
                        lambda w_maps, spectra: [np.full(len(r), -np.inf) for r in spectra[1:]])
    monkeypatch.setattr(network, "_least_entries", counted)
    scen = SCENARIOS[name](rng)
    kwargs = {}
    if mode is not None:
        kwargs = {"reference_effects": reference_for(scen, rng), "mode": mode}
    report = noise_scan(scen, "effects", GRID, **kwargs)
    assert sum(streamed) == 2 * len(GRID)  # every level, both Eve inputs
    assert_same_scan(report, noise_scan_oracle(scen, "effects", GRID, **kwargs))


@pytest.mark.parametrize("mode", [None, "povm"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_effects_scan_streams_like_oracle_when_no_bound_clears_one_entry_chunks(
        one_entry_chunks, name, mode, rng, monkeypatch):
    test_effects_scan_streams_like_oracle_when_no_bound_clears(name, mode, rng, monkeypatch)


@pytest.mark.parametrize("model", sorted(NOISE_MODELS))
def test_noise_scan_raises_like_oracle_under_tight_tolerance(model):
    scen, tol = ghz_scenario(3), Tolerances(structural=1e-17)
    with pytest.raises(StarcertError) as expected:
        noise_scan_oracle(scen, model, GRID_41, tol=tol)
    with pytest.raises(expected.type) as raised:
        noise_scan(scen, model, GRID_41, tol=tol)
    assert str(raised.value) == str(expected.value)
    # both routes share the table checks, so pin the error of the first level too
    assert str(expected.value) == "probabilities for e=0 do not sum to 1 per input"


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]),
       model=st.sampled_from(sorted(NOISE_MODELS)), v=st.floats(0.0, 1.0))
def test_noise_scan_level_matches_oracle(seed, n, model, v):
    scen = random_scenario(n, np.random.default_rng(seed))
    assert_same_scan(noise_scan(scen, model, [v]), noise_scan_oracle(scen, model, [v]))


# N = 2 and 3: qubits and the three non-qubit dimension sets
END_SCENARIOS = ("qubits-n2", "qubits-n3", "dims-23-42", "dims-32-23", "dims-222-322")


def rank_one_eve(scen, rng):
    """The scenario with rank-one Eve measurements: e = 1 always, e = 0 when it fits (qubits)."""
    d, n = scen.eve[0].dim, scen.n_parties
    eve0 = Povm.rank_one(random_unitary(d, rng)) if d == 2**n else scen.eve[0]
    return replace(scen, eve=(eve0, random_rank1_extremal_povm(d, d + 1, rng)))


@pytest.mark.parametrize("rank_one", [False, True], ids=["dense", "rank-one"])
@pytest.mark.parametrize("name", END_SCENARIOS)
@pytest.mark.parametrize("model", sorted(NOISE_MODELS))
def test_each_reader_builds_the_expanded_v0_image(model, name, rank_one, rng, monkeypatch):
    scen = SCENARIOS[name](rng)
    if rank_one:
        scen = rank_one_eve(scen, rng)
    # a scan on the grid [0.0] checks its reader's v = 0 end, one level in one chunk;
    # _check_factors hands on to network's _check_levels, the effects reader calls it itself
    calls, check = [], network._check_levels

    def recording(tol, w_maps, spectra, stack, pbars, alices):
        calls.append(([stack(e) for e in range(len(pbars))], w_maps, spectra))
        return check(tol, w_maps, spectra, stack, pbars, alices)

    for module in (network, certify_module):
        monkeypatch.setattr(module, "_check_levels", recording)
    noise_scan(scen, model, [0.0])
    (got,) = calls
    expected = _born_factors(NOISE_MODELS[model](scen, 0.0))
    # coefficients, steering maps and spectra, item by item, each of one level
    for items, want in zip(got, expected, strict=True):
        for a, b in zip(items, want, strict=True):
            assert a.shape == (1,) + b.shape
            npt.assert_allclose(a[0], b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("model", sorted(NOISE_MODELS))
def test_noise_scan_expands_once_and_builds_no_scenario(model, monkeypatch):
    certify, built = importlib.import_module("starcert.certify"), []
    expand, check_scenario = certify._born_factors, Scenario.__post_init__
    povm_init = Povm.__init__

    def counted_expand(scenario):
        built.append("expansion")
        return expand(scenario)

    def counted_scenario(self):
        built.append("Scenario")
        check_scenario(self)

    def counted_povm(self, *args, **kwargs):
        built.append("Povm")
        povm_init(self, *args, **kwargs)

    scen = ghz_scenario(3)
    monkeypatch.setattr(certify, "_born_factors", counted_expand)
    monkeypatch.setattr(Scenario, "__post_init__", counted_scenario)
    monkeypatch.setattr(Povm, "__init__", counted_povm)
    noise_scan(scen, model, GRID_41)
    assert built == ["expansion"]


def rotate_eve(scen, rng):
    """The scenario with a random unitary U_i on each Eve factor, of the sources and the effects.

    Source i becomes (1 (x) U_i) rho_i (1 (x) U_i)^dagger and each effect
    U R U^dagger with U the product of the U_i; the Born table stays.
    """
    us = [random_unitary(d, rng) for d in scen.eve_dims]
    sources = tuple(
        g @ rho @ g.conj().T
        for rho, g in ((rho, np.kron(np.eye(d_a), u))
                       for rho, d_a, u in zip(scen.sources, scen.alice_dims, us)))
    u = kron_all(us)
    eve = tuple(Povm.rank_one(m.vectors @ u.T) if m.vectors is not None
                else Povm(u @ m.effects @ u.conj().T) for m in scen.eve)
    return replace(scen, sources=sources, eve=eve)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(END_SCENARIOS + ("ghz-n3",)),
       model=st.sampled_from(sorted(NOISE_MODELS)), mode=st.sampled_from([None, "povm"]))
def test_noise_scan_is_invariant_under_unitaries_on_eve_factors(seed, name, model, mode):
    rng = np.random.default_rng(seed)
    scen = SCENARIOS[name](rng)
    kwargs = {}
    if mode is not None:
        kwargs = {"reference_effects": reference_for(scen, rng), "mode": mode}
    assert_same_scan(noise_scan(rotate_eve(scen, rng), model, GRID, **kwargs),
                     noise_scan(scen, model, GRID, **kwargs))


def rotate_alice(scen, rng):
    """The scenario with a random unitary U on one Alice factor, of its source and its observables.

    Source i becomes (U (x) 1) rho_i (U (x) 1)^dagger and each A_j becomes
    U A_j U^dagger, so every steering operator, and the Born table, stays.
    """
    i = int(rng.integers(scen.n_parties))
    u = random_unitary(scen.alice_dims[i], rng)
    g = np.kron(u, np.eye(scen.eve_dims[i]))
    sources, triples = list(scen.sources), list(scen.alice_observables)
    sources[i] = g @ sources[i] @ g.conj().T
    triples[i] = BinaryObservableTriple(*(u @ a @ u.conj().T for a in triples[i].observables()))
    return replace(scen, sources=tuple(sources), alice_observables=tuple(triples))


@pytest.mark.parametrize("mode", [None, "povm"])
@pytest.mark.parametrize("model", sorted(NOISE_MODELS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(END_SCENARIOS + ("ghz-n3",)))
def test_scan_and_certify_are_invariant_under_a_unitary_on_an_alice_factor(model, mode, seed,
                                                                          name):
    rng = np.random.default_rng(seed)
    scen = SCENARIOS[name](rng)
    reference = None if mode is None else reference_for(scen, rng)
    rotated = rotate_alice(scen, rng)
    kwargs = {} if mode is None else {"reference_effects": reference, "mode": mode}
    assert_same_scan(noise_scan(rotated, model, GRID, **kwargs),
                     noise_scan(scen, model, GRID, **kwargs))
    got, want = (certify(s, reference, "povm") for s in (rotated, scen))
    values = [r.part1.bell_values for r in (got, want)]
    npt.assert_array_equal(np.isnan(values[0]), np.isnan(values[1]))
    npt.assert_allclose(values[0], values[1], rtol=0, atol=1e-12)
    if mode is not None:
        for a, b in ((got.part2.residuals_plain, want.part2.residuals_plain),
                     (got.part2.residuals_conjugate, want.part2.residuals_conjugate)):
            npt.assert_allclose(a, b, rtol=0, atol=1e-12)
