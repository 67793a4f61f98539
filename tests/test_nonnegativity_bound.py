"""Non-negativity of the Born table proved from validated spectra.

``born_table`` and ``noise_scan`` bound the least table entry from the
eigenvalues of the steering operators and of Eve's effects
(``network._lower_bounds``) and skip the streamed minimum
(``network._least_entries``) when that bound clears -``tol.probability``.
The bound must never exceed the streamed minimum; when it cannot clear, the
stream runs and raises exactly what it raised before.
"""

import contextlib
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_table_oracle, noise_scan_oracle, random_scenario_with_dims
from starcert.certify import NOISE_MODELS, certify, noise_scan
from starcert.config import Tolerances
from starcert.errors import ValidationError
from starcert.measurements import (
    Povm,
    embed_rank1_povm,
    ghz_basis_measurement,
    trine_povm,
)
from starcert.network import (
    BinaryObservableTriple,
    Scenario,
    _born_factors,
    _least_entries,
    _lower_bounds,
    born_table,
)
from starcert.presets import (
    ideal_scenario,
    random_dichotomic_observable,
    random_mixed_state_spec,
    random_povm,
    random_scenario,
)

from test_network import NON_QUBIT_DIMS
from test_noise_scan import assert_same_scan

network = importlib.import_module("starcert.network")
certify_module = importlib.import_module("starcert.certify")


def prepare_state_scenario(n, rng):
    """The scenario of ``prepare-state``: the ideal one with an embedded trine POVM."""
    trine = trine_povm(random_mixed_state_spec(2, rng))
    return ideal_scenario(n, eve_second=embed_rank1_povm(trine, n))


GUARDED = {
    "ideal-n3": lambda rng: ideal_scenario(3, eve_second=ghz_basis_measurement(3)),
    "prepare-state-n3": lambda rng: prepare_state_scenario(3, rng),
    "random-qubits-n3": lambda rng: random_scenario(3, rng),
    "random-a23-e42": lambda rng: random_scenario_with_dims((2, 3), (4, 2), rng),
}


def reference_for(scen, rng):
    return random_povm(2**scen.n_parties, scen.eve[1].outcome_count, rng).effects


@pytest.mark.parametrize("name", list(GUARDED))
def test_validated_scenarios_never_stream(name, monkeypatch, rng):
    def refuse(c, w_maps):
        raise AssertionError("the non-negativity stream ran")

    scen = GUARDED[name](rng)
    reference = reference_for(scen, rng)
    monkeypatch.setattr(network, "_least_entries", refuse)
    born_table(scen)
    for mode in ("projective", "povm"):
        certify(scen, reference, mode)
    for model in sorted(NOISE_MODELS):
        noise_scan(scen, model, [0.0, 0.25, 1.0], reference_effects=reference, mode="povm")


@contextlib.contextmanager
def counted_stream():
    """Record the levels each call of the non-negativity stream reads."""
    calls = []

    def counting(c, w_maps):
        low = _least_entries(c, w_maps)
        calls.append(len(low))
        return low

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_least_entries", counting)
        yield calls


@pytest.mark.parametrize("name", list(GUARDED))
def test_a_bound_that_cannot_clear_falls_back_to_the_stream(name, rng):
    # no rounding allowance is below 1e-300, so every bound falls short
    scen, tol = GUARDED[name](rng), Tolerances(probability=1e-300)
    with counted_stream() as calls:
        table = born_table(scen, tol)
    assert calls == [1, 1]
    coeffs, w_maps, _ = _born_factors(scen)
    tensors = dense_table_oracle(scen.n_parties, coeffs, w_maps, tol)[1]
    for e, tensor in enumerate(tensors):
        np.testing.assert_allclose(table.correlator_tensor(e), tensor, rtol=0, atol=1e-12)
    grid = [0.0, 0.5, 1.0]
    for model in sorted(NOISE_MODELS):
        with counted_stream() as calls:
            report = noise_scan(scen, model, grid, tol=tol)
        assert len(calls) == 2 and sum(calls) == 2 * len(grid)
        assert_same_scan(report, noise_scan_oracle(scen, model, grid, tol=tol))


def slightly_negative_scenario(eps):
    """An e = 1 effect with eigenvalue -eps, inside the POVM check's tolerance."""
    unit = np.diag([1.0, 0.0, 0.0, 0.0])
    return ideal_scenario(2, eve_second=(np.eye(4) + eps * unit, -eps * unit))


def test_negative_entries_raise_the_streamed_message():
    scen = slightly_negative_scenario(5e-11)
    coeffs, w_maps, _ = _born_factors(scen)
    with pytest.raises(ValidationError, match="negative probability") as expected:
        dense_table_oracle(2, coeffs, w_maps)
    with counted_stream() as calls, pytest.raises(ValidationError) as raised:
        born_table(scen)
    assert calls and str(raised.value) == str(expected.value)
    # the least entry, -0.213 eps, passes; the bound of e = 1, -eps / 4, cannot clear
    with counted_stream() as calls:
        born_table(slightly_negative_scenario(4.4e-12))
    assert calls == [1]


@contextlib.contextmanager
def recorded_checks():
    """Record the factors and spectra of every ``_check_levels`` call.

    The coefficient stacks are read at the call, since a scan builds its
    levels' stacks only on demand.
    """
    calls, check = [], network._check_levels

    def recording(tol, w_maps, spectra, stack, pbars, alices):
        calls.append(([stack(e) for e in range(len(pbars))], w_maps, spectra))
        return check(tol, w_maps, spectra, stack, pbars, alices)

    with pytest.MonkeyPatch.context() as mp:
        for module in (network, certify_module):
            mp.setattr(module, "_check_levels", recording)
        yield calls


def edge_scenario(alice_dims, eve_dims, eps, rng):
    """A scenario with zero table entries, pushed out of the PSD cone within tolerance.

    Each source is maximally entangled on the diagonal |k>|k>, each party's
    A_0 is diagonal and Eve's e = 0 measurement is the computational basis,
    so the x = 0 entries of mismatched outcomes vanish; A_1, A_2 and the
    e = 1 measurement are random.  Each source then gets the eigenvalue
    -eps[0] on |0>|1>, and the first e = 0 effect the eigenvalue -eps[1] on
    |1> (both keep trace and completeness), so the bound meets negative parts
    on either side of p = Tr[X R], or both.
    """
    eps_source, eps_effect = eps
    n = len(alice_dims)
    sources, triples = [], []
    for a, b in zip(alice_dims, eve_dims):
        psi = np.eye(a, b).reshape(-1) / np.sqrt(min(a, b))
        phi = np.eye(a * b)[1]
        sources.append((1 + eps_source) * np.outer(psi, psi)
                       - eps_source * np.outer(phi, phi))
        signs = rng.permutation([1.0, -1.0] + list(rng.choice([1.0, -1.0], a - 2)))
        triples.append(BinaryObservableTriple(np.diag(signs), random_dichotomic_observable(a, rng),
                                              random_dichotomic_observable(a, rng)))
    d_e = int(np.prod(eve_dims))
    units = np.eye(d_e)
    eve0 = [np.diag(u) for u in units[:2**n - 1]] + [np.diag(units[2**n - 1:].sum(axis=0))]
    eve0[0] = eve0[0] - eps_effect * np.diag(units[1])
    eve0[1] = (1 + eps_effect) * eve0[1]
    return Scenario(n_parties=n, sources=tuple(sources), alice_observables=tuple(triples),
                    eve=(Povm(tuple(eve0)), random_povm(d_e, 3, rng)))


DIMS = [((2,) * n, (2,) * n) for n in (2, 3)] + [p.values for p in NON_QUBIT_DIMS]
# an eigenvalue -eps inside the validation tolerance 1e-10, or none
EPS = st.one_of(st.just(0.0), st.floats(1e-13, 5e-11))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from(DIMS),
       eps=st.one_of(st.none(), st.tuples(EPS, EPS)),
       model=st.sampled_from(sorted(NOISE_MODELS)),
       levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_bound_never_exceeds_the_streamed_minimum(seed, dims, eps, model, levels):
    # eps None: a generic random scenario, whose entries stay clear of zero
    rng = np.random.default_rng(seed)
    scen = random_scenario_with_dims(*dims, rng) if eps is None else edge_scenario(*dims, eps, rng)
    with recorded_checks() as calls:
        for run in (lambda: born_table(scen), lambda: noise_scan(scen, model, levels)):
            with contextlib.suppress(ValidationError):  # a negative entry the stream found
                run()
    assert len(calls) >= 2
    for coeffs, w_maps, spectra in calls:
        for c, bound in zip(coeffs, _lower_bounds(w_maps, spectra)):
            assert (bound <= _least_entries(c, w_maps)).all()


def test_bound_is_tight_for_a_rank_one_measurement():
    # only rounding keeps the ideal bound from zero
    scen = ideal_scenario(4, eve_second=ghz_basis_measurement(4))
    coeffs, w_maps, spectra = _born_factors(scen)
    for bound in _lower_bounds(w_maps, [s[None] for s in spectra]):
        assert -1e-14 < bound[0] <= 0.0


def test_rank_one_extremes_are_zero_and_the_squared_norm():
    povm = Povm.rank_one(np.sqrt(0.5) * np.array([[1, 1j], [1, -1j]]))
    np.testing.assert_allclose(povm.extreme_eigenvalues, [[0.0, 1.0], [0.0, 1.0]], atol=1e-15)
    assert not povm.extreme_eigenvalues.flags.writeable


def test_dense_extremes_belong_to_a_read_only_copy_of_the_effects():
    effects = [np.diag([0.75, 0.25]), np.diag([0.25, 0.75])]
    povm = Povm(effects)
    effects[0][0, 0] = -5.0  # the caller's array, not the Povm's
    np.testing.assert_array_equal(povm.effects[0], np.diag([0.75, 0.25]))
    np.testing.assert_allclose(povm.extreme_eigenvalues, [[0.25, 0.75]] * 2, atol=1e-15)
    assert not (povm.effects[0].flags.writeable or povm.extreme_eigenvalues.flags.writeable)
