"""Rank-one measurements held as a factor V (K, d) with R_l = v_l v_l^dagger.

A ``Povm`` built from V must report what the dense ``Povm`` of its effects
v_l v_l^dagger reports, through every check; V is validated by finiteness
and completeness alone, and ``prepare-state`` never builds the dense effects.
"""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcert import cli
from starcert.certify import certify, noise_scan, post_measurement_state
from starcert.errors import ContractViolation, DimensionError, ValidationError
from starcert.fixtures import fixture_path
from starcert.measurements import (
    MixedStateSpec,
    Povm,
    embed_rank1_povm,
    ghz_basis_measurement,
    is_extremal_rank1,
    trine_povm,
)
from starcert.network import Scenario
from starcert.presets import (
    conjugate_scenario,
    ideal_scenario,
    random_density_matrix,
    random_mixed_state_spec,
    random_observable_triple,
    random_povm,
    random_projective_measurement,
    random_rank1_extremal_povm,
)

MIXED_SPEC = str(fixture_path("mixed_demo.statespec.json"))


def dense_twin(povm: Povm) -> Povm:
    """The dense Povm of the outer products v_l v_l^dagger."""
    return Povm(tuple(np.outer(v, v.conj()) for v in povm.vectors), povm.tol)


def assert_close(a, b, where="report"):
    """Floats within 1e-12 with NaN in the same places; everything else equal."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            assert_close(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert math.isnan(a) == math.isnan(b), where
        if not math.isnan(a):
            assert abs(a - b) <= 1e-12, f"{where}: {a} vs {b}"
    else:
        assert a == b, where


def outcome(run, *args, **kwargs):
    """What ``run`` returns, or the message of the ``ContractViolation`` it raises.

    A random reference effect can hold an eigenvalue too close to the rank
    threshold to call; both forms must then raise the same error.
    """
    try:
        return run(*args, **kwargs)
    except ContractViolation as err:
        return ("ContractViolation", str(err))


def scenario_pair(n, eve_dims, rng):
    """A random scenario with a rank-one e = 1 measurement, held as V and held dense."""
    d_e = int(np.prod(eve_dims))
    ranks = [1] * (2**n - 1) + [d_e - 2**n + 1]
    fields = dict(
        n_parties=n,
        sources=tuple(random_density_matrix(2 * b, rng) for b in eve_dims),
        alice_observables=tuple(random_observable_triple(2, rng) for _ in eve_dims),
    )
    eve0 = Povm(tuple(random_projective_measurement(d_e, ranks, rng)))
    eve1 = random_rank1_extremal_povm(d_e, d_e + 1, rng)
    return (Scenario(eve=(eve0, eve1), **fields),
            Scenario(eve=(eve0, dense_twin(eve1)), **fields))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_vector_and_dense_povms_give_the_same_reports(seed, data):
    n = data.draw(st.sampled_from([2, 3]), label="n")
    eve_dims = data.draw(st.lists(st.sampled_from([2, 3]), min_size=n, max_size=n),
                         label="eve_dims")
    rng = np.random.default_rng(seed)
    vec, dense = scenario_pair(n, eve_dims, rng)
    reference = random_povm(2**n, vec.eve[1].outcome_count, rng).effects
    for mode in ("projective", "povm"):
        assert_close(outcome(certify, vec, reference, mode),
                     outcome(certify, dense, reference, mode))
    for model in ("isotropic", "effects"):
        assert_close(outcome(noise_scan, vec, model, [0.0, 0.4, 1.0], reference_effects=reference),
                     outcome(noise_scan, dense, model, [0.0, 0.4, 1.0],
                             reference_effects=reference))
    for l in range(vec.eve[1].outcome_count):
        npt.assert_allclose(post_measurement_state(vec, l, 1),
                            post_measurement_state(dense, l, 1), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_trine_preparation_from_vectors_matches_dense(n, rng):
    spec = random_mixed_state_spec(2, rng)
    trine = embed_rank1_povm(trine_povm(spec), n)
    # steering transposes Eve's effects: parts 2 and 3 both match on the Conjugate branch
    vec = ideal_scenario(n, eve_second=trine)
    dense = ideal_scenario(n, eve_second=dense_twin(trine))
    for mode in ("projective", "povm"):
        got = certify(vec, trine.effects, mode, state_spec=spec)
        assert got.part3.passed and got.part3.branch.branch == "Conjugate"
        assert (got.verdict == "Certified") == (mode == "povm")  # the trine is not projective
        assert_close(got, certify(dense, trine.effects, mode, state_spec=spec))


@pytest.mark.parametrize("n", [2, 3])
def test_conjugation_keeps_rank_one_measurements(n, rng):
    spec = random_mixed_state_spec(2, rng)
    trine = embed_rank1_povm(trine_povm(spec), n)
    scen = ideal_scenario(n, eve_second=trine)
    conj = conjugate_scenario(scen)
    for meas, base in zip(conj.eve, scen.eve):
        npt.assert_array_equal(meas.vectors, np.conj(base.vectors))
    # the dense route: a Povm of the entrywise conjugate of every dense effect
    dense = dataclasses.replace(conj, eve=tuple(Povm(tuple(np.conj(m) for m in meas.effects))
                                                for meas in scen.eve))
    for mode in ("projective", "povm"):
        assert_close(certify(conj, trine.effects, mode, state_spec=spec),
                     certify(dense, trine.effects, mode, state_spec=spec))
    for model in ("isotropic", "effects"):
        assert_close(noise_scan(conj, model, [0.0, 0.4, 1.0], reference_effects=trine.effects),
                     noise_scan(dense, model, [0.0, 0.4, 1.0], reference_effects=trine.effects))


def test_effects_are_a_read_only_view_built_on_first_read(rng):
    povm = random_rank1_extremal_povm(3, 5, rng)
    assert povm._effects is None
    assert (povm.dim, povm.outcome_count) == (3, 5)
    assert povm._effects is None
    for v, m in zip(povm.vectors, povm.effects):
        npt.assert_array_equal(m, np.outer(v, v.conj()))
        assert not m.flags.writeable
    assert not povm.vectors.flags.writeable


def test_rank_one_builders_hold_vectors(rng):
    spec = random_mixed_state_spec(2, rng)
    for povm in (ghz_basis_measurement(3), trine_povm(spec), embed_rank1_povm(trine_povm(spec), 3),
                 random_rank1_extremal_povm(2, 3, rng)):
        assert povm.vectors is not None and povm._effects is None


def test_embedding_pads_the_factor_and_completes_it(rng):
    base = random_rank1_extremal_povm(3, 5, rng)
    povm = embed_rank1_povm(base, 3)
    npt.assert_array_equal(povm.vectors[:5, :3], base.vectors)
    npt.assert_array_equal(povm.vectors[:5, 3:], 0)
    # the unused basis vectors, last first: the completion the eigendecomposition used to pick
    npt.assert_array_equal(povm.vectors[5:], np.eye(8)[[7, 6, 5, 4, 3]])


def test_extremality_reads_the_same_gram_from_vectors_and_dense_effects(rng):
    for povm in (random_rank1_extremal_povm(2, 4, rng), trine_povm(random_mixed_state_spec(2, rng))):
        a, b = is_extremal_rank1(povm), is_extremal_rank1(dense_twin(povm))
        assert a.extremal and b.extremal
        assert a.gram_min_eigenvalue == pytest.approx(b.gram_min_eigenvalue, abs=1e-12)
    dependent = Povm.rank_one(np.sqrt(0.5) * np.array([[1, 0], [1, 0], [0, 1], [0, 1]]))
    assert not is_extremal_rank1(dependent).extremal


def test_incomplete_vectors_are_rejected():
    with pytest.raises(ValidationError, match=r"invalid POVM: .*completeness residual"):
        Povm.rank_one([[1.0, 0.0]])
    with pytest.raises(ValidationError, match=r"invalid POVM: .*completeness residual"):
        Povm.rank_one(np.eye(2) * (1 + 1e-6))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_vectors_are_rejected(bad):
    v = np.eye(2, dtype=complex)
    v[1, 0] = bad
    with pytest.raises(ContractViolation, match="NaN or Inf"):
        Povm.rank_one(v)


def test_vectors_must_be_a_matrix():
    with pytest.raises(DimensionError):
        Povm.rank_one([1.0, 0.0])


def test_mixed_state_spec_rejects_nan_vectors():
    with pytest.raises(ContractViolation, match="NaN or Inf"):
        MixedStateSpec(2, (0.5, 0.5), (np.array([np.nan, 0]), np.array([0, 1])))


def test_scenario_rejects_a_nan_pure_state_source():
    scen = ideal_scenario(2)
    phi = np.array([np.nan, 0, 0, 1])
    with pytest.raises(ContractViolation, match=r"sources\[0\]: state vector contains NaN"):
        Scenario(n_parties=2, sources=(phi, scen.sources[1]),
                 alice_observables=scen.alice_observables, eve=scen.eve)


def test_prepare_state_never_builds_dense_rank_one_effects(monkeypatch, capsys):
    dense_view = Povm.effects

    def guarded(self):
        assert self.vectors is None, "the dense effects of a rank-one measurement were built"
        return dense_view.fget(self)

    monkeypatch.setattr(Povm, "effects", property(guarded))
    for n in (3, 5):
        assert cli.main(["prepare-state", "--n", str(n), "--state-spec", MIXED_SPEC]) == 0
    assert "verdict: Certified" in capsys.readouterr().out
