import itertools
import re

import numpy as np
import numpy.testing as npt
import pytest

from conftest import expansion_measurements
from starcert.bell import BellOutcomeLabel, all_labels, ghz_vector
from starcert.config import Tolerances
from starcert.errors import ContractViolation, DimensionError, ValidationError
from starcert.fixtures import fixture_path
from starcert.network import _FACTOR_SLACK
from starcert.jsonio import (
    load_mixed_state_spec,
    load_povm,
    mixed_state_spec_from_json,
    mixed_state_spec_to_json,
    povm_from_json,
    povm_to_json,
)
from starcert.measurements import (
    MixedStateSpec,
    PauliCoeffTensor,
    Povm,
    embed_projective,
    embed_rank1_povm,
    ghz_basis_measurement,
    is_extremal_rank1,
    pauli_coeffs,
    reconstruct_from_coeffs,
    trine_povm,
    trine_preparation_outcomes,
    _conjugation_signs,
    _pauli_expansion,
    _rank_one_factor,
)
from starcert.presets import (
    random_hermitian,
    random_mixed_state_spec,
    random_povm,
    random_rank1_extremal_povm,
    symmetric_trine_qubit_povm,
)
from starcert.tensor import ID2, PAULI_X, PAULI_Y, PAULI_Z, kron_all, require_hermitian


def test_pauli_convention():
    # index order is Z, X, Y, identity
    f = pauli_coeffs(PAULI_Z, 1)
    npt.assert_allclose(f.coeffs, [1, 0, 0, 0], atol=1e-12)
    f = pauli_coeffs(PAULI_Y, 1)
    npt.assert_allclose(f.coeffs, [0, 0, 1, 0], atol=1e-12)


def test_pauli_round_trip(rng):
    for n in (1, 2, 3):
        for _ in range(5):
            m = random_hermitian(2**n, rng)
            npt.assert_allclose(
                reconstruct_from_coeffs(pauli_coeffs(m, n)), m, atol=1e-10
            )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_coeffs_match_dense_traces(n, rng):
    basis = (PAULI_Z, PAULI_X, PAULI_Y, ID2)
    for _ in range(3):
        m = random_hermitian(2**n, rng)
        got = pauli_coeffs(m, n).coeffs
        for idx in itertools.product(range(4), repeat=n):
            sigma = kron_all([basis[j] for j in idx])
            expected = np.trace(sigma @ m).real / 2**n
            assert got[idx] == pytest.approx(expected, abs=1e-12)


def test_identity_coefficients():
    f = pauli_coeffs(np.eye(4), 2)
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    npt.assert_allclose(f.coeffs, expected, atol=1e-12)


def test_conjugated_tensor_matches_conjugated_matrix(rng):
    m = random_hermitian(4, rng)
    f = pauli_coeffs(m, 2)
    g = pauli_coeffs(np.conj(m), 2)
    npt.assert_allclose(f.conjugated().coeffs, g.coeffs, atol=1e-12)


def _per_matrix_pauli_coeffs(m, n):
    """One matrix's expansion, one tensordot per qubit: the reference for the stacked sweep."""
    basis = np.stack((PAULI_Z, PAULI_X, PAULI_Y, ID2))
    t = np.asarray(m, dtype=complex).reshape((2,) * (2 * n))
    for remaining in range(n, 0, -1):
        t = np.tensordot(t, basis, axes=([0, remaining], [2, 1]))
    return t.real / 2**n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_stack_rows_match_pauli_coeffs_bit_for_bit(n, rng):
    # stacks, dense and rank-one Povms, with K around a chunk boundary
    for k, kind, meas, effects in expansion_measurements(2**n, rng):
        rows = _pauli_expansion(meas, n)
        assert rows.shape == (k,) + (4,) * n
        want = np.array([_per_matrix_pauli_coeffs(m, n) for m in effects])
        assert np.array_equal(rows, want), (k, kind)
    for m in effects[:3]:
        assert np.array_equal(pauli_coeffs(m, n).coeffs, _per_matrix_pauli_coeffs(m, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_conjugation_signs_are_one_cached_read_only_tensor(n):
    loop = np.ones((4,) * n)
    for axis in range(n):
        sl = [slice(None)] * n
        sl[axis] = 2
        loop[tuple(sl)] *= -1
    signs = _conjugation_signs(n)
    assert np.array_equal(signs, loop)
    assert _conjugation_signs(n) is signs
    with pytest.raises(ValueError, match="read-only"):
        signs[(0,) * n] = 0.0


def test_coeff_tensor_shape_check():
    with pytest.raises(DimensionError):
        PauliCoeffTensor(2, np.zeros((4, 3)))


def test_ghz_basis_measurement_is_complete_rank_one():
    for n in (2, 3):
        povm = ghz_basis_measurement(n)
        assert povm.outcome_count == 2**n
        Povm(povm.effects)  # a complete measurement, dense too
        v = ghz_vector(BellOutcomeLabel.from_value(1, n))
        npt.assert_allclose(povm.effects[1], np.outer(v, v.conj()), atol=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_ghz_basis_is_the_ghz_vector_of_each_label_bit_for_bit(n):
    # built in one vectorized step, it equals the label-by-label construction
    want = np.array([ghz_vector(label) for label in all_labels(n)])
    assert ghz_basis_measurement(n).vectors.tobytes() == want.tobytes()


def test_povm_rejects_incomplete():
    with pytest.raises(ValidationError, match=r"^invalid POVM: completeness residual 7\.071e-01 "
                       r"\(tolerance 1\.0e-10\)$"):
        Povm((np.eye(2) / 2,))


def test_povm_names_its_first_negative_effect():
    with pytest.raises(ValidationError, match=r"^invalid POVM: effect 1: Hermiticity defect "
                       r"0\.000e\+00, min eigenvalue -2\.000e-01 \(tolerance 1\.0e-10\)$"):
        Povm((np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])))


def test_povm_names_its_first_non_hermitian_effect():
    # complete, but each effect is off Hermitian by ||M - M^dagger|| = 0.1 sqrt2
    skew = np.array([[0.0, 0.1], [0.0, 0.0]])
    with pytest.raises(ValidationError,
                       match=r"^invalid POVM: effect 0: Hermiticity defect 1\.414e-01, "):
        Povm((np.diag([1.0, 0.0]) + skew, np.diag([0.0, 1.0]) - skew))
    Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))


def test_povm_checks_completeness_after_every_effect():
    # incomplete as well, but a faulty effect is named first
    with pytest.raises(ValidationError, match=r"^invalid POVM: effect 1: .*min eigenvalue -1\."):
        Povm((np.eye(2) / 2, -np.eye(2)))


def test_embed_projective_complement():
    effects = [np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    povm = embed_projective(effects, 2)
    assert povm.outcome_count == 3
    npt.assert_allclose(povm.effects[2], np.diag([0.0, 0.0, 0.0, 1.0]), atol=1e-12)


def test_embed_projective_rejects_no_effects():
    with pytest.raises(DimensionError, match="^need at least one effect$"):
        embed_projective([], 2)


def test_embed_projective_omits_zero_complement():
    effects = [np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0, 1.0])]
    assert embed_projective(effects, 2).outcome_count == 2


def test_embed_projective_rejects_nonprojection():
    with pytest.raises(ContractViolation):
        embed_projective([np.diag([0.5, 0.5])], 2)


def test_embed_projective_rejects_overlap():
    p = np.diag([1.0, 0.0])
    with pytest.raises(ContractViolation):
        embed_projective([p, p], 2)


def test_embed_rank1_povm_completes_with_projectors(rng):
    base = random_rank1_extremal_povm(3, 5, rng)
    povm = embed_rank1_povm(base, 2)
    assert povm.outcome_count == 6  # 5 + (4 - 3) complement outcomes
    Povm(povm.effects)  # a complete measurement, dense too
    extra = povm.effects[5]
    npt.assert_allclose(extra @ extra, extra, atol=1e-10)  # projector
    # complement is orthogonal to the embedded block
    assert np.linalg.norm(extra[:3, :3]) < 1e-10


def test_embed_rank1_deterministic_phases(rng):
    base = random_rank1_extremal_povm(3, 5, rng)
    a = embed_rank1_povm(base, 2)
    b = embed_rank1_povm(base, 2)
    for ma, mb in zip(a.effects, b.effects):
        npt.assert_allclose(ma, mb)


def test_is_extremal_rank1_true_cases(rng):
    assert is_extremal_rank1(symmetric_trine_qubit_povm()).extremal
    assert is_extremal_rank1(random_rank1_extremal_povm(2, 4, rng)).extremal


def test_is_extremal_rank1_false_on_dependent():
    e0 = np.diag([0.5, 0.0])
    e1 = np.diag([0.0, 0.5])
    povm = Povm((e0, e0, e1, e1))
    cert = is_extremal_rank1(povm)
    assert not cert.extremal
    assert cert.gram_min_eigenvalue < 1e-8


def test_is_extremal_rank1_rejects_higher_rank():
    povm = Povm((np.eye(2) / 2, np.eye(2) / 2))
    with pytest.raises(ContractViolation, match="effect 0"):
        is_extremal_rank1(povm)


def test_rank_one_check_names_the_first_faulty_effect():
    # effect 1 is zero, effect 2 is not rank-one: effect 1 is the first fault
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    povm = Povm((p0 / 2, np.zeros((2, 2)), np.eye(2) / 2, p1 / 2))
    for check in (is_extremal_rank1, lambda p: embed_rank1_povm(p, 2)):
        with pytest.raises(ContractViolation, match=r"^effect 1 is numerically zero$"):
            check(povm)


def test_is_extremal_rank1_rechecks_a_loosely_validated_dense_povm():
    # a Hermiticity defect of 1e-8: within the Povm's own 1e-6, beyond the default 1e-10
    effects = np.array(symmetric_trine_qubit_povm().effects)
    effects[0, 0, 1] += 1e-8 / np.sqrt(2)
    povm = Povm(effects, Tolerances(structural=1e-6))
    with pytest.raises(ContractViolation, match=r"^matrix is not Hermitian \(defect 1\.000e-08"):
        is_extremal_rank1(povm)
    assert is_extremal_rank1(povm, Tolerances(structural=1e-6)).extremal


def _per_effect_rank_one_factor(povm):
    """The factor through one checked eigendecomposition per effect, top eigenvector first."""
    rows = []
    for m in povm.effects:
        require_hermitian(m)
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        order = np.argsort(vals)[::-1]
        rows.append(np.sqrt(max(vals[order][0], 0.0)) * vecs[:, order][:, 0])
    return np.array(rows)


@pytest.mark.parametrize("seed", range(20))
def test_rank_one_factor_of_a_dense_povm_matches_one_effect_at_a_time(seed):
    rng = np.random.default_rng([19, seed])
    d = int(rng.integers(2, 5))
    povm = Povm(random_rank1_extremal_povm(d, int(rng.integers(d, d * d + 1)), rng).effects)
    assert povm.vectors is None
    assert _rank_one_factor(povm).tobytes() == _per_effect_rank_one_factor(povm).tobytes()


def test_mixed_state_spec_validation():
    v0 = np.array([1.0, 0.0])
    v1 = np.array([0.0, 1.0])
    MixedStateSpec(2, (0.5, 0.5), (v0, v1))
    with pytest.raises(ValidationError):
        MixedStateSpec(2, (0.5, 0.4), (v0, v1))
    with pytest.raises(ValidationError):
        MixedStateSpec(2, (0.5, 0.5), (v0, v0))
    with pytest.raises(ValidationError):
        MixedStateSpec(2, (1.5, -0.5), (v0, v1))


def test_mixed_state_spec_rejects_weights_just_off_one():
    with pytest.raises(ValidationError, match=r"^weights sum to 1\.000001, expected 1$"):
        MixedStateSpec(1, (1 + 1e-6,), ([1],))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_mixed_state_spec_rejects_non_finite_weights(bad):
    v0 = np.array([1.0, 0.0])
    v1 = np.array([0.0, 1.0])
    with pytest.raises(ValidationError, match="finite"):
        MixedStateSpec(2, (bad, 0.5), (v0, v1))


def test_trine_povm_structure(rng):
    spec = random_mixed_state_spec(2, rng)
    povm = trine_povm(spec)
    assert povm.dim == 4
    assert povm.outcome_count == 6
    Povm(povm.effects)  # a complete measurement, dense too
    assert is_extremal_rank1(povm).extremal
    # the (k, 1) effects carry the spectral decomposition of the target
    for k, l in enumerate(trine_preparation_outcomes(spec)):
        psi = np.concatenate([spec.vectors[k], np.zeros(2)])
        npt.assert_allclose(
            povm.effects[l], spec.weights[k] * np.outer(psi, psi.conj()), atol=1e-12
        )


def test_trine_povm_per_component_subtotal(rng):
    # the three effects of one component resolve the 2D block it spans
    spec = random_mixed_state_spec(3, rng)
    povm = trine_povm(spec)
    for k in range(3):
        sub = sum(povm.effects[3 * k + j] for j in range(3))
        psi = np.concatenate([spec.vectors[k], np.zeros(3)])
        phi = np.concatenate([np.zeros(3), spec.vectors[k]])
        expected = np.outer(psi, psi.conj()) + np.outer(phi, phi.conj())
        npt.assert_allclose(sub, expected, atol=1e-10)


def test_trine_povm_rejects_degenerate_specs():
    v0 = np.array([1.0, 0.0])
    # rank 1 < d: not full rank
    with pytest.raises(ValidationError, match="full-rank"):
        trine_povm(MixedStateSpec(2, (1.0,), (v0,)))


def test_povm_json_round_trip(tmp_path, rng):
    povm = random_rank1_extremal_povm(2, 4, rng)
    doc = povm_to_json(povm)
    loaded = povm_from_json(doc)
    for a, b in zip(loaded.effects, povm.effects):
        npt.assert_allclose(a, b)
    path = tmp_path / "p.json"
    path.write_text(__import__("json").dumps(doc))
    assert load_povm(path).outcome_count == 4


def test_povm_from_json_rejects_invalid():
    with pytest.raises(ValidationError):
        povm_from_json({"dim": 2, "effects": []})


def test_mixed_state_spec_json_round_trip(tmp_path, rng):
    spec = random_mixed_state_spec(3, rng)
    doc = mixed_state_spec_to_json(spec)
    loaded = mixed_state_spec_from_json(doc)
    npt.assert_allclose(loaded.density_matrix(), spec.density_matrix(), atol=1e-12)
    path = tmp_path / "s.json"
    path.write_text(__import__("json").dumps(doc))
    assert load_mixed_state_spec(path).d == 3


def test_mixed_state_spec_json_missing_field():
    with pytest.raises(ValidationError, match="weights"):
        mixed_state_spec_from_json({"d": 2, "vectors": []})


@pytest.mark.parametrize("build", [
    lambda rng: random_povm(3, 4, rng),
    lambda rng: random_rank1_extremal_povm(2, 3, rng),
])
def test_effects_is_one_read_only_stack(build, rng):
    povm = build(rng)
    effects = povm.effects
    assert isinstance(effects, np.ndarray)
    assert effects.shape == (povm.outcome_count, povm.dim, povm.dim)
    assert povm.effects is effects
    with pytest.raises(ValueError, match="read-only"):
        effects[0, 0, 0] = 0.0


MIXED_DEMO = fixture_path("mixed_demo.statespec.json")


def _dense_rank_one(case):
    """The dense effects (K, d, d) of a rank-one ``Povm``, as a file would hold them."""
    kind, arg = case
    if kind == "ghz":
        povm = ghz_basis_measurement(arg)
    elif kind == "trine":
        povm = embed_rank1_povm(trine_povm(load_mixed_state_spec(MIXED_DEMO)), arg)
    else:
        d, k = arg
        povm = random_rank1_extremal_povm(d, k, np.random.default_rng([30, d, k]))
    return np.array(povm.effects)


def _eigvalsh_calls(monkeypatch):
    calls, eigvalsh = [], np.linalg.eigvalsh

    def spy(*args, **kwargs):
        calls.append(args)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


DENSE_RANK_ONE = ([("ghz", n) for n in range(2, 8)] + [("trine", n) for n in (2, 3, 4)]
                  + [("random", dk) for dk in ((2, 2), (2, 4), (3, 7), (8, 8), (16, 20))])


@pytest.mark.parametrize("case", DENSE_RANK_ONE, ids=str)
def test_dense_rank_one_effects_are_validated_from_their_factor(case, monkeypatch):
    effects = _dense_rank_one(case)
    calls = _eigvalsh_calls(monkeypatch)
    povm = Povm(effects)
    assert calls == []
    assert povm.vectors is None and povm.effects.tobytes() == effects.tobytes()
    assert povm.spectrum.shape == (len(effects), 2) and not povm.spectrum.flags.writeable
    monkeypatch.undo()
    # each row within the stated _FACTOR_SLACK d u ||R|| of the least and the greatest
    # eigenvalue (eigvalsh errs too: one draw on C^3 differs by 2 ulps, 1.15 d u ||R||)
    exact = np.linalg.eigvalsh(effects)[:, [0, -1]]
    d, u = effects.shape[1], np.finfo(float).eps / 2
    norms = np.linalg.norm(effects, ord=2, axis=(1, 2))
    assert (np.abs(povm.spectrum - exact) <= _FACTOR_SLACK * d * u * norms[:, None]).all()
    assert (povm.spectrum[:, 0] == 0).all()


def _negative_effect():
    """(1 + a) P, -a P and 1 - P with P = v v^dagger: effect 1 is -a v v^dagger."""
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    p = np.outer(v, v)
    return (1.2 * p, -0.2 * p, np.eye(2) - p)


# (effects, the error or None): stacks that are not rank-one to rounding take the full spectrum
FULL_SPECTRUM = {
    "one-outcome-identity": (lambda: (np.eye(8, dtype=complex),), None),
    "rank-two-projective": (lambda: embed_projective([np.diag([1.0, 1.0, 0.0])], 2).effects, None),
    "rank-two-among-four": (lambda: (np.diag([1.0, 1.0, 0.0]) / 2, np.diag([0.5, 0.0, 0.0]),
                                     np.diag([0.0, 0.5, 0.0]), np.diag([0.0, 0.0, 1.0])), None),
    "zero-effect": (lambda: (np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.0, 1.0])), None),
    "negative-rank-one": (_negative_effect,
                          "invalid POVM: effect 1: Hermiticity defect 0.000e+00, "
                          "min eigenvalue -2.000e-01 (tolerance 1.0e-10)"),
}


@pytest.mark.parametrize("case", FULL_SPECTRUM)
def test_other_stacks_take_their_full_spectrum(case, monkeypatch):
    build, message = FULL_SPECTRUM[case]
    effects = build()
    calls = _eigvalsh_calls(monkeypatch)
    if message is None:
        povm = Povm(effects)
        assert povm.spectrum.shape == (povm.outcome_count, povm.dim)
    else:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Povm(effects)
    assert len(calls) == 1
