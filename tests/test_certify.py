import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from starcert.bell import ghz_vector, quantum_bound, BellOutcomeLabel
from starcert.certify import (
    CERTIFIED,
    CONJUGATE,
    FAILED,
    INCONCLUSIVE,
    NO_BRANCH,
    PLAIN,
    Part1Report,
    Part2Report,
    _resolve_verdict,
    certify,
    certify_pure_preparation,
    certify_state_preparation,
    check_part1,
    check_part2,
    match_up_to_conjugation,
    noise_scan,
    post_measurement_state,
)
from starcert.config import DEFAULT_TOL, Tolerances
from starcert.errors import (
    ConditioningError,
    ContractViolation,
    DimensionError,
    StarcertError,
    ValidationError,
)
from starcert.fixtures import fixture_path
from starcert.jsonio import load_mixed_state_spec
from starcert.measurements import (
    MixedStateSpec,
    Povm,
    _embed_block,
    embed_projective,
    embed_rank1_povm,
    ghz_basis_measurement,
    pauli_coeffs,
    trine_povm,
)
from starcert.network import BinaryObservableTriple, CorrelationTable, Scenario, born_table
from starcert.tensor import hermitian_part, numerical_ranks
from starcert.presets import (
    conjugate_scenario,
    depolarize_one_source,
    depolarize_sources,
    flip_observable_sign,
    ideal_scenario,
    random_density_matrix,
    random_mixed_state_spec,
    random_povm,
    random_rank1_extremal_povm,
    swap_eve_effects,
)

from conftest import post_measurement_oracle, random_scenario_with_dims


def ghz_reference(n):
    return ghz_basis_measurement(n)


def ideal_with_reference(n, reference, conjugate=True):
    effects = reference.effects
    if conjugate:
        effects = tuple(np.conj(m) for m in effects)
    return ideal_scenario(n, eve_second=effects)


def test_check_part1_ideal_passes():
    for n in (2, 3):
        report = check_part1(born_table(ideal_scenario(n)), n)
        assert report.passed
        assert report.bell_passed
        npt.assert_allclose(report.bell_values, quantum_bound(n), rtol=0,
                            atol=DEFAULT_TOL.acceptance)
        npt.assert_allclose(report.pbar, 2.0**-n, atol=1e-12)


def test_check_part1_fails_under_noise():
    report = check_part1(born_table(ideal_scenario(2, visibility=0.9)), 2)
    assert not report.bell_passed
    assert all(v < 3.0 - 1e-6 for v in report.bell_values)
    assert report.pbar_passed  # isotropic noise keeps the weights uniform


def test_check_part1_flags_outcome_weights_just_off_uniform():
    # R_0 + 1e-6 R_1 and (1 - 1e-6) R_1 in Eve's first measurement move P(0|0) and P(1|0)
    # by 1e-6 / 8, inside 1e-3 but beyond tol.acceptance
    scen = ideal_scenario(3)
    effects = np.array(scen.eve[0].effects)
    effects[0] += 1e-6 * effects[1]
    effects[1] *= 1 - 1e-6
    scen = dataclasses.replace(scen, eve=(Povm(effects), scen.eve[1]))
    report = check_part1(born_table(scen), 3)
    assert np.abs(np.array(report.pbar) - 1 / 8).max() == pytest.approx(1.25e-7, rel=1e-6)
    assert not report.pbar_passed


def test_check_part1_fails_on_computational_eve():
    # Eve's first measurement in the computational basis in place of the GHZ basis
    scen = ideal_scenario(2)
    scen = dataclasses.replace(scen, eve=(Povm.rank_one(np.eye(scen.eve[0].dim)), scen.eve[1]))
    report = check_part1(born_table(scen), 2)
    assert not report.bell_passed


def test_projective_conditions_ghz_reference():
    n = 2
    ref = ghz_reference(n)
    scen = ideal_with_reference(n, ref)
    table = born_table(scen)
    assert _ranks(ref.effects) == [1, 1, 1, 1]
    report = check_part2(table, ref.effects, "projective")
    assert report.passed and report.branch == PLAIN
    assert report.max_residual() < 1e-9


def test_projective_conditions_rank_two_reference():
    # two rank-2 projectors summing to the identity on two qubits
    n = 2
    p0 = np.diag([1.0, 0.0, 0.0, 1.0])
    p1 = np.eye(4) - p0
    ref = embed_projective([p0, p1], n)
    scen = ideal_with_reference(n, ref)
    table = born_table(scen)
    assert _ranks(ref.effects) == [2, 2]
    report = check_part2(table, ref.effects, "projective")
    assert report.passed
    # each coefficient-weighted sum hits rank / 2^N = 1/2
    assert report.max_residual() < 1e-9


def test_projective_conditions_detect_scaled_identity_effects():
    n = 2
    ref = ghz_reference(n)
    flat = Povm((np.eye(4) / 4,) * 4)
    scen = ideal_scenario(n, eve_second=flat)
    table = born_table(scen)
    report = check_part2(table, ref.effects, "projective")
    assert not report.passed
    assert max(report.residuals_plain) >= 0.05
    assert max(report.residuals_conjugate) >= 0.05


def test_povm_conditions_trine(rng):
    n = 2
    spec = random_mixed_state_spec(2, rng)
    ref = embed_rank1_povm(trine_povm(spec), n)
    scen = ideal_with_reference(n, ref)
    table = born_table(scen)
    report = check_part2(table, ref.effects, "povm")
    assert report.passed and report.branch == PLAIN
    assert report.max_residual() < 1e-9


def test_povm_conditions_identity_tuple_is_marginal(rng):
    # the all-identity tuple reduces to P(l | e=1) = Tr(R'_l)/2^N
    n = 2
    spec = random_mixed_state_spec(2, rng)
    ref = embed_rank1_povm(trine_povm(spec), n)
    scen = ideal_with_reference(n, ref)
    table = born_table(scen)
    for l, m in enumerate(ref.effects):
        trace = float(np.trace(m).real)
        assert table.pbar(l, 1) == pytest.approx(trace / 2**n, abs=1e-12)
        assert pauli_coeffs(m, n).coeffs[3, 3] == pytest.approx(trace / 2**n, abs=1e-12)


def test_povm_conditions_branch_flips_with_conjugation(rng):
    n = 2
    spec = random_mixed_state_spec(2, rng)
    ref = embed_rank1_povm(trine_povm(spec), n)
    plain = check_part2(born_table(ideal_with_reference(n, ref, conjugate=True)), ref.effects,
                        "povm")
    conj = check_part2(born_table(ideal_with_reference(n, ref, conjugate=False)), ref.effects,
                       "povm")
    assert plain.branch == PLAIN
    assert conj.branch == CONJUGATE


def test_post_measurement_state_ghz_outcome():
    scen = ideal_scenario(2)
    rho = post_measurement_state(scen, 0, 0)
    phi = ghz_vector(BellOutcomeLabel((0, 0)))
    npt.assert_allclose(rho, np.outer(phi, phi.conj()), atol=1e-12)


def test_post_measurement_state_unit_trace(rng):
    from starcert.presets import random_scenario

    for _ in range(5):
        scen = random_scenario(2, rng)
        rho = post_measurement_state(scen, 1, 0)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        vals = np.linalg.eigvalsh(rho)
        assert vals.min() > -1e-10


def zero_effect_scenario():
    """The ideal N = 2 scenario with Eve's second measurement (0, 1): outcome 0 never occurs."""
    scen = ideal_scenario(2)
    zero_eff = Povm((np.zeros((4, 4)), np.eye(4)))
    return Scenario(
        n_parties=2,
        sources=scen.sources,
        alice_observables=scen.alice_observables,
        eve=(scen.eve[0], zero_eff),
    )


def test_post_measurement_state_zero_probability():
    with pytest.raises(ConditioningError):
        post_measurement_state(zero_effect_scenario(), 0, 1)


@pytest.mark.parametrize("e", [-1, 2])
def test_post_measurement_state_rejects_eve_input(e):
    with pytest.raises(DimensionError):
        post_measurement_state(ideal_scenario(2), 0, e)


@pytest.mark.parametrize("alice_dims, eve_dims", [
    ((2, 2), (2, 2)),
    ((2, 2, 2), (2, 2, 2)),
    ((2, 2, 2, 2), (2, 2, 2, 2)),
    ((2, 3), (4, 2)),
    ((3, 2), (2, 3)),
    ((2, 2, 2), (3, 2, 2)),
])
def test_post_measurement_state_matches_dense_oracle(alice_dims, eve_dims, rng):
    scen = random_scenario_with_dims(alice_dims, eve_dims, rng)
    for e in (0, 1):
        for l in range(scen.eve[e].outcome_count):
            npt.assert_allclose(post_measurement_state(scen, l, e),
                                post_measurement_oracle(scen, l, e), atol=1e-12)


def test_match_up_to_conjugation_real_tie():
    rho = np.diag([0.7, 0.3])
    branch = match_up_to_conjugation(rho, rho)
    assert branch.branch == PLAIN
    assert branch.distance == pytest.approx(0.0, abs=1e-12)


def test_match_up_to_conjugation_complex_branches(rng):
    rho = random_density_matrix(3, rng)
    assert match_up_to_conjugation(rho, rho).branch == PLAIN
    assert match_up_to_conjugation(np.conj(rho), rho).branch == CONJUGATE


def test_match_up_to_conjugation_none():
    branch = match_up_to_conjugation(np.eye(2) / 2, np.diag([1.0, 0.0]))
    assert branch.branch == NO_BRANCH
    assert branch.distance > 0.1


def test_match_up_to_conjugation_junk_factor(rng):
    # a reference (x) junk state is not split: both states must have one dimension
    ref = random_density_matrix(2, rng)
    actual = np.kron(ref, random_density_matrix(2, rng))
    with pytest.raises(DimensionError, match="actual dim 4 differs from reference dim 2"):
        match_up_to_conjugation(actual, ref)


def test_match_up_to_conjugation_dimension_error():
    with pytest.raises(DimensionError):
        match_up_to_conjugation(np.eye(3) / 3, np.eye(2) / 2)


def test_certify_state_preparation_conjugate_branch(rng):
    n = 2
    spec = random_mixed_state_spec(2, rng)
    ref = embed_rank1_povm(trine_povm(spec), n)
    scen = ideal_scenario(n, eve_second=ref)  # unconjugated effects
    report = certify_state_preparation(scen, spec)
    assert report.passed
    assert report.branch.branch == CONJUGATE
    for p, q in zip(report.probabilities, report.expected_probabilities):
        assert p == pytest.approx(q, abs=1e-12)
    assert report.total_probability == pytest.approx(2.0**-n, abs=1e-12)


def test_part3_fails_a_total_probability_off_target_with_each_outcome_within_tolerance(rng):
    # Eve's trine prepares a rank-3 state whose first two weights are each
    # delta below the rank-2 target's: each outcome is within the tolerance,
    # their total misses 2^-N by twice that
    n, delta = 3, 6e-9
    full = random_mixed_state_spec(3, rng)
    spec = MixedStateSpec(3, (0.6, 0.4), full.vectors[:2])
    eve = MixedStateSpec(3, (0.6 - delta, 0.4 - delta, 2 * delta), full.vectors)
    report = certify_state_preparation(
        ideal_scenario(n, eve_second=embed_rank1_povm(trine_povm(eve), n)), spec)
    assert report.outcomes == (0, 3)
    for p, q in zip(report.probabilities, report.expected_probabilities):
        assert q - p == pytest.approx(delta / 2**n, abs=1e-12)
        assert q - p <= DEFAULT_TOL.acceptance
    assert 2.0**-n - report.total_probability > DEFAULT_TOL.acceptance
    assert not report.prob_passed
    scen = ideal_scenario(n, eve_second=embed_rank1_povm(trine_povm(spec), n))
    assert certify_state_preparation(scen, spec).prob_passed


def test_certify_state_preparation_maximally_mixed_is_plain():
    n = 2
    v0 = np.array([1.0, 0.0])
    v1 = np.array([0.0, 1.0])
    from starcert.measurements import MixedStateSpec

    spec = MixedStateSpec(2, (0.5, 0.5), (v0, v1))
    ref = embed_rank1_povm(trine_povm(spec), n)
    report = certify_state_preparation(ideal_scenario(n, eve_second=ref), spec)
    assert report.passed
    assert report.branch.branch == PLAIN  # conjugation-invariant target


def test_certify_pure_preparation(rng):
    n = 2
    psi = np.array([0.6, 0.8j])
    ref = embed_projective([np.outer(psi, psi.conj())], n)
    report = certify_pure_preparation(ideal_scenario(n, eve_second=ref), psi)
    assert report.passed
    assert report.branch.branch == CONJUGATE
    assert report.branch.distance < 1e-9
    real_psi = np.array([0.6, 0.8])
    ref2 = embed_projective([np.outer(real_psi, real_psi)], n)
    report2 = certify_pure_preparation(ideal_scenario(n, eve_second=ref2), real_psi)
    assert report2.branch.branch == PLAIN


def test_certify_pure_preparation_rejects_a_target_larger_than_alice():
    with pytest.raises(DimensionError, match="target state dim 8 exceeds the Alice space dim 4"):
        certify_pure_preparation(ideal_scenario(2), np.ones(8) / np.sqrt(8))


def test_part3_refuses_a_preparation_outcome_of_zero_probability():
    with pytest.raises(ConditioningError, match=r"^outcome l=0, e=1 has probability 0\.000e\+00$"):
        certify_pure_preparation(zero_effect_scenario(), np.array([1.0, 0.0]))


def test_part3_never_builds_the_e1_correlator_tensor(monkeypatch, rng):
    n = 2
    spec = random_mixed_state_spec(2, rng)
    scen = ideal_scenario(n, eve_second=embed_rank1_povm(trine_povm(spec), n))
    correlator_tensor = CorrelationTable.correlator_tensor

    def e0_only(table, e):
        assert e != 1, "part 3 built the e = 1 correlator tensor"
        return correlator_tensor(table, e)

    monkeypatch.setattr(CorrelationTable, "correlator_tensor", e0_only)
    assert certify_state_preparation(scen, spec).passed


@pytest.mark.parametrize("alice_dims, eve_dims", [
    ((2, 3), (4, 2)),
    ((3, 2), (2, 3)),
    ((2, 2, 2), (3, 2, 2)),
])
def test_part3_matches_the_table_and_the_dense_oracle_on_non_qubit_dims(alice_dims, eve_dims,
                                                                        rng):
    # a second measurement of four outcomes, so that a full-rank qubit target reads outcomes 0, 3
    scen = random_scenario_with_dims(alice_dims, eve_dims, rng)
    scen = dataclasses.replace(scen, eve=(scen.eve[0], random_povm(scen.eve[1].dim, 4, rng)))
    table = born_table(scen)
    spec = random_mixed_state_spec(2, rng)
    outcomes, target = [0, 3], spec.density_matrix()
    report = certify_state_preparation(scen, spec, table)
    assert report.outcomes == tuple(outcomes)
    probs = [table.pbar(l, 1) for l in outcomes]
    npt.assert_allclose(report.probabilities, probs, rtol=0, atol=1e-12)
    avg = sum(p * post_measurement_oracle(scen, l, 1) for l, p in zip(outcomes, probs)) / sum(probs)
    oracle = match_up_to_conjugation(avg, _embed_block(target, len(avg)))
    assert report.branch.distance == pytest.approx(oracle.distance, abs=1e-12)


def _per_effect_part2_residuals(table, effects, mode):
    """Part 2's residuals by the per-effect route: one expansion, conjugate and rank per effect."""
    n = table.n
    t = table.correlator_tensor(1).reshape(table.outcome_count(1), -1)
    plain = np.stack([pauli_coeffs(m, n).coeffs.ravel() for m in effects])
    conj = np.stack([pauli_coeffs(m, n).conjugated().coeffs.ravel() for m in effects])
    ranks = _ranks(effects)

    def residuals(coeffs):
        if mode == "projective":
            sums = np.where(np.abs(coeffs) > 1e-14, coeffs * t, 0.0).sum(axis=-1)
            return np.abs(sums - np.asarray(ranks) / 2.0**n)
        return np.abs(t - coeffs).max(axis=-1)

    return tuple(residuals(plain).tolist()), tuple(residuals(conj).tolist())


PART2_REFERENCES = {
    "ghz_n2": lambda rng: ghz_reference(2),
    "ghz_n3": lambda rng: ghz_reference(3),
    "rank_two_projective": lambda rng: embed_projective(
        [np.diag([1.0, 0.0, 0.0, 1.0]), np.diag([0.0, 1.0, 1.0, 0.0])], 2),
    "trine": lambda rng: embed_rank1_povm(trine_povm(random_mixed_state_spec(2, rng)), 2),
    "random_rank_one": lambda rng: random_rank1_extremal_povm(4, 7, rng),
}


@pytest.mark.parametrize("mode", ["projective", "povm"])
@pytest.mark.parametrize("name", sorted(PART2_REFERENCES))
def test_check_part2_matches_the_per_effect_route_bit_for_bit(name, mode, rng):
    ref = PART2_REFERENCES[name](rng)
    n = int(np.log2(ref.dim))
    for conjugate in (True, False):
        for v in (1.0, 0.9):
            scen = depolarize_sources(ideal_with_reference(n, ref, conjugate), v)
            table = born_table(scen)
            expected = _per_effect_part2_residuals(table, ref.effects, mode)
            # the Povm as it is held (a rank-one one as vectors), and its effects as an array
            for reference in (ref, ref.effects):
                report = check_part2(table, reference, mode)
                assert (report.residuals_plain, report.residuals_conjugate) == expected
                assert report.mode == mode


def test_part2_builds_no_dense_effect_of_a_rank_one_reference():
    ghz = ghz_basis_measurement(3)
    scen = ideal_scenario(3, eve_second=ghz_basis_measurement(3))
    for mode in ("projective", "povm"):
        assert certify(scen, ghz, mode).verdict == CERTIFIED
        rows = noise_scan(scen, "effects", [0.5, 1.0], reference_effects=ghz, mode=mode).rows
        assert rows[-1].part2_max_residual < 1e-9 < rows[0].part2_max_residual
    assert ghz._effects is None


def test_part2_ranks_a_dense_povm_from_its_spectrum(monkeypatch):
    ref = PART2_REFERENCES["rank_two_projective"](None)
    assert ref.vectors is None
    table = born_table(ideal_with_reference(2, ref, conjugate=False))
    expected = check_part2(table, ref.effects, "projective")

    def forbidden(*args, **kwargs):
        raise AssertionError("part 2 ran an eigvalsh of its own on a Povm")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    assert check_part2(table, ref, "projective") == expected
    assert expected.passed


def test_check_part2_checks_a_dense_povm_at_the_run_tolerance():
    # a Hermiticity defect of 1e-8: within a loose Povm's 1e-6, beyond the default 1e-10
    clean = PART2_REFERENCES["rank_two_projective"](None)
    effects = np.array(clean.effects)
    effects[0, 0, 1] = 1e-8 / np.sqrt(2)
    ref = Povm(effects, Tolerances(structural=1e-6))
    table = born_table(ideal_with_reference(2, clean, conjugate=False))
    for mode in ("projective", "povm"):
        with pytest.raises(ContractViolation,
                           match=r"^matrix is not Hermitian \(defect 1\.000e-08 > 1\.0e-10\)$"):
            check_part2(table, ref, mode)
        # the same effects as an array are validated as a Povm at the run's tolerance
        with pytest.raises(ValidationError,
                           match=r"^invalid POVM: effect 0: Hermiticity defect 1\.000e-08, "):
            check_part2(table, ref.effects, mode, DEFAULT_TOL)


@pytest.mark.parametrize("mode", ["projective", "povm"])
def test_check_part2_counts_effects_before_stacking(mode):
    table = born_table(ideal_with_reference(2, ghz_reference(2)))
    with pytest.raises(DimensionError, match="^need at least one effect$"):
        check_part2(table, [], mode)
    with pytest.raises(DimensionError, match=r"^reference outcome count 1 differs "
                       r"from Eve's e=1 outcome count 4$"):
        check_part2(table, [np.eye(4)], mode)


@pytest.mark.parametrize("mode", ["projective", "povm"])
def test_check_part2_counts_outcomes_before_ranking(mode):
    # an eigenvalue at the rank cut: ranking would raise, but the count is the fault
    edge = np.diag([1.0, 1.0, DEFAULT_TOL.rank, 0.0])
    reference = Povm([edge, np.eye(4) - edge])
    with pytest.raises(ContractViolation, match="^indeterminate rank: "):
        numerical_ranks(reference.spectrum)
    table = born_table(ideal_with_reference(2, ghz_reference(2)))
    with pytest.raises(DimensionError, match=r"^reference outcome count 2 differs "
                       r"from Eve's e=1 outcome count 4$"):
        check_part2(table, reference, mode)


def test_unmatched_part2_reports_the_smaller_branch_maximum(rng):
    ref = PART2_REFERENCES["random_rank_one"](rng)
    # unconjugated, the effects match the Conjugate branch, which white noise then breaks
    report = check_part2(born_table(ideal_scenario(2, eve_second=ref.effects, visibility=0.9)),
                         ref, "povm")
    plain, conjugate = max(report.residuals_plain), max(report.residuals_conjugate)
    assert report.branch == NO_BRANCH and conjugate < plain
    assert report.max_residual() == conjugate
    assert Part2Report("povm", (0.5, 0.1), (0.3, 0.2), NO_BRANCH, False).max_residual() == 0.3


@pytest.mark.parametrize("mode", ["projective", "povm"])
def test_check_part2_checks_each_effect_before_stacking(mode):
    table = born_table(ideal_with_reference(2, ghz_reference(2)))
    with pytest.raises(DimensionError, match=r"^effect 1 has dim 2, expected 4$"):
        check_part2(table, [np.eye(4) / 2, np.eye(2) / 2], mode)
    with pytest.raises(ValidationError, match="^invalid POVM: effect 1: Hermiticity defect "):
        check_part2(table, [np.eye(4) / 2, np.triu(np.ones((4, 4)))], mode)


@pytest.mark.parametrize("mode", ["projective", "povm"])
def test_check_part2_names_the_first_non_hermitian_effect_not_the_worst(mode):
    # a list of effects is validated as a Povm, which names its first faulty effect
    table = born_table(ideal_with_reference(2, ghz_reference(2)))
    effects = np.array(ghz_reference(2).effects)
    effects[1, 0, 1] += 1e-9 / np.sqrt(2)  # ||M - M^dagger|| = 1e-9
    effects[3, 0, 1] += 1 / np.sqrt(2)
    with pytest.raises(ValidationError,
                       match=r"^invalid POVM: effect 1: Hermiticity defect 1\.000e-09, "):
        check_part2(table, list(effects), mode)


def test_check_part2_rejects_an_unknown_mode():
    ref = ghz_reference(2)
    table = born_table(ideal_with_reference(2, ref))
    with pytest.raises(DimensionError, match="unknown certification mode 'bogus'"):
        check_part2(table, ref.effects, "bogus")


@pytest.mark.parametrize("with_reference", [False, True])
def test_noise_scan_rejects_an_unknown_mode(with_reference):
    ref = ghz_reference(2)
    scen = ideal_with_reference(2, ref)
    reference = ref.effects if with_reference else None
    with pytest.raises(DimensionError, match="unknown certification mode 'bogus'"):
        noise_scan(scen, "effects", [1.0], reference_effects=reference, mode="bogus")


@pytest.mark.parametrize("psi, error, message", [
    (np.zeros(2), ContractViolation, "target state is zero"),
    ([np.nan, 0.0], ContractViolation, "target state contains NaN or Inf entries"),
    ([0.0, np.inf], ContractViolation, "target state contains NaN or Inf entries"),
    ([], DimensionError, "target state must have at least one amplitude"),
])
def test_certify_pure_preparation_rejects_a_degenerate_target(psi, error, message):
    with pytest.raises(error, match=message):
        certify_pure_preparation(ideal_scenario(2), psi)


def test_certify_pure_preparation_normalises_the_target():
    psi = np.array([0.6, 0.8j])
    scen = ideal_scenario(2, eve_second=embed_projective([np.outer(psi, psi.conj())], 2))
    unit = certify_pure_preparation(scen, psi)
    scaled = certify_pure_preparation(scen, 3 * psi)
    assert scaled.passed and scaled.branch.branch == unit.branch.branch == CONJUGATE
    assert scaled.branch.distance == pytest.approx(unit.branch.distance, abs=1e-12)


def test_certify_pure_preparation_normalises_a_target_of_huge_entries():
    # ||psi|| of (1e308, 1e308) overflows float64; the scaled norm does not
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    scen = ideal_scenario(2, eve_second=embed_projective([np.outer(psi, psi.conj())], 2))
    unit = certify_pure_preparation(scen, psi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = certify_pure_preparation(scen, np.array([1e308, 1e308]))
    assert huge.passed and huge.branch.branch == unit.branch.branch == PLAIN
    assert huge.branch.distance == pytest.approx(unit.branch.distance, abs=1e-12)


@pytest.mark.parametrize("reference", [np.zeros((2, 2)), -np.eye(2) / 2])
def test_match_up_to_conjugation_rejects_a_reference_without_positive_trace(reference):
    with pytest.raises(StarcertError, match="is not positive"):
        match_up_to_conjugation(np.eye(2) / 2, reference)


@pytest.mark.parametrize("spectra, magnitude", [
    # each set resolves the identity, so that it is a valid Povm
    ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 3e-8), (0, 0, 0, 1 - 3e-8)], "3.000e-08"),
    ([(1 - 5e-8, 0, 0, 0), (0, 1, 2e-8, 0), (0, 0, 1 - 2e-8, 0), (5e-8, 0, 0, 1)], "2.000e-08"),
    ([(1 - 2e-8, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1 - 5e-8, 0), (2e-8, 0, 5e-8, 1)], "5.000e-08"),
], ids=["one-effect", "first-of-two-effects", "greatest-of-two-eigenvalues"])
def test_check_part2_names_a_borderline_rank_as_numerical_rank_does(spectra, magnitude, rng):
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    effects = [q @ np.diag(s) @ q.conj().T for s in spectra]
    culprit = next(k for k, m in enumerate(effects) if _rank_error(m) is not None)
    assert culprit > 0
    table = born_table(ideal_with_reference(2, ghz_reference(2)))
    with pytest.raises(ContractViolation) as raised:
        check_part2(table, effects, "projective")
    assert str(raised.value) == _rank_error(effects[culprit])
    assert str(raised.value).startswith(f"indeterminate rank: eigenvalue magnitude {magnitude} ")


def _ranks(effects):
    """Each effect's rank: ``numerical_ranks`` of the spectrum of its Hermitian part."""
    return numerical_ranks(np.linalg.eigvalsh(hermitian_part(np.asarray(effects)))).tolist()


def _rank_error(m):
    try:
        _ranks([m])
    except ContractViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("mode", ["projective", "povm"])
def test_part2_rejects_effects_for_the_wrong_n(mode):
    table = born_table(ideal_scenario(2))
    with pytest.raises(DimensionError, match="matrix dim 8 is not 2\\^2"):
        check_part2(table, [np.eye(8)], mode)


# Effect lists on two qubits, made from the GHZ-basis effects r, that are not a measurement.
NOT_A_POVM = {
    "incomplete": lambda r: list(0.9 * r),
    "not_psd": lambda r: [r[0] - 0.1 * r[1], 1.1 * r[1], r[2], r[3]],
    "not_hermitian": lambda r: [r[0] + 0.1j * np.eye(4), r[1] - 0.1j * np.eye(4), r[2], r[3]],
}


@pytest.mark.parametrize("mode", ["projective", "povm"])
@pytest.mark.parametrize("fault", sorted(NOT_A_POVM))
def test_part2_refuses_effects_that_are_not_a_povm_as_povm_does(fault, mode):
    ref = ghz_reference(2)
    effects = NOT_A_POVM[fault](np.array(ref.effects))
    with pytest.raises(ValidationError, match="^invalid POVM: ") as expected:
        Povm(effects)
    scen = ideal_with_reference(2, ref)
    for run in (lambda: check_part2(born_table(scen), effects, mode),
                lambda: certify(scen, effects, mode),
                lambda: noise_scan(scen, "effects", [0.5, 1.0], reference_effects=effects,
                                   mode=mode)):
        with pytest.raises(ValidationError) as raised:
            run()
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("build", [
    lambda: Povm(["ab"]),
    lambda: Povm([[[1, 2], [3]]]),
    lambda: Povm(np.array(5.0)),
    lambda: BinaryObservableTriple("a", "b", "c"),
    lambda: embed_projective(np.array(1.0), 2),
    lambda: check_part2(born_table(ideal_scenario(2)), ["ab"] * 4, "povm"),
    lambda: check_part2(born_table(ideal_scenario(2)), np.array(1.0), "projective"),
    lambda: check_part2(born_table(ideal_scenario(2)), np.array(1.0), "povm"),
], ids=["povm-string", "povm-ragged", "povm-0d", "observables-strings", "embed-0d",
        "part2-strings", "part2-0d-projective", "part2-0d-povm"])
def test_junk_in_a_matrix_list_raises_a_starcert_error(build):
    with pytest.raises(DimensionError, match="^expected a "):
        build()


def test_certify_end_to_end_projective():
    n = 2
    ref = ghz_reference(n)
    scen = ideal_with_reference(n, ref)
    report = certify(scen, ref.effects, "projective")
    assert report.verdict == "Certified"


def test_certify_detects_tamperings():
    n = 2
    ref = ghz_reference(n)
    scen = ideal_with_reference(n, ref)
    for tampered in (
        flip_observable_sign(scen, 0, 0),
        swap_eve_effects(scen, 1, 0, 1),
        depolarize_one_source(scen, 0, 0.8),
    ):
        assert certify(tampered, ref.effects, "projective").verdict == FAILED


def test_certify_fails_when_part3_matches_the_other_branch():
    # the scenario holds the trine itself, the reference its conjugate: part 2 matches Plain,
    # while the prepared states match the target on the Conjugate branch only
    spec = load_mixed_state_spec(fixture_path("mixed_demo.statespec.json"))
    trine = trine_povm(spec)
    report = certify(ideal_scenario(2, eve_second=trine), np.conj(trine.effects), "povm",
                     state_spec=spec)
    assert report.part2.passed and report.part2.branch == PLAIN
    assert report.part3.branch.branch == NO_BRANCH and not report.part3.state_passed
    assert report.verdict == FAILED


@pytest.mark.parametrize("mode", ["projective", "povm"])
def test_certify_without_a_reference_reads_its_verdict_from_parts_1_and_3(mode):
    spec = load_mixed_state_spec(fixture_path("mixed_demo.statespec.json"))
    scen = ideal_scenario(2, eve_second=embed_rank1_povm(trine_povm(spec), 2))
    mixed = MixedStateSpec(2, (0.5, 0.5), (np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    reports = [certify(scenario, None, mode, state_spec=target) for scenario, target in
               ((scen, spec), (scen, mixed), (depolarize_one_source(scen, 0, 0.8), spec))]
    for report in reports:
        assert report.part2 is None
        assert report.verdict == _resolve_verdict(report.part1, None, report.part3)
    certified, wrong_target, noisy = reports
    assert certified.verdict == CERTIFIED and certified.part3.branch.branch == CONJUGATE
    # a missed target fails the run on part 3 alone, a noisy source on part 1
    assert wrong_target.verdict == FAILED and wrong_target.part1.passed
    assert not wrong_target.part3.passed
    assert noisy.verdict == FAILED and not noisy.part1.passed


@pytest.mark.parametrize("with_state_spec", [False, True])
def test_certify_without_a_reference_rejects_an_unknown_mode(with_state_spec):
    spec = load_mixed_state_spec(fixture_path("mixed_demo.statespec.json"))
    scen = ideal_scenario(2, eve_second=embed_rank1_povm(trine_povm(spec), 2))
    with pytest.raises(DimensionError, match="unknown certification mode 'bogus'"):
        certify(scen, None, "bogus", state_spec=spec if with_state_spec else None)


def test_verdict_resolution_inconclusive():
    p1 = Part1Report(bell_values=(), pbar=(), bell_passed=True, pbar_passed=False)
    p2 = Part2Report("projective", (0.0,), (0.0,), PLAIN, True)
    assert _resolve_verdict(p1, p2, None) == INCONCLUSIVE
    p1_fail = Part1Report(bell_values=(), pbar=(), bell_passed=False, pbar_passed=True)
    assert _resolve_verdict(p1_fail, p2, None) == FAILED


def test_conjugation_symmetry_of_tables(rng):
    from starcert.presets import random_scenario

    for _ in range(3):
        scen = random_scenario(2, rng)
        t = born_table(scen)
        tc = born_table(conjugate_scenario(scen))
        npt.assert_allclose(t.p0, tc.p0, atol=1e-12)
        npt.assert_allclose(t.p1, tc.p1, atol=1e-12)


def test_noise_scan_endpoints():
    scen = ideal_scenario(2)
    report = noise_scan(scen, "isotropic", [0.0, 0.5, 1.0])
    assert report.bell_monotone
    assert report.rows[0].min_bell == pytest.approx(0.0, abs=1e-9)
    assert report.rows[-1].min_bell == pytest.approx(3.0, abs=1e-9)
    assert len(report.rows) == 3


def test_noise_scan_effect_model():
    ref = ghz_reference(2)
    scen = ideal_with_reference(2, ref)
    report = noise_scan(
        scen, "effects", [0.5, 1.0], reference_effects=ref.effects, mode="projective"
    )
    assert report.rows[1].part2_max_residual < 1e-9
    assert report.rows[0].part2_max_residual > 1e-3


def test_noise_scan_rejects_bad_grid():
    scen = ideal_scenario(2)
    with pytest.raises(DimensionError):
        noise_scan(scen, "isotropic", [])
    with pytest.raises(DimensionError):
        noise_scan(scen, "isotropic", [1.5])
    with pytest.raises(DimensionError):
        noise_scan(scen, "unknown", [0.5])
