import numpy as np
import numpy.testing as npt
import pytest

from starcert.bell import ghz_vector, BellOutcomeLabel
from starcert.certify import (
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
from starcert.errors import ConditioningError, ContractViolation, DimensionError, StarcertError
from starcert.measurements import (
    Povm,
    embed_projective,
    embed_rank1_povm,
    ghz_basis_measurement,
    pauli_coeffs,
    trine_povm,
)
from starcert.network import Scenario, born_table
from starcert.tensor import numerical_rank
from starcert.presets import (
    computational_eve0,
    conjugate_scenario,
    depolarize_one_source,
    depolarize_sources,
    flip_observable_sign,
    ideal_scenario,
    random_density_matrix,
    random_mixed_state_spec,
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
        assert all(ev.maximal for ev in report.evaluations)
        npt.assert_allclose(report.pbar, 2.0**-n, atol=1e-12)


def test_check_part1_fails_under_noise():
    report = check_part1(born_table(ideal_scenario(2, visibility=0.9)), 2)
    assert not report.bell_passed
    assert all(ev.value < 3.0 - 1e-6 for ev in report.evaluations)
    assert report.pbar_passed  # isotropic noise keeps the weights uniform


def test_check_part1_fails_on_computational_eve():
    scen = computational_eve0(ideal_scenario(2))
    report = check_part1(born_table(scen), 2)
    assert not report.bell_passed


def test_projective_conditions_ghz_reference():
    n = 2
    ref = ghz_reference(n)
    scen = ideal_with_reference(n, ref)
    table = born_table(scen)
    assert [numerical_rank(m) for m in ref.effects] == [1, 1, 1, 1]
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
    assert [numerical_rank(m) for m in ref.effects] == [2, 2]
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


def test_post_measurement_state_zero_probability():
    scen = ideal_scenario(2)
    zero_eff = Povm((np.zeros((4, 4)), np.eye(4)))
    scen2 = Scenario(
        n_parties=2,
        sources=scen.sources,
        alice_observables=scen.alice_observables,
        eve=(scen.eve[0], zero_eff),
    )
    with pytest.raises(ConditioningError):
        post_measurement_state(scen2, 0, 1)


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
    ref = random_density_matrix(2, rng)
    junk = random_density_matrix(2, rng)
    actual = np.kron(ref, junk)
    assert match_up_to_conjugation(actual, ref).branch == PLAIN
    assert match_up_to_conjugation(np.conj(actual), ref).branch == CONJUGATE


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


def _per_effect_part2_residuals(table, effects, mode):
    """Part 2's residuals by the per-effect route: one expansion, conjugate and rank per effect."""
    n = table.n
    t = table.correlator_tensor(1).reshape(table.outcome_count(1), -1)
    plain = np.stack([pauli_coeffs(m, n).coeffs.ravel() for m in effects])
    conj = np.stack([pauli_coeffs(m, n).conjugated().coeffs.ravel() for m in effects])
    ranks = [numerical_rank(m) for m in effects]

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
            report = check_part2(table, ref.effects, mode)
            expected = _per_effect_part2_residuals(table, ref.effects, mode)
            assert (report.residuals_plain, report.residuals_conjugate) == expected
            assert report.mode == mode


@pytest.mark.parametrize("mode, what", [("projective", "rank"), ("povm", "coefficient tensor")])
def test_check_part2_counts_effects_before_stacking(mode, what):
    table = born_table(ideal_with_reference(2, ghz_reference(2)))
    with pytest.raises(DimensionError, match=rf"^need one {what} per e=1 outcome \(4\), got 0$"):
        check_part2(table, [], mode)
    with pytest.raises(DimensionError, match=rf"^need one {what} per e=1 outcome \(4\), got 1$"):
        check_part2(table, [np.eye(4)], mode)


@pytest.mark.parametrize("mode", ["projective", "povm"])
def test_check_part2_checks_each_effect_before_stacking(mode):
    table = born_table(ideal_with_reference(2, ghz_reference(2)))
    with pytest.raises(DimensionError, match=r"^matrix dim 2 is not 2\^2$"):
        check_part2(table, [np.eye(4) / 2, np.eye(2) / 2], mode)
    with pytest.raises(ContractViolation, match="^matrix is not Hermitian"):
        check_part2(table, [np.eye(4) / 2, np.triu(np.ones((4, 4)))], mode)


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
    (np.zeros(2), ContractViolation, "reference trace 0.000e\\+00 is not positive"),
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


@pytest.mark.parametrize("reference", [np.zeros((2, 2)), -np.eye(2) / 2])
def test_match_up_to_conjugation_rejects_a_reference_without_positive_trace(reference):
    with pytest.raises(StarcertError, match="is not positive"):
        match_up_to_conjugation(np.eye(2) / 2, reference)


@pytest.mark.parametrize("mode", ["projective", "povm"])
def test_part2_rejects_effects_for_the_wrong_n(mode):
    table = born_table(ideal_scenario(2))
    with pytest.raises(DimensionError, match="matrix dim 8 is not 2\\^2"):
        check_part2(table, [np.eye(8) / 8], mode)


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


def test_verdict_resolution_inconclusive():
    p1 = Part1Report(evaluations=(), pbar=(), bell_passed=True, pbar_passed=False)
    p2 = Part2Report("projective", (0.0,), (0.0,), PLAIN, True)
    assert _resolve_verdict(p1, p2, None) == INCONCLUSIVE
    p1_fail = Part1Report(evaluations=(), pbar=(), bell_passed=False, pbar_passed=True)
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
