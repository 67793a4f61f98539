import numpy as np
import numpy.testing as npt
import pytest

from starcert.bell import (
    BellOutcomeLabel,
    all_labels,
    bell_coefficients,
    bell_operator,
    bell_value,
    classical_bound_bruteforce,
    classical_bound_formula,
    evaluate_bell,
    ghz_vector,
    ideal_observables,
    max_bell_eigenvalue,
    operator_diagnostics,
    quantum_bound,
    sos_residuals,
    tilde_observables,
)
from starcert.certify import post_measurement_state
from starcert.measurements import ghz_basis_measurement
from starcert.network import born_table
from starcert.presets import (
    ideal_scenario,
    random_observable_triple,
    random_state_vector,
)

SQRT2 = np.sqrt(2)


def test_label_packing():
    lab = BellOutcomeLabel((1, 0, 1))
    assert lab.value == 5
    assert BellOutcomeLabel.from_value(5, 3) == lab
    assert len(all_labels(3)) == 8
    with pytest.raises(ValueError):
        BellOutcomeLabel((2, 0))


def test_bounds_formulas():
    assert classical_bound_formula(2) == pytest.approx(SQRT2 + 1)
    assert quantum_bound(4) == 9.0


def test_classical_bound_matches_formula_all_labels():
    for n in (2, 3):
        result = classical_bound_bruteforce(n)
        npt.assert_allclose(
            result.per_label_maxima, classical_bound_formula(n), atol=1e-12
        )
        assert result.strategy.shape == (n, 3)
        assert set(np.unique(result.strategy)) <= {-1.0, 1.0}


def test_tilde_observables():
    t0, t1 = tilde_observables(np.diag([1.0, -1.0]), np.diag([-1.0, 1.0]))
    npt.assert_allclose(t0, SQRT2 * np.diag([1.0, -1.0]))
    npt.assert_allclose(t1, np.zeros((2, 2)))


def test_ideal_observables_algebra():
    for triple in ideal_observables(3):
        for report in operator_diagnostics([triple]):
            assert report["anticommutator_norm"] < 1e-12
            assert max(report["unitarity_defects"]) < 1e-12


def test_ghz_vectors_orthonormal():
    for n in (2, 3):
        vectors = [ghz_vector(lab) for lab in all_labels(n)]
        gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
        npt.assert_allclose(gram, np.eye(2**n), atol=1e-12)


def test_ghz_vector_explicit():
    npt.assert_allclose(
        ghz_vector(BellOutcomeLabel((0, 0))), np.array([1, 0, 0, 1]) / SQRT2
    )
    npt.assert_allclose(
        ghz_vector(BellOutcomeLabel((1, 0))), np.array([0, -1, 1, 0]) / SQRT2
    )


def test_bell_value_ideal_reaches_quantum_bound():
    for n in (2, 3):
        table = born_table(ideal_scenario(n))
        for lab in all_labels(n):
            assert bell_value(table, lab) == pytest.approx(quantum_bound(n), abs=1e-9)


def test_bell_value_agrees_with_operator_route():
    # black-box route (correlators) vs white-box route (operator trace)
    n = 2
    scen = ideal_scenario(n, visibility=0.85)
    table = born_table(scen)
    obs = scen.alice_observables
    for lab in all_labels(n):
        op = bell_operator(lab, obs)
        rho = post_measurement_state(scen, lab.value, 0)
        white = float(np.trace(op @ rho).real)
        assert bell_value(table, lab) == pytest.approx(white, abs=1e-10)


def test_ghz_vector_is_bell_operator_top_eigenvector():
    for n in (2, 3):
        obs = ideal_observables(n)
        for lab in all_labels(n):
            op = bell_operator(lab, obs)
            v = ghz_vector(lab)
            npt.assert_allclose(op @ v, quantum_bound(n) * v, atol=1e-9)


def test_max_bell_eigenvalue_ideal():
    assert max_bell_eigenvalue(
        BellOutcomeLabel((0, 1)), ideal_observables(2)
    ) == pytest.approx(3.0, abs=1e-9)


def operator_from_coefficients(coeffs, observables):
    """sum_j B[j] A~_{1,j_1} (x) ... (x) A_{N,j_N}, index 3 the identity."""
    slots = []
    for i, triple in enumerate(observables):
        a0, a1, a2 = triple.observables()
        if i == 0:
            a0, a1 = (a0 - a1) / SQRT2, (a0 + a1) / SQRT2
        slots.append((a0, a1, a2, np.eye(triple.dim)))
    op = 0
    for idx in zip(*np.nonzero(coeffs)):
        factor = slots[0][idx[0]]
        for i, j in enumerate(idx[1:], start=1):
            factor = np.kron(factor, slots[i][j])
        op = op + coeffs[idx] * factor
    return op


def test_bell_coefficients_reproduce_max_eigenvalue_on_ideal():
    for n in (2, 3):
        scen = ideal_scenario(n)
        table = born_table(scen)
        for lab in all_labels(n):
            coeffs = bell_coefficients(lab)
            assert np.count_nonzero(coeffs) == 2 * n - 1
            top = max_bell_eigenvalue(lab, scen.alice_observables)
            op = operator_from_coefficients(coeffs, scen.alice_observables)
            assert np.linalg.eigvalsh(op)[-1] == pytest.approx(top, abs=1e-9)
            assert bell_value(table, lab) == pytest.approx(top, abs=1e-9)


def test_bell_coefficients_match_operator_on_random_observables(rng):
    for n in (2, 3):
        obs = [random_observable_triple(2, rng) for _ in range(n)]
        for lab in all_labels(n):
            npt.assert_allclose(
                operator_from_coefficients(bell_coefficients(lab), obs),
                bell_operator(lab, obs),
                atol=1e-12,
            )


def test_sos_identity_random_draws(rng):
    for n in (2, 3):
        for _ in range(10):
            obs = [random_observable_triple(2, rng) for _ in range(n)]
            psi = random_state_vector(2**n, rng)
            lab = all_labels(n)[int(rng.integers(2**n))]
            res = sos_residuals(lab, obs, psi)
            op = bell_operator(lab, obs)
            expected = 2 * (quantum_bound(n) - np.vdot(psi, op @ psi).real)
            assert res.weighted_square_sum() == pytest.approx(expected, abs=1e-10)


def test_sos_residuals_vanish_on_ideal():
    for n in (2, 3):
        obs = ideal_observables(n)
        for lab in all_labels(n):
            res = sos_residuals(lab, obs, ghz_vector(lab))
            assert res.max_residual() < 1e-9


def test_evaluate_bell_flags():
    table = born_table(ideal_scenario(2))
    ev = evaluate_bell(table, BellOutcomeLabel((0, 0)))
    assert ev.violated and ev.maximal
    noisy = born_table(ideal_scenario(2, visibility=0.5))
    ev2 = evaluate_bell(noisy, BellOutcomeLabel((0, 0)))
    assert not ev2.violated and not ev2.maximal


def test_bell_value_with_noneve_outcome_conditioning():
    # conditioning on the e=1 single-outcome measurement gives value for e=1
    table = born_table(ideal_scenario(2, eve_second=ghz_basis_measurement(2)))
    lab = BellOutcomeLabel((0, 0))
    assert bell_value(table, lab, e=1) == pytest.approx(3.0, abs=1e-9)
